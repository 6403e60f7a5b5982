#!/usr/bin/env python3
"""One digest per CLI command, to check that a change keeps every report.

Writes seeded input files to a temporary directory, runs a fixed set of
``volsample`` commands there (``python -m volsample`` from this checkout's
``src``) and prints one line per command: its name and the sha256 of
(exit code, stdout, JSON report without ``timings_ms``).  stderr is left
out, as its warnings and tracebacks may hold paths.  The inputs are named
relative to the directory, so the reports echo the same ``input`` in any
checkout.  Run it in two checkouts and compare the lines:

    python3 scripts/report_digests.py            # about half a minute
    python3 scripts/report_digests.py --slow     # adds verify --suite distribution
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"


def _write_csv(path: Path, X: np.ndarray, y: np.ndarray) -> None:
    rows = [",".join(repr(float(v)) for v in (*x, t)) for x, t in zip(X, y)]
    path.write_text("\n".join(rows) + "\n")


def write_inputs(root: Path) -> None:
    """The seeded input files that COMMANDS read."""
    rng = np.random.default_rng(2024)
    X = rng.standard_normal((12, 3))
    _write_csv(root / "small.csv", X, rng.standard_normal(12))
    lines = [f"{t!r} " + " ".join(f"{j + 1}:{v!r}" for j, v in enumerate(x) if v > -0.5)
             for x, t in zip(X.tolist(), rng.standard_normal(12).tolist())]
    (root / "small.libsvm").write_text("\n".join(lines) + "\n")
    X = rng.standard_normal((2500, 4))
    _write_csv(root / "large.csv", X, X @ rng.standard_normal(4) + rng.standard_normal(2500))
    X = rng.standard_normal((50, 3))
    X[3, 1] = 1e200  # X'X overflows
    _write_csv(root / "gram_overflow.csv", X, rng.standard_normal(50))
    X = rng.standard_normal((60, 3))
    y = rng.standard_normal(60)
    y[5] = 1e200  # the total loss overflows
    _write_csv(root / "loss_overflow.csv", X, y)
    (root / "degenerate.csv").write_text("x1,x2,y\n1,1,1\n1,1,0\n1,0,0\n")


def _sample(path, alg, lam, size=4):
    return ["sample", "--input", path, "--algorithm", alg, "--lambda", str(lam),
            "--size", str(size), "--seed", "7"]


COMMANDS = {
    **{f"sample-{alg}-lam{lam}": _sample("small.csv", alg, lam)
       for alg in ("regvol", "fastregvol", "leverage", "oracle") for lam in (0, 0.5)},
    "sample-libsvm": _sample("small.libsvm", "regvol", 0) + ["--format", "libsvm"],
    "regress-grid-average": [
        "regress", "--input", "small.csv", "--algorithm", "regvol,fastregvol,leverage,oracle",
        "--size", "5", "--replicates", "4", "--average", "--lambda-grid", "0,0.5",
        "--seed", "3"],
    "regress-parallel": [  # 2500 rows x 8 volume draws, above PARALLEL_MIN_ROW_DRAWS
        "regress", "--input", "large.csv", "--algorithm", "regvol,fastregvol",
        "--size", "8", "--replicates", "4", "--lambda", "0.5", "--seed", "5"],
    "verify-identities": ["verify", "--suite", "identities", "--seed", "0"],
    "verify-regression-bounds": ["verify", "--suite", "regression-bounds", "--seed", "0"],
    "error-missing-file": ["sample", "--input", "missing.csv", "--size", "2"],
    "error-bad-size": ["regress", "--input", "small.csv", "--size", "0"],
    **{f"gram-overflow-{alg}": ["sample", "--input", "gram_overflow.csv",
                                "--algorithm", alg, "--size", "4"]
       for alg in ("regvol", "leverage", "fastregvol")},
    "gram-overflow-regress": ["regress", "--input", "gram_overflow.csv",
                              "--algorithm", "fastregvol", "--lambda", "0.5", "--size", "4"],
    "loss-overflow-regress": ["regress", "--input", "loss_overflow.csv", "--algorithm",
                              "regvol", "--size", "4", "--replicates", "3", "--average"],
    "leverage-dlambda-warning": ["sample", "--input", "degenerate.csv", "--algorithm",
                                 "leverage", "--lambda", "0.01", "--size", "1"],
}
SLOW_COMMANDS = {
    "verify-distribution": ["verify", "--suite", "distribution", "--seed", "0"],
}


def digest(root: Path, argv: list[str]) -> str:
    """sha256 of (exit code, stdout, report without timings_ms) of one command."""
    report_path = root / "report.json"
    report_path.unlink(missing_ok=True)
    env = {k: v for k, v in os.environ.items() if k != "VOLSAMPLE_SEED"}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run([sys.executable, "-m", "volsample", *argv, "--json", "report.json"],
                          cwd=root, env=env, capture_output=True, text=True)
    report = json.loads(report_path.read_text()) if report_path.exists() else None
    if isinstance(report, dict):
        report.pop("timings_ms", None)
    blob = json.dumps([proc.returncode, proc.stdout, report], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--slow", action="store_true",
                        help="also run verify --suite distribution (about a minute)")
    args = parser.parse_args()
    commands = {**COMMANDS, **(SLOW_COMMANDS if args.slow else {})}
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_inputs(root)
        for name, argv in commands.items():
            print(f"{name:28s} {digest(root, argv)}", flush=True)


if __name__ == "__main__":
    main()
