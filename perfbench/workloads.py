"""The benchmark's workloads: inputs, per-op command lines and output checks.

A workload makes its inputs from the workload seed with its own numpy
writer (never through ``volsample``), hands the program only the generated
files, and checks every op's JSON report without calling into the package.
Each ``check`` returns a list of problems; an empty list means the op's
output is correct.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

# Subset losses are computed by the package and the optimum by lstsq, in two
# summation orders; a relative slack of this size absorbs that roundoff only.
LOSS_RTOL = 1e-9


def write_gaussian_csv(path: Path, n: int, d: int, rng: np.random.Generator):
    """Write an n x d Gaussian design plus a noisy linear response.

    The file has a header and 17 significant digits per value, so parsing
    it gives back exactly the returned ``X`` and ``y``.
    """
    X = rng.standard_normal((n, d))
    y = X @ rng.standard_normal(d) + rng.standard_normal(n)
    header = ",".join([f"x{j + 1}" for j in range(d)] + ["y"])
    np.savetxt(path, np.column_stack([X, y]), fmt="%.17g", delimiter=",",
               header=header, comments="")
    return X, y


def _error_problem(report) -> list[str]:
    if not isinstance(report, dict):
        return ["no JSON report"]
    if "error" in report:
        return [f"JSON error: {report['error']}"]
    if not isinstance(report.get("results"), dict):
        return ["report has no results"]
    return []


class SampleWorkload:
    """One fast-sampler draw at lam=0 from a large Gaussian CSV per op."""

    def __init__(self, n: int = 100_000, d: int = 10, s: int = 10):
        self.n, self.d, self.s = n, d, s
        self.draws_per_op = 1

    def setup(self, work: Path, seed: int) -> dict:
        path = work / "sample.csv"
        X, _ = write_gaussian_csv(path, self.n, self.d, np.random.default_rng([seed, 0]))
        return {"input": path, "X": X}

    def argv(self, ctx: dict, op_seed: int, report: Path) -> list[str]:
        return ["sample", "--input", str(ctx["input"]), "--algorithm", "fastregvol",
                "--size", str(self.s), "--lambda", "0", "--seed", str(op_seed),
                "--json", str(report)]

    def check(self, ctx: dict, report) -> list[str]:
        problems = _error_problem(report)
        if problems:
            return problems
        X = ctx["X"]
        n, d = X.shape
        res = report["results"]
        idx = res.get("indices")
        if not isinstance(idx, list) or not all(isinstance(i, int) for i in idx):
            return ["indices missing or not integers"]
        if len(idx) != self.s or len(set(idx)) != self.s:
            problems.append(f"expected {self.s} distinct indices, got {idx}")
        if not all(0 <= i < n for i in idx):
            problems.append(f"index out of range [0, {n}): {idx}")
        elif np.linalg.matrix_rank(X[idx]) < d:
            problems.append("X_S is rank deficient at lambda=0")
        trials = res.get("rejection_trials")
        floor = n - max(self.s, 2 * d)
        if not isinstance(trials, int) or trials < floor:
            problems.append(f"rejection_trials={trials!r} below n - max(s, 2d) = {floor}")
        return problems


class RegressWorkload:
    """Ridge regression over replicate subsets of three samplers per op."""

    algorithms = ("regvol", "fastregvol", "leverage")
    lam = 1.0

    def __init__(self, n: int = 10_000, d: int = 10, s: int = 20, replicates: int = 4):
        self.n, self.d, self.s, self.replicates = n, d, s, replicates
        self.draws_per_op = len(self.algorithms) * replicates

    def setup(self, work: Path, seed: int) -> dict:
        path = work / "regress.csv"
        X, y = write_gaussian_csv(path, self.n, self.d, np.random.default_rng([seed, 0]))
        w, *_ = np.linalg.lstsq(X, y, rcond=None)
        r = X @ w - y
        return {"input": path, "optimum": float(r @ r)}

    def argv(self, ctx: dict, op_seed: int, report: Path) -> list[str]:
        return ["regress", "--input", str(ctx["input"]), "--size", str(self.s),
                "--lambda", repr(self.lam), "--algorithm", ",".join(self.algorithms),
                "--replicates", str(self.replicates), "--average",
                "--seed", str(op_seed), "--json", str(report)]

    def check(self, ctx: dict, report) -> list[str]:
        problems = _error_problem(report)
        if problems:
            return problems
        floor = ctx["optimum"] * (1.0 - LOSS_RTOL)
        res = report["results"]
        if sorted(res) != sorted(self.algorithms):
            return [f"expected results for {self.algorithms}, got {sorted(res)}"]
        for alg in self.algorithms:
            entry = res[alg].get(repr(self.lam))
            if not isinstance(entry, dict):
                problems.append(f"{alg}: no entry for lambda={self.lam!r}")
                continue
            for key in ("mean_total_loss", "averaged_total_loss"):
                loss = entry.get(key)
                if not isinstance(loss, (int, float)) or not math.isfinite(loss):
                    problems.append(f"{alg}.{key}={loss!r} is not finite")
                elif loss < floor:
                    problems.append(f"{alg}.{key}={loss!r} below the least-squares "
                                    f"optimum {ctx['optimum']!r}")
        return problems


class VerifyWorkload:
    """The sampler-vs-oracle distribution suite, one new seed per op."""

    # regvol and fastregvol draw 100k subsets each, leverage 20k draws of 4 rows
    draws_per_op = 100_000 + 100_000 + 20_000
    checks = ("regvol_tv", "fastregvol_tv", "leverage_marginals")

    def setup(self, work: Path, seed: int) -> dict:
        return {}

    def argv(self, ctx: dict, op_seed: int, report: Path) -> list[str]:
        return ["verify", "--suite", "distribution", "--seed", str(op_seed),
                "--json", str(report)]

    def check(self, ctx: dict, report) -> list[str]:
        problems = _error_problem(report)
        if problems:
            return problems
        rows = report["results"].get("checks")
        if not isinstance(rows, list):
            return ["report has no check rows"]
        names = tuple(row.get("check") for row in rows)
        if names != self.checks:
            problems.append(f"expected checks {self.checks}, got {names}")
        problems += [f"check {row.get('check')} failed: {row}"
                     for row in rows if row.get("pass") is not True]
        if report["results"].get("failures") != 0:
            problems.append(f"failures={report['results'].get('failures')!r}")
        return problems


WORKLOADS = {
    "sample_100k": SampleWorkload,
    "regress_ridge_10k": RegressWorkload,
    "verify_distribution": VerifyWorkload,
}
