"""Benchmark of the volsample CLI: one workload, closed loop, checked outputs.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sample_100k --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One caller runs one CLI operation ("op") at a time, each a call of
``volsample.cli.main(argv)`` in this process with a new seed drawn from the
workload seed, until ``--seconds`` have passed.  The op in flight at the
deadline is finished and counted, so a run times at least one op and lasts
longer than ``--seconds`` by up to one op (one op pair with ``--trace 1``):
a ``verify_distribution`` op takes about 40 s, so its runs time a single
op and its ``op_p50_s`` is that op's time.  Every op's JSON report is
checked (see workloads.py); an op fails on a nonzero exit, an exception, a
JSON error or a failed check.

With ``--trace 0`` the last line of stdout is a JSON object whose metrics
are the end-to-end metrics of BENCHMARK.json.  Their times are reference
seconds: wall time scaled by the host's speed, sampled during the op or
set-up by a fixed kernel (see probe.py); the raw wall times are printed
and saved beside them.  With ``--trace 1`` every op seed runs twice,
untraced then traced (see tracing.py), without the probe; the metrics are
the per-layer metrics, per traced op, plus the tracing overhead in wall
time.  A results file with the machine description and every op time, and
in traced runs the spans, go to perfbench/_work/.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread in this process before numpy loads its BLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from probe import SpeedProbe  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "_work"
SETUP_REPS = 5
IMPORT_PROBE = ("import time; t = time.perf_counter(); import volsample.cli; "
                "print(time.perf_counter() - t)")


def import_seconds() -> float:
    """Time ``import volsample.cli`` (numpy and scipy included) in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def run_op(cli, workload, ctx, op_seed: int, report_path: Path,
           probe: SpeedProbe | None = None) -> dict:
    """Run one CLI op in-process, time it, and check its report.

    ``seconds`` is the op's wall time, or with a probe its reference time.
    """
    argv = workload.argv(ctx, op_seed, report_path)
    report_path.unlink(missing_ok=True)
    sink = io.StringIO()
    error = None
    with probe.sampling() if probe else contextlib.nullcontext():
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback from the program counts as a failed op
            rc, error = None, traceback.format_exc(limit=3)
        wall_s = perf_counter() - t0
    seconds = probe.reference_seconds(wall_s) if probe else wall_s
    problems = [error] if error else []
    if rc != 0 and error is None:
        problems.append(f"exit code {rc}")
    if rc == 0:
        try:
            report = json.loads(report_path.read_text())
        except (OSError, ValueError) as exc:
            report = None
            problems.append(f"unreadable report: {exc}")
        problems += workload.check(ctx, report)
    return {"seed": op_seed, "seconds": seconds, "wall_s": wall_s,
            "ok": not problems, "problems": problems}


def machine() -> dict:
    info = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor(),
        "blas_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS",
                                                    "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu_model"] = next(line.split(":", 1)[1].strip() for line in fh
                                     if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        import scipy
        info["scipy"] = scipy.__version__
        info["scipy_blas"] = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except (ImportError, KeyError, TypeError):
        pass
    try:
        info["numpy_blas"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except (KeyError, TypeError):
        pass
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "libscipy_openblas*"))
    if libs:
        try:
            get = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_
            get.restype = ctypes.c_int
            info["numpy_blas_threads"] = get()
        except (OSError, AttributeError):
            pass
    return info


def metric_units(kind: str) -> dict[str, str]:
    """Units of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def run_workload(name: str, seed: int, seconds: float, trace: bool, info: dict) -> dict:
    workload = WORKLOADS[name]()
    WORK.mkdir(parents=True, exist_ok=True)
    tag = f"{name}-seed{seed}-trace{int(trace)}-pid{os.getpid()}"

    # Set-up: package import in a fresh interpreter plus input generation,
    # repeated so that the reported median is steady.
    probe = None if trace else SpeedProbe()
    setups, setup_walls, imports = [], [], []
    for _ in range(SETUP_REPS):
        with probe.sampling() if probe else contextlib.nullcontext():
            t_import = import_seconds()
            t0 = perf_counter()
            ctx = workload.setup(WORK, seed)
            wall_s = t_import + perf_counter() - t0
        setups.append(probe.reference_seconds(wall_s) if probe else wall_s)
        setup_walls.append(wall_s)
        imports.append(t_import)
    sys.path.insert(0, str(SRC))
    import volsample.cli as cli

    op_seeds = np.random.default_rng([seed, 1])
    report_path = WORK / f"report-{tag}.json"
    tracer = Tracer() if trace else None
    untraced, traced = [], []
    gc.collect()
    deadline = perf_counter() + seconds
    while True:  # the op in flight at the deadline still counts
        op_seed = int(op_seeds.integers(2**31))
        untraced.append(run_op(cli, workload, ctx, op_seed, report_path, probe))
        gc.collect()
        if tracer is not None:
            with tracer.installed(op_id=len(traced)):
                traced.append(run_op(cli, workload, ctx, op_seed, report_path))
            gc.collect()
        if perf_counter() >= deadline:
            break
    report_path.unlink(missing_ok=True)

    ops = untraced + traced
    failed = sum(not op["ok"] for op in ops)
    times = [op["seconds"] for op in untraced]
    drawn = workload.draws_per_op * sum(op["ok"] for op in untraced)
    end_to_end = {
        "op_p50_s": statistics.median(times),
        "draws_per_s": drawn / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_share": (len(ops) - failed) / len(ops),
        "setup_s": statistics.median(setups),
    }
    wall = {"op_p50_s": statistics.median(op["wall_s"] for op in untraced),
            "setup_s": statistics.median(setup_walls)}
    if tracer is None:
        values, units = end_to_end, metric_units("end_to_end")
    else:
        values, units = tracer.layer_metrics(), metric_units("per_layer")
        traced_p50 = statistics.median(op["seconds"] for op in traced)
        values["trace.op_p50_s"] = traced_p50
        values["trace.untraced_op_p50_s"] = end_to_end["op_p50_s"]
        values["trace.overhead"] = traced_p50 / end_to_end["op_p50_s"] - 1.0
        tracer.save(WORK / f"spans-{tag}.npz")
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}

    results = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": info, "import_s": imports, "setup_s": setups,
        "setup_wall_s": setup_walls, "ops": ops, "end_to_end": end_to_end,
        "wall": wall, "metrics": metrics,
    }
    (WORK / f"results-{tag}.json").write_text(json.dumps(results, indent=1) + "\n")
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed,
            "metrics": metrics, "wall": wall}


def print_summary(name: str, result: dict) -> None:
    n_ops, failed = result["attempted"], result["failed"]
    print(f"[{name}] ops={n_ops} failed={failed} "
          f"fail_share={failed / n_ops:.4g} correct={result['correct']}")
    for key, m in result["metrics"].items():
        print(f"[{name}] {key} = {m['value']:.6g} {m['unit']}")
    for key, value in result["wall"].items():
        print(f"[{name}] wall {key} = {value:.6g} s")


def run_all(args) -> int:
    """Run every workload in its own process, so each has its own peak RSS."""
    combined = {}
    for name in WORKLOADS:
        out = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            print(f"workload {name} exited with {out.returncode}", file=sys.stderr)
            return out.returncode
        sys.stdout.write("".join(out.stdout.splitlines(keepends=True)[:-1]))
        combined[name] = json.loads(out.stdout.strip().splitlines()[-1])
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "volsample" / "cli.py").is_file():
        print(f"no volsample sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    info = machine()
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), info)
    print(json.dumps({"machine": info}))
    print_summary(args.workload, result)
    del result["wall"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
