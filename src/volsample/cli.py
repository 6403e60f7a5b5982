"""Command-line front end.

Subcommands:

* ``sample``  -- draw one row subset from a dataset, print the indices
* ``regress`` -- subsampled (ridge) regression over replicate subsets
* ``verify``  -- exact-identity / distribution / bound verification suites
* ``bench``   -- wall-clock scaling of the samplers on synthetic data

Each run can write a JSON report (``--json``).  Reports are reproducible
given (input, flags, seed) except for the ``timings_ms`` block.  Errors
exit nonzero and emit ``{"error": {"code": ..., "message": ...}}``.
The ``VOLSAMPLE_SEED`` environment variable supplies the default seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import fixtures, linalg, oracle, regression, sampling
from .datasets import parse_dataset
from .errors import InvalidConfig, VolsampleError

EQUALITY_IDENTITIES = ("PSEUDOINV_UNBIASED", "COV_INVERSE", "FROBENIUS",
                       "COVARIANCE", "MARGINALS", "COMPOSITION", "CAUCHY_BINET")
# pass thresholds of the ``verify`` suites
THRESHOLDS = {
    "rel_dev": 1e-9,  # identities: largest relative deviation, at most
    "psd_margin": -1e-9,  # inequalities: least eigenvalue of rhs - lhs, at least
    "normalization_dev": 1e-8,  # weight-sum identity: largest deviation, at most
    "tv_distance": 0.02,  # volume samplers: TV to the exact law, below
    "marginal_se": 4,  # leverage marginals: standard errors off, at most
    "bound_se": 3,  # regression bounds: standard errors above the bound, at most
}


def _parse(text: str, convert, name: str):
    """``convert(text)``; a value it refuses is an InvalidConfig."""
    try:
        return convert(text)
    except ValueError:
        raise InvalidConfig(f"{name}: cannot parse {text!r}") from None


def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


def _emit(report: dict, args) -> None:
    text = json.dumps(_jsonify(report), indent=2, sort_keys=True)
    if getattr(args, "json", None):
        with open(args.json, "w") as fh:
            fh.write(text + "\n")


def _args_echo(args) -> dict:
    skip = {"func", "json"}
    return {k: v for k, v in vars(args).items() if k not in skip}


def _load_problem(args) -> regression.RegressionProblem:
    ds = parse_dataset(args.input, args.format)
    return ds.problem


def _draw(X, cfg: sampling.SamplerConfig, rng=None, dist=None) -> sampling.SubsetSample:
    """One sample; the ``oracle`` pseudo-algorithm draws from the exact law
    (``dist`` if the caller has built it)."""
    if cfg.algorithm == "oracle":
        return oracle.oracle_sample(X, cfg.s, cfg.lam, rng, seed=cfg.seed, dist=dist)
    return sampling.sample(X, cfg, rng)


def _dlambda_warning(X, s: int, lam: float) -> list[str]:
    if lam <= 0:
        return []
    dl = oracle.d_lambda(X, lam)
    if s < dl:
        return [f"s={s} is below the statistical dimension "
                f"d_lambda={dl:.3f}; the inverse-covariance bound needs "
                f"s >= d_lambda"]
    return []


def cmd_sample(args) -> dict:
    sampling.check_lam(args.lam)
    t0 = time.perf_counter()
    p = _load_problem(args)
    t1 = time.perf_counter()
    warnings = ([] if args.algorithm == "oracle"
                else _dlambda_warning(p.X, args.size, args.lam))
    cfg = sampling.SamplerConfig(s=args.size, lam=args.lam, seed=args.seed,
                                 algorithm=args.algorithm)
    smp = _draw(p.X, cfg)
    t2 = time.perf_counter()
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(" ".join(str(i) for i in smp.indices))
    return {
        "command": "sample",
        "args": _args_echo(args),
        "seed": args.seed,
        "results": {
            "indices": list(smp.indices),
            "algorithm": smp.algorithm,
            "multiset": smp.multiset,
            "rejection_trials": smp.rejection_trials,
            "n": p.n,
            "d": p.d,
            "lambda": args.lam,
        },
        "warnings": warnings,
        "timings_ms": {"parse": (t1 - t0) * 1e3, "sample": (t2 - t1) * 1e3},
    }


def cmd_regress(args) -> dict:
    if args.replicates < 1:
        raise InvalidConfig(f"--replicates must be at least 1, got {args.replicates}")
    if args.size < 1:
        raise InvalidConfig(f"--size must be at least 1, got {args.size}")
    t0 = time.perf_counter()
    p = _load_problem(args)
    t1 = time.perf_counter()
    algorithms = args.algorithm.split(",")
    lams = ([_parse(v, float, "--lambda-grid") for v in args.lambda_grid.split(",")]
            if args.lambda_grid else [args.lam])
    for lam in lams:
        sampling.check_lam(lam)
    k = args.replicates
    children = np.random.SeedSequence(args.seed).spawn(k)
    volume = ("regvol", "fastregvol")
    # the d_lambda warning concerns the volume samplers only: one per lambda
    dl_warnings = ({lam: _dlambda_warning(p.X, args.size, lam) for lam in lams}
                   if set(volume) & set(algorithms) else {})
    results = {}
    warnings = []
    for alg in algorithms:
        per_lam = {}
        for lam in lams:
            if alg in volume:
                warnings += [f"[{alg} lambda={lam}] {w}" for w in dl_warnings[lam]]
            cfg = sampling.SamplerConfig(s=args.size, lam=lam, algorithm=alg)
            # the exact law depends on (X, s, lam) only: one per replicate set
            dist = oracle.exact_distribution(p.X, args.size, lam) if alg == "oracle" else None
            losses = []
            samples = []
            for child in children:
                smp = _draw(p.X, cfg, np.random.default_rng(child), dist)
                samples.append(smp)
                est = regression.solve_subproblem(p, smp, lam)
                losses.append(regression.total_loss(p, est))
            losses = np.asarray(losses)
            se = float(losses.std(ddof=1) / math.sqrt(k)) if k > 1 else 0.0
            entry = {
                "replicates": k,
                "mean_total_loss": float(losses.mean()),
                "se_total_loss": se,
                "mean_loss_per_row": float(losses.mean() / p.n),
            }
            if args.average:
                avg = regression.averaged_estimator(p, samples, lam)
                entry["averaged_total_loss"] = regression.total_loss(p, avg)
            per_lam[str(lam)] = entry
        results[alg] = per_lam
    t2 = time.perf_counter()
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    for alg, per_lam in results.items():
        for lam, entry in per_lam.items():
            line = (f"{alg:11s} lambda={lam:8s} mean total loss = "
                    f"{entry['mean_total_loss']:.6g} +- {entry['se_total_loss']:.3g}")
            if "averaged_total_loss" in entry:
                line += f"  averaged-estimator loss = {entry['averaged_total_loss']:.6g}"
            print(line)
    return {
        "command": "regress",
        "args": _args_echo(args),
        "seed": args.seed,
        "results": results,
        "warnings": warnings,
        "timings_ms": {"parse": (t1 - t0) * 1e3, "run": (t2 - t1) * 1e3},
    }


def _verify_identities(seed: int):
    rows = []

    def record(name, rep, s, lam, fixture, passed):
        rows.append({
            "identity": name, "s": s, "lambda": lam, "fixture": fixture,
            "mode": rep.mode, "max_abs_dev": rep.max_abs_dev,
            "max_rel_dev": rep.max_rel_dev, "psd_margin": rep.psd_margin,
            "pass": bool(passed),
        })

    rng = np.random.default_rng(seed)
    X = rng.standard_normal((8, 2))
    y = rng.standard_normal(8)
    n, d = X.shape
    # one exact law per size, shared by the identities checked at that size
    laws = {s: oracle.exact_distribution(X, s) for s in range(d, n + 1)}
    for s, dist in laws.items():
        for name in EQUALITY_IDENTITIES:
            rep = oracle.verify_identity(name, X, y, s=s, dist=dist)
            record(name, rep, s, 0.0, "gaussian", rep.max_rel_dev <= THRESHOLDS["rel_dev"])
    for name in ("PROJ_SQUARE", "LOSS_FACTOR"):
        rep = oracle.verify_identity(name, X, y, s=d, dist=laws[d])
        record(name, rep, d, 0.0, "gaussian", rep.max_rel_dev <= THRESHOLDS["rel_dev"])

    dp = fixtures.degenerate_problem()
    dist = oracle.exact_distribution(dp.X, 2)
    for name in ("COV_INVERSE", "LOSS_FACTOR"):
        rep = oracle.verify_identity(name, dp.X, dp.y, s=2, equality=False, dist=dist)
        record(name, rep, 2, 0.0, "degenerate",
               rep.psd_margin is not None and rep.psd_margin >= THRESHOLDS["psd_margin"])

    X3 = np.random.default_rng(seed + 1).standard_normal((8, 3))
    for lam in (0.1, 1.0):
        dl = oracle.d_lambda(X3, lam)
        for s in range(math.ceil(dl), 9):
            rep = oracle.verify_identity("REG_INVERSE_BOUND", X3, s=s, lam=lam)
            record("REG_INVERSE_BOUND", rep, s, lam, "gaussian",
                   rep.psd_margin >= THRESHOLDS["psd_margin"])
    rep = oracle.verify_identity("NORMALIZATION", X3, s=3, lam=0.5)
    record("NORMALIZATION", rep, 3, 0.5, "gaussian",
           rep.max_abs_dev <= THRESHOLDS["normalization_dev"])
    return rows


def _verify_distribution(seed: int):
    rows = []
    X = np.random.default_rng(seed).standard_normal((8, 3))
    for alg in ("regvol", "fastregvol"):
        cfg = sampling.SamplerConfig(s=3, seed=seed, algorithm=alg)
        rep = oracle.empirical_distribution_test(X, cfg, draws=100_000)
        rows.append({
            "check": f"{alg}_tv", "tv_distance": rep.tv_distance,
            "chi_square": rep.chi_square, "dof": rep.dof,
            "off_support_draws": rep.off_support_draws,
            "pass": bool(rep.tv_distance < THRESHOLDS["tv_distance"]
                         and rep.off_support_draws == 0),
        })
    cfg = sampling.SamplerConfig(s=4, seed=seed, algorithm="leverage")
    rep = oracle.empirical_distribution_test(X, cfg, draws=20_000)
    scores = linalg.leverage_scores(X)
    p = scores / scores.sum()
    draws_total = 4 * 20_000
    se = np.sqrt(p * (1 - p) / draws_total)
    ok = bool(np.all(np.abs(rep.index_marginals - p) <= THRESHOLDS["marginal_se"] * se))
    rows.append({"check": "leverage_marginals", "tv_distance": rep.tv_distance,
                 "max_se_units": float(np.max(np.abs(rep.index_marginals - p) / se)),
                 "pass": ok})
    return rows


def _verify_regression_bounds(seed: int):
    rows = []
    rng = np.random.default_rng(seed)
    n, d, sigma = 60, 5, 1.0
    X = rng.standard_normal((n, d))
    w_true = rng.standard_normal(d)
    lam = sigma**2 / float(w_true @ w_true)
    model = regression.NoiseModel(w_true=w_true, sigma=sigma)
    dl = oracle.d_lambda(X, lam)
    replicates = 2000
    children = np.random.SeedSequence(seed).spawn(replicates)
    for s in (math.ceil(dl), 2 * d):
        mspes, mses = [], []
        for child in children:
            r = np.random.default_rng(child)
            prob = regression.generate_noisy_problem(X, model, r)
            cfg = sampling.SamplerConfig(s=s, lam=lam, algorithm="fastregvol")
            smp = sampling.fast_reg_vol_sample(X, cfg, r)
            est = regression.solve_subproblem(prob, smp, lam)
            mspes.append(regression.mspe(prob, est, model))
            mses.append(regression.mse(est, model))
        mspes, mses = np.asarray(mspes), np.asarray(mses)
        mspe_bound = sigma**2 * dl / (s - dl + 1)
        mse_bound = sigma**2 * n * np.trace(linalg.inv_spd(linalg.gram(X, lam))) / (s - dl + 1)
        se_p = mspes.std(ddof=1) / math.sqrt(replicates)
        se_m = mses.std(ddof=1) / math.sqrt(replicates)
        rows.append({
            "check": f"mspe_bound_s{s}", "estimate": float(mspes.mean()),
            "bound": float(mspe_bound), "se": float(se_p),
            "pass": bool(mspes.mean() <= mspe_bound + THRESHOLDS["bound_se"] * se_p),
        })
        rows.append({
            "check": f"mse_bound_s{s}", "estimate": float(mses.mean()),
            "bound": float(mse_bound), "se": float(se_m),
            "pass": bool(mses.mean() <= mse_bound + THRESHOLDS["bound_se"] * se_m),
        })
    return rows


def cmd_verify(args) -> dict:
    t0 = time.perf_counter()
    suite = {
        "identities": _verify_identities,
        "distribution": _verify_distribution,
        "regression-bounds": _verify_regression_bounds,
    }[args.suite]
    rows = suite(args.seed)
    t1 = time.perf_counter()
    for row in rows:
        status = "PASS" if row["pass"] else "FAIL"
        label = row.get("identity") or row.get("check")
        metric = row.get("max_rel_dev", row.get("tv_distance", row.get("estimate")))
        print(f"{status} {label:22s} {metric!r}")
    n_fail = sum(1 for r in rows if not r["pass"])
    print(f"{len(rows) - n_fail}/{len(rows)} checks passed")
    return {
        "command": "verify",
        "args": _args_echo(args),
        "seed": args.seed,
        "results": {"checks": rows, "failures": n_fail},
        "timings_ms": {"run": (t1 - t0) * 1e3},
    }


def _bench_once(alg: str, X, s: int, seed: int) -> float:
    cfg = sampling.SamplerConfig(s=s, seed=seed, algorithm=alg)
    t0 = time.perf_counter()
    sampling.sample(X, cfg)
    return (time.perf_counter() - t0) * 1e3


def cmd_bench(args) -> dict:
    if args.reps < 1:
        raise InvalidConfig(f"--reps must be at least 1, got {args.reps}")
    if args.d < 1:
        raise InvalidConfig(f"--d must be at least 1, got {args.d}")
    sizes = [_parse(v, int, "--sizes") for v in args.sizes.split(",")]
    if min(sizes) < 1:
        raise InvalidConfig(f"--sizes must be at least 1, got {args.sizes!r}")
    if len(set(sizes)) < 2:
        raise InvalidConfig(
            f"--sizes needs two distinct sizes to fit a slope, got {args.sizes!r}")
    algorithms = args.algorithm.split(",")
    t0 = time.perf_counter()
    results = {}
    for alg in algorithms:
        times = {}
        for n in sizes:
            if args.s > n:
                raise InvalidConfig(f"s={args.s} exceeds n={n}")
            X = fixtures.gaussian_matrix(n, args.d, seed=args.seed + n)
            _bench_once(alg, X, args.s, args.seed)  # warm-up
            reps = [_bench_once(alg, X, args.s, args.seed + r + 1)
                    for r in range(args.reps)]
            times[n] = float(np.median(reps))
        logn = np.log(np.asarray(sizes, dtype=float))
        logt = np.log(np.asarray([times[n] for n in sizes]))
        slope = float(np.polyfit(logn, logt, 1)[0])
        results[alg] = {"times_ms": {str(n): times[n] for n in sizes},
                        "loglog_slope": slope}
        for n in sizes:
            print(f"{alg:11s} n={n:7d}  {times[n]:10.2f} ms")
        print(f"{alg:11s} log-log slope = {slope:.3f}")
    if {"regvol", "fastregvol"} <= set(algorithms):
        ratio = {str(n): results["regvol"]["times_ms"][str(n)]
                 / results["fastregvol"]["times_ms"][str(n)] for n in sizes}
        results["ratio_regvol_over_fastregvol"] = ratio
        print("ratio regvol/fastregvol:",
              " ".join(f"{ratio[str(n)]:.2f}" for n in sizes))
    t1 = time.perf_counter()
    return {
        "command": "bench",
        "args": _args_echo(args),
        "seed": args.seed,
        "results": results,
        "timings_ms": {"run": (t1 - t0) * 1e3},
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="volsample",
        description="Volume-sampling row subsets for linear regression")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed (default: $VOLSAMPLE_SEED or 0)")
        p.add_argument("--json", type=str, default=None,
                       help="write a JSON report to this path")

    def add_data(p):
        p.add_argument("--input", required=True, help="dataset file")
        p.add_argument("--format", choices=("csv", "libsvm"), default="csv")
        p.add_argument("--size", type=int, required=True, help="subset size s")
        p.add_argument("--lambda", dest="lam", type=float, default=0.0)

    p_sample = sub.add_parser("sample", help="draw one subset")
    add_data(p_sample)
    p_sample.add_argument("--algorithm", default="regvol",
                          choices=sampling.ALGORITHMS + ("oracle",))
    add_common(p_sample)
    p_sample.set_defaults(func=cmd_sample)

    p_regress = sub.add_parser("regress", help="subsampled regression")
    add_data(p_regress)
    p_regress.add_argument("--algorithm", default="regvol",
                           help="comma-separated list: regvol,fastregvol,leverage")
    p_regress.add_argument("--replicates", type=int, default=1)
    p_regress.add_argument("--average", action="store_true",
                           help="also report the loss of the averaged estimator")
    p_regress.add_argument("--lambda-grid", dest="lambda_grid", default=None,
                           help="comma-separated ridge values to sweep")
    add_common(p_regress)
    p_regress.set_defaults(func=cmd_regress)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", required=True,
                          choices=("identities", "distribution", "regression-bounds"))
    add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser("bench", help="sampler scaling benchmark")
    p_bench.add_argument("--algorithm", default="fastregvol",
                         help="comma-separated list of samplers")
    p_bench.add_argument("--sizes", required=True,
                         help="comma-separated row counts, e.g. 1000,2000,4000")
    p_bench.add_argument("--d", type=int, default=10)
    p_bench.add_argument("--s", type=int, default=10)
    p_bench.add_argument("--reps", type=int, default=5,
                         help="timed repetitions (median reported)")
    add_common(p_bench)
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed is None:  # read here, so a bad value is a JSON error
            args.seed = _parse(os.environ.get("VOLSAMPLE_SEED", "0"), int,
                               "VOLSAMPLE_SEED")
        sampling.check_seed(args.seed)
        report = args.func(args)
    except VolsampleError as exc:
        err = {"error": {"code": exc.code, "message": str(exc)}}
        print(json.dumps(err, indent=2, sort_keys=True))
        if getattr(args, "json", None):
            with open(args.json, "w") as fh:
                json.dump(err, fh, indent=2, sort_keys=True)
                fh.write("\n")
        return 2
    _emit(report, args)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
