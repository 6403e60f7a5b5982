"""Acceptance suite: one test per release criterion, at stated tolerances.

Each test prints a single PASS line with its headline numbers (visible with
``pytest -rA`` or ``-s``).  Tolerances are fixed here, not tuned elsewhere.
"""

import itertools
import math
import time

import numpy as np
import pytest

from volsample import (fixtures, linalg, oracle, regression, sampling)
from volsample.regression import NoiseModel, RegressionProblem

EQUALITY_IDENTITIES = ("PSEUDOINV_UNBIASED", "COV_INVERSE", "FROBENIUS",
                       "COVARIANCE", "MARGINALS", "COMPOSITION", "CAUCHY_BINET")
REL_TOL = 1e-9
PSD_TOL = -1e-9


def _report(line):
    print(line)


def test_criterion_01_exact_identity_suite():
    """Every expectation identity holds exactly on seeded Gaussian designs."""
    t0 = time.perf_counter()
    worst = 0.0
    checks = 0
    for n in (6, 8, 10):
        for d in (1, 2, 3):
            rng = np.random.default_rng(1000 * n + d)
            X = rng.standard_normal((n, d))
            y = rng.standard_normal(n)
            for s in range(d, n + 1):
                dist = oracle.exact_distribution(X, s)
                for name in EQUALITY_IDENTITIES:
                    rep = oracle.verify_identity(name, X, y, s=s, dist=dist)
                    assert rep.max_rel_dev <= REL_TOL, (name, n, d, s,
                                                        rep.max_rel_dev)
                    worst = max(worst, rep.max_rel_dev)
                    checks += 1
            for name in ("PROJ_SQUARE", "LOSS_FACTOR"):
                rep = oracle.verify_identity(name, X, y, s=d)
                assert rep.max_rel_dev <= REL_TOL, (name, n, d, rep.max_rel_dev)
                worst = max(worst, rep.max_rel_dev)
                checks += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"identity suite took {elapsed:.1f}s"
    _report(f"CRITERION 1 PASS: {checks} identity checks, "
            f"worst rel dev {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_minimal_example_exact_values():
    """Hand-computable 3x2 fixtures: probabilities, solutions, losses."""
    p = fixtures.degenerate_problem()
    dist = oracle.exact_distribution(p.X, 2)
    assert dist.prob((0, 1)) == 0.0
    assert dist.prob((1, 2)) == pytest.approx(0.5, abs=1e-12)
    assert dist.prob((0, 2)) == pytest.approx(0.5, abs=1e-12)

    w_star = regression.solve_full(p)
    np.testing.assert_allclose(w_star.w, [0.0, 0.5], atol=1e-12)
    assert regression.total_loss(p, w_star) == pytest.approx(0.5, abs=1e-12)

    rep = oracle.verify_identity("LOSS_FACTOR", p.X, p.y, s=2, equality=False)
    assert rep.lhs == pytest.approx(1.0, abs=1e-12)
    assert rep.lhs < 1.5  # strict gap on the degenerate design

    pp = fixtures.perturbed_problem(0.1)
    table = oracle.subset_logdet_table(pp.X, [2])
    dets = {S: math.exp(ld) for S, ld in table.items()}
    assert dets[(0, 1)] == pytest.approx(0.01, rel=1e-9)
    assert dets[(1, 2)] == pytest.approx(1.0, rel=1e-9)
    assert dets[(0, 2)] == pytest.approx(1.21, rel=1e-9)
    for S, expected in (((0, 1), 100.0), ((1, 2), 1.0), ((0, 2), 1 / 1.21)):
        est = regression.solve_subproblem(pp, list(S))
        assert regression.total_loss(pp, est) == pytest.approx(expected, rel=1e-9)
    opt = regression.total_loss(pp, regression.solve_full(pp))
    assert opt == pytest.approx(1 / 2.22, rel=1e-9)
    rep = oracle.verify_identity("LOSS_FACTOR", pp.X, pp.y, s=2)
    assert rep.lhs == pytest.approx(3 / 2.22, rel=1e-9)
    assert rep.max_rel_dev <= REL_TOL
    _report("CRITERION 2 PASS: degenerate E[loss]=1 < 3/2; perturbed "
            f"E[loss]={rep.lhs:.6f} = 3*optimum")


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_criterion_03_simplex_attains_factor_everywhere(d):
    """Centered-simplex corners: every size-d subset hits (d+1) x optimum."""
    p = fixtures.centered_simplex_problem(d, response=1.0)
    opt = regression.total_loss(p, regression.solve_full(p))
    for S in itertools.combinations(range(d + 1), d):
        loss = regression.total_loss(p, regression.solve_subproblem(p, list(S)))
        assert loss == pytest.approx((d + 1) * opt, rel=1e-9), (d, S)
    _report(f"CRITERION 3 PASS: d={d}, all {d + 1} subsets at "
            f"{(d + 1)}x optimum loss")


def test_criterion_04_sampler_conformance():
    """Both samplers reproduce the exact law and its marginals."""
    t0 = time.perf_counter()
    n, d = 8, 3
    X = fixtures.gaussian_matrix(n, d, seed=11)
    draws = 100_000
    summary = []
    for s in (d, d + 2):
        marg_exact = sampling.marginal_probabilities(X, s)
        se = np.sqrt(marg_exact * (1 - marg_exact) / draws)
        for alg in ("regvol", "fastregvol"):
            cfg = sampling.SamplerConfig(s=s, seed=977, algorithm=alg)
            rep = oracle.empirical_distribution_test(X, cfg, draws=draws)
            assert rep.tv_distance < 0.02, (alg, s, rep.tv_distance)
            assert rep.off_support_draws == 0
            z = np.abs(rep.index_marginals - marg_exact) / np.maximum(se, 1e-15)
            assert np.max(z) <= 4.0, (alg, s, float(np.max(z)))
            summary.append(f"{alg}/s={s}: tv={rep.tv_distance:.4f} "
                           f"maxz={np.max(z):.2f}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"conformance took {elapsed:.1f}s"
    _report(f"CRITERION 4 PASS: {'; '.join(summary)}; {elapsed:.0f}s")


def test_criterion_05_leave_one_out_identity():
    """Leave-one-out loss identity across 100 random problems."""
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(20_000 + seed)
        X = rng.standard_normal((10, 3))
        y = rng.standard_normal(10)
        i = int(rng.integers(10))
        p = RegressionProblem(X=X, y=y)
        rest = [j for j in range(10) if j != i]
        drop_loss = float(np.sum(
            (X @ regression.solve_subproblem(p, rest).w - y) ** 2))
        rel = regression.loo_identity_residual(p, i) / max(drop_loss, 1e-300)
        worst = max(worst, rel)
        assert rel <= 1e-9, (seed, rel)
    _report(f"CRITERION 5 PASS: 100 triples, worst relative residual {worst:.2e}")


def test_criterion_06_regularized_inverse_bound():
    """Expected regularized inverse is PSD-dominated at every valid size."""
    X = fixtures.gaussian_matrix(8, 3, seed=11)
    worst = math.inf
    checks = 0
    for lam in (0.01, 0.1, 1.0):
        dl = oracle.d_lambda(X, lam)
        for s in range(math.ceil(dl), 9):
            rep = oracle.verify_identity("REG_INVERSE_BOUND", X, s=s, lam=lam)
            assert rep.psd_margin >= PSD_TOL, (lam, s, rep.psd_margin)
            worst = min(worst, rep.psd_margin)
            checks += 1
    _report(f"CRITERION 6 PASS: {checks} (lambda, s) pairs, "
            f"min psd margin {worst:.2e}")


def test_criterion_07_ridge_error_bounds_monte_carlo():
    """Prediction/parameter error of the subsampled ridge estimator."""
    t0 = time.perf_counter()
    n, d, sigma = 60, 5, 1.0
    rng = np.random.default_rng(31)
    X = rng.standard_normal((n, d))
    w_true = rng.standard_normal(d)
    lam = sigma**2 / float(w_true @ w_true)
    model = NoiseModel(w_true=w_true, sigma=sigma)
    dl = oracle.d_lambda(X, lam)
    trace_inv = float(np.trace(linalg.inv_spd(linalg.gram(X, lam))))
    replicates = 2000
    lines = []
    for s in sorted({math.ceil(dl), d, 2 * d}):
        children = np.random.SeedSequence(500 + s).spawn(replicates)
        mspes = np.empty(replicates)
        mses = np.empty(replicates)
        for r, child in enumerate(children):
            rr = np.random.default_rng(child)
            prob = regression.generate_noisy_problem(X, model, rr)
            cfg = sampling.SamplerConfig(s=s, lam=lam, algorithm="fastregvol")
            smp = sampling.fast_reg_vol_sample(X, cfg, rr)
            est = regression.solve_subproblem(prob, smp, lam)
            mspes[r] = regression.mspe(prob, est, model)
            mses[r] = regression.mse(est, model)
        mspe_bound = sigma**2 * dl / (s - dl + 1)
        mse_bound = sigma**2 * n * trace_inv / (s - dl + 1)
        se_p = mspes.std(ddof=1) / math.sqrt(replicates)
        se_m = mses.std(ddof=1) / math.sqrt(replicates)
        assert mspes.mean() <= mspe_bound + 3 * se_p, (s, mspes.mean(), mspe_bound)
        assert mses.mean() <= mse_bound + 3 * se_m, (s, mses.mean(), mse_bound)
        lines.append(f"s={s}: mspe {mspes.mean():.3f}<={mspe_bound:.3f}, "
                     f"mse {mses.mean():.3f}<={mse_bound:.3f}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"bound check took {elapsed:.1f}s"
    _report(f"CRITERION 7 PASS: {'; '.join(lines)}; {elapsed:.0f}s")


@pytest.mark.parametrize("k", [5, 20])
def test_criterion_08_averaged_estimator_loss(k):
    """Averaging k independent subsets shrinks the loss factor to 1 + d/k."""
    rng = np.random.default_rng(7)
    X = rng.standard_normal((12, 2))
    y = rng.standard_normal(12)
    p = RegressionProblem(X=X, y=y)
    d = 2
    opt = regression.total_loss(p, regression.solve_full(p))
    target = (1 + d / k) * opt
    trials = 2000
    base = sampling.init_downdate_state(X, 0.0)
    losses = np.empty(trials)
    children = np.random.SeedSequence(60 + k).spawn(trials)
    for t, child in enumerate(children):
        rr = np.random.default_rng(child)
        cfg = sampling.SamplerConfig(s=d, seed=0)
        samples = [sampling.reg_vol_sample(X, cfg, rr, _state=base.copy())
                   for _ in range(k)]
        avg = regression.averaged_estimator(p, samples)
        losses[t] = regression.total_loss(p, avg)
    se = losses.std(ddof=1) / math.sqrt(trials)
    assert abs(losses.mean() - target) <= 3 * se, (losses.mean(), target, se)
    _report(f"CRITERION 8 PASS: k={k}, mean loss {losses.mean():.4f} vs "
            f"target {target:.4f} (se {se:.4f})")


@pytest.mark.parametrize("n", [100, 1000])
def test_criterion_09_rejection_trial_count(n):
    """Mean rejection trials stay within twice the row count."""
    d = 5
    X = fixtures.gaussian_matrix(n, d, seed=n)
    runs = 200
    base = sampling.init_downdate_state(X, 0.0)
    trials = np.empty(runs)
    children = np.random.SeedSequence(9000 + n).spawn(runs)
    for r, child in enumerate(children):
        cfg = sampling.SamplerConfig(s=d, seed=0, algorithm="fastregvol")
        smp = sampling.fast_reg_vol_sample(X, cfg, np.random.default_rng(child),
                                           _state=base.copy())
        trials[r] = smp.rejection_trials
    se = trials.std(ddof=1) / math.sqrt(runs)
    assert trials.mean() <= 2 * n + 3 * se, (trials.mean(), 2 * n)
    _report(f"CRITERION 9 PASS: n={n}, mean trials {trials.mean():.1f} "
            f"<= {2 * n} (+3se)")


def test_criterion_10_runtime_scaling():
    """Fast sampler scales near-linearly; weighted sampler falls behind."""
    d = s = 10
    sizes = [1000, 2000, 4000, 8000, 16000, 32000]
    medians = {"regvol": [], "fastregvol": []}
    for n in sizes:
        X = fixtures.gaussian_matrix(n, d, seed=n)
        # interleave the two samplers so ambient timing drift cancels in
        # the ratio; median of 5 repetitions after one warm-up each
        reps = {alg: [] for alg in medians}
        for alg in medians:
            sampling.sample(X, sampling.SamplerConfig(s=s, seed=1, algorithm=alg))
        for r in range(5):
            for alg in medians:
                t0 = time.perf_counter()
                sampling.sample(X, sampling.SamplerConfig(s=s, seed=r + 2,
                                                          algorithm=alg))
                reps[alg].append(time.perf_counter() - t0)
        for alg in medians:
            medians[alg].append(float(np.median(reps[alg])))
    logn = np.log(np.asarray(sizes, dtype=float))
    slope = float(np.polyfit(logn, np.log(medians["fastregvol"]), 1)[0])
    assert slope <= 1.25, f"fastregvol log-log slope {slope:.3f}"
    ratios = [r / f for r, f in zip(medians["regvol"], medians["fastregvol"])]
    for a, b in zip(ratios, ratios[1:]):
        assert b >= a, f"ratio sequence not nondecreasing: {ratios}"
    _report(f"CRITERION 10 PASS: fast slope {slope:.3f} <= 1.25, ratios "
            + " ".join(f"{r:.1f}" for r in ratios))


def test_criterion_11_volume_beats_leverage_on_block_design():
    """Joint sampling wins the subset-selection contest on stacked identities."""
    n, d, sigma, a = 50, 5, 1.0, 1.0
    s = d
    X = fixtures.block_identity(n, d)
    w_true = np.full(d, a * sigma)
    lam = sigma**2 / float(w_true @ w_true)
    model = NoiseModel(w_true=w_true, sigma=sigma)
    replicates = 1000
    losses = {"volume": np.empty(replicates), "leverage": np.empty(replicates)}
    children = np.random.SeedSequence(123).spawn(replicates)
    for r, child in enumerate(children):
        rr = np.random.default_rng(child)
        prob = regression.generate_noisy_problem(X, model, rr)
        cfg = sampling.SamplerConfig(s=s, lam=lam, algorithm="fastregvol")
        vol = sampling.fast_reg_vol_sample(X, cfg, rr)
        lev = sampling.leverage_iid_sample(X, s, lam, rr)
        losses["volume"][r] = regression.total_loss(
            prob, regression.solve_subproblem(prob, vol, lam))
        losses["leverage"][r] = regression.total_loss(
            prob, regression.solve_subproblem(prob, lev, lam))
    means = {k: float(v.mean()) for k, v in losses.items()}
    ses = {k: float(v.std(ddof=1) / math.sqrt(replicates))
           for k, v in losses.items()}
    assert means["volume"] < means["leverage"], (means, ses)
    _report(f"CRITERION 11 PASS: volume {means['volume']:.3f}"
            f"+-{ses['volume']:.3f} < leverage {means['leverage']:.3f}"
            f"+-{ses['leverage']:.3f}")
