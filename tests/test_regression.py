import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from volsample import fixtures, linalg, oracle, regression, sampling
from volsample.errors import RankDeficientSubset
from volsample.regression import NoiseModel, RegressionProblem


class TestSolveSubproblem:
    def test_degenerate_pair_solutions(self, degenerate):
        assert regression.solve_subproblem(degenerate, [1, 2]).w == pytest.approx([0.0, 0.0])
        assert regression.solve_subproblem(degenerate, [0, 2]).w == pytest.approx([0.0, 1.0])

    def test_full_problem_optimum(self, degenerate):
        est = regression.solve_full(degenerate)
        np.testing.assert_allclose(est.w, [0.0, 0.5], atol=1e-12)

    def test_consistent_system_recovers_weights(self):
        X = fixtures.gaussian_matrix(9, 3, seed=2)
        w0 = np.array([1.0, -2.0, 0.5])
        p = RegressionProblem(X=X, y=X @ w0)
        for S in ([0, 1, 2], [3, 5, 7, 8], list(range(9))):
            np.testing.assert_allclose(regression.solve_subproblem(p, S).w, w0,
                                       atol=1e-9)

    def test_rank_deficient_raises(self, degenerate):
        with pytest.raises(RankDeficientSubset):
            regression.solve_subproblem(degenerate, [0, 1])

    def test_ridge_handles_rank_deficiency(self, degenerate):
        est = regression.solve_subproblem(degenerate, [0, 1], lam=0.5)
        assert np.all(np.isfinite(est.w))

    def test_ridge_matches_normal_equations(self, degenerate):
        lam = 0.7
        est = regression.solve_full(degenerate, lam)
        direct = np.linalg.solve(degenerate.X.T @ degenerate.X + lam * np.eye(2),
                                 degenerate.X.T @ degenerate.y)
        np.testing.assert_allclose(est.w, direct, atol=1e-12)

    def test_ill_conditioned_subset_solves(self):
        # near-duplicate rows: Gram condition above 1e12 but still factorizable
        X = np.array([[1.0, 1.0 + 3e-6], [1.0, 1.0], [1.0, 0.0]])
        p = RegressionProblem(X=X, y=np.array([1.0, 0.0, 0.0]))
        est = regression.solve_subproblem(p, [0, 1])
        assert np.linalg.cond(X[:2].T @ X[:2]) > 1e12
        assert np.all(np.isfinite(est.w))

    def test_importance_weighted_multiset(self, degenerate):
        smp = sampling.SubsetSample(indices=(0, 2, 2), s=3,
                                    algorithm="leverage", multiset=True,
                                    importance_weights=(1.0, 0.5, 0.5))
        est = regression.solve_subproblem(degenerate, smp)
        W = np.diag([1.0, 0.5, 0.5])
        Xs = W @ degenerate.X[[0, 2, 2]]
        ys = W @ degenerate.y[[0, 2, 2]]
        direct = np.linalg.lstsq(Xs, ys, rcond=None)[0]
        np.testing.assert_allclose(est.w, direct, atol=1e-9)


class TestTotalLoss:
    def test_optimum_loss(self, degenerate):
        est = regression.solve_full(degenerate)
        assert regression.total_loss(degenerate, est) == pytest.approx(0.5, abs=1e-12)

    def test_zero_weights_loss(self, degenerate):
        est = regression.Estimator(w=np.zeros(2), lam=0.0)
        assert regression.total_loss(degenerate, est) == pytest.approx(1.0)

    def test_perturbed_optimum(self):
        for eps in (0.1, 0.01):
            p = fixtures.perturbed_problem(eps)
            est = regression.solve_full(p)
            expected = 1.0 / (2 * (1 + eps + eps**2))
            assert regression.total_loss(p, est) == pytest.approx(expected, rel=1e-9)

    def test_perturbed_subset_losses(self, perturbed):
        for S, expected in (([0, 1], 100.0), ([1, 2], 1.0), ([0, 2], 1 / 1.21)):
            est = regression.solve_subproblem(perturbed, S)
            assert regression.total_loss(perturbed, est) == pytest.approx(
                expected, rel=1e-9)


class TestLeaveOneOut:
    def test_consistent_system_zero_residual(self):
        X = fixtures.gaussian_matrix(10, 3, seed=4)
        p = RegressionProblem(X=X, y=X @ np.array([1.0, 2.0, 3.0]))
        assert regression.loo_identity_residual(p, 4) == pytest.approx(0.0, abs=1e-12)

    def test_zero_row_is_uninformative(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((8, 2))
        X[3] = 0.0
        p = RegressionProblem(X=X, y=rng.standard_normal(8))
        assert regression.loo_identity_residual(p, 3) == pytest.approx(0.0, abs=1e-12)

    @given(st.integers(0, 1000))
    def test_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((10, 3))
        y = rng.standard_normal(10)
        i = int(rng.integers(10))
        p = RegressionProblem(X=X, y=y)
        rest = [j for j in range(10) if j != i]
        drop_loss = float(np.sum(
            (X @ regression.solve_subproblem(p, rest).w - y) ** 2))
        assert regression.loo_identity_residual(p, i) <= 1e-9 * max(drop_loss, 1e-30)


class TestAveraging:
    def test_single_sample_is_plain_solve(self, degenerate):
        smp = sampling.reg_vol_sample(degenerate.X, sampling.SamplerConfig(s=2, seed=3))
        avg = regression.averaged_estimator(degenerate, [smp])
        est = regression.solve_subproblem(degenerate, smp)
        np.testing.assert_array_equal(avg.w, est.w)

    def test_repeated_sample_collapses(self, degenerate):
        smp = sampling.reg_vol_sample(degenerate.X, sampling.SamplerConfig(s=2, seed=3))
        avg = regression.averaged_estimator(degenerate, [smp] * 7)
        est = regression.solve_subproblem(degenerate, smp)
        np.testing.assert_allclose(avg.w, est.w, atol=1e-15)


class TestExactExpectations:
    """Enumeration-backed expectations of the subsampled estimator."""

    def test_unbiasedness_every_size(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((6, 2))
        y = rng.standard_normal(6)
        p = RegressionProblem(X=X, y=y)
        w_star = regression.solve_full(p).w
        for s in range(2, 7):
            dist = oracle.exact_distribution(X, s)
            mean_w = sum(pr * regression.solve_subproblem(p, list(S)).w
                         for S, pr in dist.items())
            np.testing.assert_allclose(mean_w, w_star, atol=1e-10)

    def test_variance_decomposition(self):
        # E[L(w(S))] - L(w*) equals the expected squared prediction gap
        rng = np.random.default_rng(15)
        X = rng.standard_normal((7, 2))
        y = rng.standard_normal(7)
        p = RegressionProblem(X=X, y=y)
        w_star = regression.solve_full(p).w
        y_hat = X @ w_star
        opt = regression.total_loss(p, regression.solve_full(p))
        for s in range(2, 8):
            dist = oracle.exact_distribution(X, s)
            e_loss, e_gap = 0.0, 0.0
            for S, pr in dist.items():
                w = regression.solve_subproblem(p, list(S)).w
                e_loss += pr * float(np.sum((X @ w - y) ** 2))
                e_gap += pr * float(np.sum((X @ w - y_hat) ** 2))
            assert e_loss - opt == pytest.approx(e_gap, abs=1e-9)

    def test_degenerate_expected_loss_is_one(self, degenerate):
        dist = oracle.exact_distribution(degenerate.X, 2)
        e_loss = sum(pr * regression.total_loss(
            degenerate, regression.solve_subproblem(degenerate, list(S)))
            for S, pr in dist.items())
        assert e_loss == pytest.approx(1.0, abs=1e-12)
        assert e_loss < 1.5


class TestSimplexFixture:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_every_subset_attains_the_factor(self, d):
        p = fixtures.centered_simplex_problem(d, response=1.0)
        opt = regression.total_loss(p, regression.solve_full(p))
        assert opt == pytest.approx(d + 1, rel=1e-9)  # all-zero optimum
        for S in itertools.combinations(range(d + 1), d):
            est = regression.solve_subproblem(p, list(S))
            assert regression.total_loss(p, est) == pytest.approx(
                (d + 1) * opt, rel=1e-9)

    def test_rows_form_centered_regular_simplex(self):
        X = fixtures.centered_simplex(4)
        np.testing.assert_allclose(X.sum(axis=0), 0.0, atol=1e-12)
        norms = np.linalg.norm(X, axis=1)
        np.testing.assert_allclose(norms, norms[0], rtol=1e-12)
        dots = [X[i] @ X[j] for i in range(5) for j in range(i + 1, 5)]
        np.testing.assert_allclose(dots, dots[0], rtol=1e-10)


class TestNoiseModel:
    def test_zero_noise_exact(self, gauss83):
        model = NoiseModel(w_true=np.array([1.0, 0.0, -1.0]), sigma=0.0)
        p = regression.generate_noisy_problem(gauss83, model, seed=0)
        np.testing.assert_array_equal(p.y, gauss83 @ model.w_true)

    def test_noise_moments(self):
        X = np.zeros((100_000, 1))
        X[:, 0] = 1.0
        model = NoiseModel(w_true=np.zeros(1), sigma=2.0)
        p = regression.generate_noisy_problem(X, model, seed=42)
        noise = p.y
        assert abs(noise.mean()) <= 4 * 2.0 / math.sqrt(100_000)
        assert noise.var() == pytest.approx(4.0, rel=0.05)

    def test_deterministic_per_seed(self, gauss83):
        model = NoiseModel(w_true=np.ones(3), sigma=1.0)
        a = regression.generate_noisy_problem(gauss83, model, seed=5)
        b = regression.generate_noisy_problem(gauss83, model, seed=5)
        np.testing.assert_array_equal(a.y, b.y)


class TestErrorMetrics:
    def test_exact_recovery_zero_error(self, gauss83):
        w = np.array([1.0, 2.0, 3.0])
        model = NoiseModel(w_true=w, sigma=1.0)
        p = RegressionProblem(X=gauss83, y=gauss83 @ w)
        est = regression.Estimator(w=w.copy(), lam=0.0)
        assert regression.mspe(p, est, model) == 0.0
        assert regression.mse(est, model) == 0.0

    def test_identity_design(self):
        X = np.eye(4)
        v = np.array([1.0, -1.0, 2.0, 0.0])
        model = NoiseModel(w_true=np.zeros(4), sigma=1.0)
        p = RegressionProblem(X=X, y=np.zeros(4))
        est = regression.Estimator(w=v, lam=0.0)
        assert regression.mspe(p, est, model) == pytest.approx(float(v @ v) / 4)

    def test_block_identity_closed_form(self):
        # stacked-identity design: for a fixed subset with coordinate counts
        # c_i, the ridge estimator's expected prediction error over the noise
        # is (sigma^2/d) * sum_i (c_i + a^2 lam^2) / (c_i + lam)^2
        n, d, sigma, a = 20, 4, 1.5, 1.0
        X = fixtures.block_identity(n, d)
        lam = 0.8
        w_true = np.full(d, a * sigma)
        model = NoiseModel(w_true=w_true, sigma=sigma)
        S = [0, 1, 2, 3, 4, 5, 8]  # counts per coordinate: (3, 2, 1, 1)
        counts = np.array([3, 2, 1, 1], dtype=float)
        expected = sigma**2 / d * np.sum(
            (counts + a**2 * lam**2) / (counts + lam) ** 2)
        draws = 4000
        vals = np.empty(draws)
        children = np.random.SeedSequence(3).spawn(draws)
        for r, child in enumerate(children):
            prob = regression.generate_noisy_problem(
                X, model, np.random.default_rng(child))
            est = regression.solve_subproblem(prob, S, lam)
            vals[r] = regression.mspe(prob, est, model)
        se = vals.std(ddof=1) / math.sqrt(draws)
        assert abs(vals.mean() - expected) <= 3 * se
