import math
import multiprocessing

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import logsumexp

from volsample import fixtures, linalg, oracle, sampling
from volsample.errors import (InvalidConfig, NotPositiveDefinite, TooLarge,
                              UnsupportedCombination)

EQ = ("PSEUDOINV_UNBIASED", "COV_INVERSE", "FROBENIUS", "COVARIANCE",
      "MARGINALS")


class TestExactDistribution:
    def test_degenerate_pair_law(self, degenerate):
        dist = oracle.exact_distribution(degenerate.X, 2)
        assert dist.prob((1, 2)) == pytest.approx(0.5, abs=1e-12)
        assert dist.prob((0, 2)) == pytest.approx(0.5, abs=1e-12)
        assert dist.prob((0, 1)) == 0.0

    def test_symmetric_ones_uniform(self):
        dist = oracle.exact_distribution(np.ones((3, 1)), 2)
        for S in ((0, 1), (0, 2), (1, 2)):
            assert dist.prob(S) == pytest.approx(1 / 3, abs=1e-12)

    def test_normalized(self, gauss83):
        for s in range(3, 9):
            dist = oracle.exact_distribution(gauss83, s)
            assert abs(logsumexp(list(dist.log_probs.values()))) < 1e-10

    def test_dag_matches_closed_form(self):
        X = fixtures.gaussian_matrix(7, 2, seed=3)
        for s in range(2, 8):
            a = oracle._closed_form_distribution(X, s)
            b = oracle._dag_distribution(X, s, 0.0)
            assert set(a.log_probs) == set(b.log_probs)
            for S in a.log_probs:
                assert a.prob(S) == pytest.approx(b.prob(S), abs=1e-10)

    def test_dag_handles_degenerate(self, degenerate):
        dist = oracle._dag_distribution(degenerate.X, 2, 0.0)
        assert dist.prob((0, 1)) == 0.0
        assert dist.prob((0, 2)) == pytest.approx(0.5, abs=1e-12)

    def test_enumeration_guardrail(self):
        X = np.ones((60, 1))
        with pytest.raises(TooLarge):
            oracle.exact_distribution(X, 30)

    def test_rank_deficient_unregularized(self):
        X = np.array([[1.0, 2.0], [2.0, 4.0], [1.0, 2.0]])
        with pytest.raises(NotPositiveDefinite):
            oracle.exact_distribution(X, 2)

    def test_regularized_below_d(self, gauss83):
        dist = oracle.exact_distribution(gauss83, 2, lam=1.0)
        assert math.fsum(p for _, p in dist.items()) == pytest.approx(1.0, abs=1e-10)
        assert all(len(S) == 2 for S in dist.support())


class TestCauchyBinet:
    def test_ones_column(self):
        rep = oracle.cauchy_binet_check(np.ones((3, 1)), 2)
        assert rep.lhs == pytest.approx(math.log(6.0), abs=1e-12)
        assert rep.max_rel_dev < 1e-12

    def test_identity_at_s_equals_d(self):
        rep = oracle.cauchy_binet_check(np.eye(3), 3)
        assert rep.lhs == pytest.approx(0.0, abs=1e-12)
        assert rep.rhs == pytest.approx(0.0, abs=1e-12)

    @given(st.integers(0, 300))
    def test_normalizer_identity(self, seed):
        # the closed-form normalizer is exactly the binomial-weighted full
        # determinant, in log-space
        X = fixtures.gaussian_matrix(8, 2, seed=seed)
        for s in range(2, 9):
            rep = oracle.cauchy_binet_check(X, s)
            assert rep.max_abs_dev <= 1e-10 and rep.max_rel_dev <= 1e-10


class TestDLambda:
    def test_full_rank_zero_lambda(self, gauss83):
        assert oracle.d_lambda(gauss83, 0.0) == pytest.approx(3.0)

    def test_large_lambda_vanishes(self, gauss83):
        assert oracle.d_lambda(gauss83, 1e12) == pytest.approx(0.0, abs=1e-6)

    def test_orthonormal_design(self):
        assert oracle.d_lambda(np.eye(2), 1.0) == pytest.approx(1.0)

    def test_rank_deficient_raises(self):
        with pytest.raises(NotPositiveDefinite):
            oracle.d_lambda(np.array([[1.0, 2.0], [2.0, 4.0]]), 0.0)

    def test_matches_hat_matrix_trace(self, gauss83):
        lam = 0.3
        hat = gauss83 @ linalg.solve_spd(linalg.gram(gauss83, lam), gauss83.T)
        assert oracle.d_lambda(gauss83, lam) == pytest.approx(np.trace(hat),
                                                              rel=1e-12)


class TestEqualityIdentities:
    def test_catalog_on_gaussian(self, gauss82):
        y = np.random.default_rng(5).standard_normal(8)
        for s in range(2, 9):
            dist = oracle.exact_distribution(gauss82, s)
            for name in EQ:
                rep = oracle.verify_identity(name, gauss82, y, s=s, dist=dist)
                assert rep.max_rel_dev <= 1e-9, (name, s, rep.max_rel_dev)

    def test_composition_all_intermediate_sizes(self, gauss82):
        for s in range(2, 9):
            rep = oracle.verify_identity("COMPOSITION", gauss82, s=s)
            assert rep.max_abs_dev <= 1e-12

    def test_composition_degenerate_reads_zero(self, degenerate):
        # the zero-volume pair drops out of both stages without a trace
        rep = oracle.verify_identity("COMPOSITION", degenerate.X, s=2)
        assert rep.max_abs_dev == 0.0

    def test_composition_rank_deficient_raises(self):
        X = np.array([[1.0, 2.0], [2.0, 4.0], [1.0, 2.0]])
        with pytest.raises(NotPositiveDefinite):
            oracle.verify_identity("COMPOSITION", X, s=2)

    def test_proj_square_and_loss_factor_at_d(self, gauss82):
        y = np.random.default_rng(5).standard_normal(8)
        for name in ("PROJ_SQUARE", "LOSS_FACTOR"):
            rep = oracle.verify_identity(name, gauss82, y, s=2)
            assert rep.max_rel_dev <= 1e-9, (name, rep.max_rel_dev)

    def test_proj_square_rejects_other_sizes(self, gauss82):
        with pytest.raises(UnsupportedCombination):
            oracle.verify_identity("PROJ_SQUARE", gauss82, s=4)


class TestInequalityModes:
    def test_degenerate_cov_inverse_psd_but_not_equal(self, degenerate):
        rep = oracle.verify_identity("COV_INVERSE", degenerate.X, s=2,
                                     equality=False)
        assert rep.mode == "inequality"
        assert rep.psd_margin >= -1e-9
        assert rep.max_abs_dev > 0.1  # equality genuinely fails

    def test_degenerate_loss_factor_strict_gap(self, degenerate):
        rep = oracle.verify_identity("LOSS_FACTOR", degenerate.X, degenerate.y,
                                     s=2, equality=False)
        assert rep.lhs == pytest.approx(1.0, abs=1e-12)
        assert rep.rhs == pytest.approx(1.5, abs=1e-12)
        assert rep.psd_margin == pytest.approx(0.5, abs=1e-12)

    def test_perturbed_closes_the_gap(self, perturbed):
        rep = oracle.verify_identity("LOSS_FACTOR", perturbed.X, perturbed.y, s=2)
        assert rep.lhs == pytest.approx(3 / 2.22, rel=1e-9)
        assert rep.max_rel_dev <= 1e-9


class TestRegularizedBound:
    def test_margin_nonnegative_across_lambdas(self, gauss83):
        for lam in (0.01, 0.1, 1.0):
            dl = oracle.d_lambda(gauss83, lam)
            for s in range(math.ceil(dl), 9):
                rep = oracle.verify_identity("REG_INVERSE_BOUND", gauss83,
                                             s=s, lam=lam)
                assert rep.psd_margin >= -1e-9, (lam, s, rep.psd_margin)

    def test_rejects_s_below_statistical_dimension(self, gauss83):
        with pytest.raises(UnsupportedCombination):
            oracle.verify_identity("REG_INVERSE_BOUND", gauss83, s=1, lam=0.01)

    def test_normalization_identity(self, gauss83):
        rep = oracle.verify_identity("NORMALIZATION", gauss83, s=3, lam=0.5)
        assert rep.max_abs_dev <= 1e-8

    @pytest.mark.parametrize("case,lam,dev", [
        # the (8, 3) design of `volsample verify --suite identities --seed 7`
        ("suite", 0.5, "0x1.0000000000000p-49"),
        ("degenerate", 0.0, "0x1.0000000000000p-50"),
        ("degenerate", 0.5, "0x1.0000000000000p-51"),
    ])
    def test_normalization_deviation_pinned(self, degenerate, case, lam, dev):
        if case == "suite":
            X, s = np.random.default_rng(8).standard_normal((8, 3)), 3
        else:
            X, s = degenerate.X, 2
        rep = oracle.verify_identity("NORMALIZATION", X, s=s, lam=lam)
        assert rep.max_abs_dev.hex() == dev


class TestEmpirical:
    def test_degenerate_zero_set_never_drawn(self, degenerate):
        cfg = sampling.SamplerConfig(s=2, seed=21)
        rep = oracle.empirical_distribution_test(degenerate.X, cfg, draws=100_000)
        assert rep.counts.get((0, 1), 0) == 0
        assert rep.off_support_draws == 0
        assert rep.tv_distance < 0.02

    def test_leverage_marginals(self, degenerate):
        cfg = sampling.SamplerConfig(s=3, seed=4, algorithm="leverage")
        rep = oracle.empirical_distribution_test(degenerate.X, cfg, draws=20_000)
        p = np.array([0.25, 0.25, 0.5])
        se = np.sqrt(p * (1 - p) / (3 * 20_000))
        assert np.all(np.abs(rep.index_marginals - p) <= 4 * se)

    def test_deterministic_given_seed(self, gauss83):
        cfg = sampling.SamplerConfig(s=3, seed=99)
        a = oracle.empirical_distribution_test(gauss83, cfg, draws=2000)
        b = oracle.empirical_distribution_test(gauss83, cfg, draws=2000)
        assert a.counts == b.counts and a.tv_distance == b.tv_distance

    @pytest.mark.parametrize("algorithm", sampling.ALGORITHMS)
    def test_report_independent_of_cpu_count(self, gauss83, monkeypatch, algorithm):
        # one more draw than the threshold, so two chunks split unevenly
        draws = oracle.PARALLEL_MIN_DRAWS + 1
        cfg = sampling.SamplerConfig(s=4, seed=31, algorithm=algorithm)
        reports = []
        for cpus in (1, 2):
            monkeypatch.setattr(oracle, "_cpu_count", lambda: cpus)
            reports.append(oracle.empirical_distribution_test(gauss83, cfg, draws))
            assert multiprocessing.active_children() == []
        one, two = reports
        assert list(one.counts.items()) == list(two.counts.items())
        assert one.tv_distance == two.tv_distance
        assert one.chi_square == two.chi_square
        assert np.array_equal(one.index_marginals, two.index_marginals)
        if algorithm == "leverage":
            # a multiset can repeat an index, and every copy counts
            assert sum(one.counts.values()) == cfg.s * draws

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_sampler_error_reaches_caller(self, gauss83, monkeypatch, cpus):
        # the DAG oracle accepts s=0 at lam>0, the samplers refuse it per draw
        monkeypatch.setattr(oracle, "_cpu_count", lambda: cpus)
        cfg = sampling.SamplerConfig(s=0, lam=0.5, seed=3)
        with pytest.raises(InvalidConfig, match="need 1 <= s <= n"):
            oracle.empirical_distribution_test(gauss83, cfg,
                                               draws=oracle.PARALLEL_MIN_DRAWS)
        assert multiprocessing.active_children() == []


class TestOracleSample:
    def test_deterministic(self, gauss83):
        a = oracle.oracle_sample(gauss83, 4, seed=5)
        b = oracle.oracle_sample(gauss83, 4, seed=5)
        assert a == b and a.algorithm == "oracle"

    def test_respects_support(self, degenerate):
        for seed in range(200):
            smp = oracle.oracle_sample(degenerate.X, 2, seed=seed)
            assert smp.indices != (0, 1)


@pytest.mark.slow
class TestDistributionSweep:
    """Exhaustive sampler-vs-oracle conformance for all small shapes."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_tv_below_two_percent(self, d):
        for n in range(d, 10):
            X = fixtures.gaussian_matrix(n, d, seed=1000 * n + d)
            for s in range(d, n + 1):
                for alg in ("regvol", "fastregvol"):
                    cfg = sampling.SamplerConfig(s=s, seed=7, algorithm=alg)
                    rep = oracle.empirical_distribution_test(X, cfg, draws=100_000)
                    assert rep.tv_distance < 0.02, (n, d, s, alg, rep.tv_distance)
                    assert rep.off_support_draws == 0
