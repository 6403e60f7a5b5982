import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volsample import linalg
from volsample.errors import NotPositiveDefinite, SingularDowndate, TooLarge

DEGENERATE_X = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 0.0]])


def random_tall(n, d, seed):
    return np.random.default_rng(seed).standard_normal((n, d))


class TestGram:
    def test_degenerate_example(self):
        np.testing.assert_allclose(linalg.gram(DEGENERATE_X),
                                   [[3.0, 2.0], [2.0, 2.0]])

    def test_identity(self):
        np.testing.assert_allclose(linalg.gram(np.eye(2)), np.eye(2))

    def test_ridge_shift(self):
        np.testing.assert_allclose(linalg.gram(DEGENERATE_X, lam=1.0),
                                   [[4.0, 2.0], [2.0, 3.0]])

    def test_exactly_symmetric(self):
        X = random_tall(40, 7, seed=1) * 100
        G = linalg.gram(X, 0.5)
        assert np.array_equal(G, G.T)

    def test_rejects_negative_lam(self):
        with pytest.raises(ValueError):
            linalg.gram(np.eye(2), -0.1)

    @pytest.mark.parametrize("lam", [0.0, 0.5])
    def test_overflow_is_too_large(self, lam):
        X = random_tall(50, 3, seed=2)
        X[3, 1] = 1e200
        with pytest.raises(TooLarge, match="overflows float64"):
            linalg.gram(X, lam)


class TestCholLogdet:
    def test_identity(self):
        assert linalg.chol_logdet(np.eye(3)) == pytest.approx(0.0, abs=1e-14)

    def test_degenerate_gram(self):
        assert linalg.chol_logdet(np.array([[3.0, 2.0], [2.0, 2.0]])) == \
            pytest.approx(math.log(2.0), rel=1e-12)

    def test_small_diagonal(self):
        A = np.diag([0.1**2, 1.0])
        assert linalg.chol_logdet(A) == pytest.approx(math.log(1e-2), rel=1e-12)

    def test_singular_raises(self):
        with pytest.raises(NotPositiveDefinite):
            linalg.chol_logdet(np.array([[2.0, 2.0], [2.0, 2.0]]))

    def test_nan_pivot_raises(self):
        # LAPACK factors this one; its second pivot is nan
        with pytest.raises(NotPositiveDefinite):
            linalg.chol_factor(np.array([[1.0, np.nan], [np.nan, 1.0]]))

    def test_pivot_tolerance_is_scale_relative(self):
        # tiny but well-conditioned matrices must factor fine
        assert linalg.chol_logdet(1e-150 * np.eye(2)) == pytest.approx(
            2 * math.log(1e-150), rel=1e-12)

    @given(st.integers(0, 500))
    def test_matches_slogdet(self, seed):
        X = random_tall(9, 3, seed)
        G = linalg.gram(X, 0.1)
        sign, ld = np.linalg.slogdet(G)
        assert sign > 0
        assert linalg.chol_logdet(G) == pytest.approx(ld, rel=1e-10, abs=1e-10)


class TestSolveSpd:
    def test_identity(self):
        b = np.array([1.0, -2.0, 3.0])
        np.testing.assert_allclose(linalg.solve_spd(np.eye(3), b), b)

    def test_degenerate_gram_inverse(self):
        A = np.array([[3.0, 2.0], [2.0, 2.0]])
        Z = linalg.solve_spd(A, np.eye(2))
        np.testing.assert_allclose(Z, [[1.0, -1.0], [-1.0, 1.5]], atol=1e-12)
        np.testing.assert_allclose(A @ Z, np.eye(2), atol=1e-12)

    def test_scaled_identity(self):
        np.testing.assert_allclose(linalg.solve_spd(2 * np.eye(2), [4.0, 6.0]),
                                   [2.0, 3.0])

    @given(st.integers(0, 200))
    def test_residual_contract(self, seed):
        X = random_tall(20, 4, seed)
        b = np.random.default_rng(seed + 1).standard_normal(4)
        A = linalg.gram(X)
        x = linalg.solve_spd(A, b)
        assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)


class TestLeverageScores:
    def test_identity_design(self):
        np.testing.assert_allclose(linalg.leverage_scores(np.eye(4)), np.ones(4))

    def test_two_equal_rows(self):
        np.testing.assert_allclose(linalg.leverage_scores(np.array([[1.0], [1.0]])),
                                   [0.5, 0.5])

    def test_degenerate_example(self):
        lev = linalg.leverage_scores(DEGENERATE_X)
        np.testing.assert_allclose(lev, [0.5, 0.5, 1.0], atol=1e-12)
        assert lev.sum() == pytest.approx(2.0, abs=1e-10)

    @given(st.integers(0, 300))
    def test_sum_is_dimension_and_range(self, seed):
        X = random_tall(12, 3, seed)
        lev = linalg.leverage_scores(X)
        assert lev.sum() == pytest.approx(3.0, abs=1e-10)
        assert np.all(lev >= -1e-12) and np.all(lev <= 1 + 1e-12)

    @given(st.integers(0, 100))
    def test_regularized_sum_is_statistical_dimension(self, seed):
        X = random_tall(10, 3, seed)
        lam = 0.7
        lev = linalg.leverage_scores(X, lam)
        ev = np.linalg.eigvalsh(linalg.gram(X))
        assert lev.sum() == pytest.approx(np.sum(ev / (ev + lam)), rel=1e-10)


class TestNormalEquations:
    @given(st.integers(0, 200))
    def test_orthogonality_of_residual(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((15, 4))
        y = rng.standard_normal(15)
        w = linalg.solve_spd(linalg.gram(X), X.T @ y)
        assert np.linalg.norm(X.T @ (X @ w - y)) <= 1e-9 * np.linalg.norm(X.T @ y)


class TestShermanMorrisonDowndate:
    def test_zero_vector_no_change(self):
        Z = linalg.inv_spd(linalg.gram(random_tall(5, 2, seed=0)))
        Z1 = Z.copy()
        v = linalg.downdate(Z1, np.zeros(2), 1.0)
        np.testing.assert_array_equal(Z1, Z)
        np.testing.assert_array_equal(v, np.zeros(2))

    def test_single_removal_matches_direct(self):
        X = random_tall(6, 3, seed=4)
        Z = linalg.inv_spd(linalg.gram(X))
        h = 1.0 - X[0] @ Z @ X[0]
        Z1 = Z.copy()
        v = linalg.downdate(Z1, X[0], h)
        np.testing.assert_allclose(v, Z @ X[0] / np.sqrt(h), rtol=1e-15)
        direct = linalg.inv_spd(linalg.gram(X[1:]))
        np.testing.assert_allclose(Z1, direct, atol=1e-10)

    def test_chained_removals_match_direct(self):
        X = random_tall(8, 3, seed=9)
        Z = linalg.inv_spd(linalg.gram(X))
        keep = list(range(8))
        for i in [0, 3, 5]:
            h = 1.0 - X[i] @ Z @ X[i]
            linalg.downdate(Z, X[i], h)
            keep.remove(i)
        direct = linalg.inv_spd(linalg.gram(X[keep]))
        np.testing.assert_allclose(Z, direct, atol=1e-9)

    def test_singular_downdate_raises(self):
        Z = np.eye(2)
        with pytest.raises(SingularDowndate):
            linalg.downdate(Z, np.array([1.0, 0.0]), 0.0)
        np.testing.assert_array_equal(Z, np.eye(2))

    @settings(max_examples=25)
    @given(st.integers(0, 10_000), st.integers(5, 50))
    def test_full_chain_against_scratch(self, seed, n):
        d = 3
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, d))
        Z = linalg.inv_spd(linalg.gram(X))
        keep = list(range(n))
        removals = rng.permutation(n)[: n - d]
        for i in removals:
            h = 1.0 - X[i] @ Z @ X[i]
            linalg.downdate(Z, X[i], h)
            keep.remove(i)
        direct = linalg.inv_spd(linalg.gram(X[keep]))
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(Z - direct)) <= 1e-8 * max(scale, 1.0)


class TestSylvesterRatio:
    @given(st.integers(0, 200))
    def test_determinant_ratio_equals_weight(self, seed):
        X = random_tall(7, 2, seed)
        G = linalg.gram(X)
        Z = linalg.inv_spd(G)
        for i in range(7):
            rest = [j for j in range(7) if j != i]
            ratio = math.exp(linalg.chol_logdet(linalg.gram(X[rest]))
                             - linalg.chol_logdet(G))
            assert ratio == pytest.approx(1.0 - X[i] @ Z @ X[i], abs=1e-10)
