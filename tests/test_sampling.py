import hashlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volsample import fixtures, linalg, oracle, sampling
from volsample.cli import main
from volsample.errors import AllWeightsZero, InvalidConfig, NotPositiveDefinite
from volsample.sampling import SamplerConfig


class TestSamplerConfig:
    def test_unregularized_needs_s_at_least_d(self):
        with pytest.raises(InvalidConfig):
            SamplerConfig(s=1).validate(n=5, d=2)

    def test_unregularized_needs_s_at_most_n(self):
        with pytest.raises(InvalidConfig):
            SamplerConfig(s=6).validate(n=5, d=2)

    def test_regularized_allows_small_s(self):
        SamplerConfig(s=1, lam=0.5).validate(n=5, d=3)

    def test_leverage_allows_zero(self):
        SamplerConfig(s=0, algorithm="leverage").validate(n=5, d=2)

    def test_unknown_algorithm(self):
        with pytest.raises(InvalidConfig):
            SamplerConfig(s=2, algorithm="sobol").validate(n=5, d=2)


class TestRemovalWeights:
    def test_degenerate_weights(self, degenerate):
        h = sampling.init_downdate_state(degenerate.X).h
        np.testing.assert_allclose(h, [0.5, 0.5, 0.0], atol=1e-12)
        # s - d = 1, so the conditional equals h itself
        np.testing.assert_allclose(h / h.sum(), [0.5, 0.5, 0.0], atol=1e-12)

    def test_square_identity_all_zero(self):
        h = sampling.init_downdate_state(np.eye(2)).h
        np.testing.assert_array_equal(h, np.zeros(2))

    def test_large_lambda_uniformizes(self):
        X = fixtures.gaussian_matrix(6, 2, seed=0)
        h = sampling.init_downdate_state(X, lam=1e9).h
        np.testing.assert_allclose(h, np.ones(6), atol=1e-6)

    def test_rank_deficient_unregularized_raises(self):
        X = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
        with pytest.raises(NotPositiveDefinite):
            sampling.init_downdate_state(X)


class TestDowndateStateInvariants:
    @settings(max_examples=20)
    @given(st.integers(0, 5000), st.sampled_from([0.0, 0.3, 2.0]))
    def test_maintained_weights_match_fresh(self, seed, lam):
        X = fixtures.gaussian_matrix(12, 3, seed=seed)
        state = sampling.init_downdate_state(X, lam)
        rng = np.random.default_rng(seed)
        floor = 3 if lam == 0.0 else 1
        while state.size > floor:
            pos = sampling._pick_weighted(state.h[: state.size], rng)
            sampling.remove_row(state, pos)
            act = state.active[: state.size]
            fresh = 1.0 - linalg.quad_forms(
                X[act], linalg.inv_spd(linalg.gram(X[act], lam)))
            np.testing.assert_allclose(state.h[: state.size],
                                       np.clip(fresh, 0.0, 1.0), atol=1e-8)

    @settings(max_examples=20)
    @given(st.integers(0, 5000), st.sampled_from([0.0, 0.5, 3.0]))
    def test_weight_sum_normalization(self, seed, lam):
        # sum of weights = |S| - d + lam * tr(Z) at every step
        X = fixtures.gaussian_matrix(10, 3, seed=seed)
        state = sampling.init_downdate_state(X, lam)
        rng = np.random.default_rng(seed)
        floor = 3 if lam == 0.0 else 1
        while state.size > floor:
            expected = state.size - 3 + lam * np.trace(state.Z)
            assert state.h[: state.size].sum() == pytest.approx(expected, abs=1e-8)
            pos = sampling._pick_weighted(state.h[: state.size], rng)
            sampling.remove_row(state, pos)

    def test_weights_stay_in_unit_interval(self):
        X = fixtures.gaussian_matrix(30, 4, seed=7)
        state = sampling.init_downdate_state(X)
        rng = np.random.default_rng(3)
        while state.size > 4:
            h = state.h[: state.size]
            assert np.all(h >= 0.0) and np.all(h <= 1.0 + 1e-12)
            sampling.remove_row(state, sampling._pick_weighted(h, rng))


class TestRegVol:
    def test_full_size_is_identity(self, gauss83):
        smp = sampling.reg_vol_sample(gauss83, SamplerConfig(s=8, seed=0))
        assert smp.indices == tuple(range(8))
        assert smp.removal_order == ()

    def test_zero_probability_pair_never_sampled(self, degenerate):
        for seed in range(500):
            smp = sampling.reg_vol_sample(degenerate.X, SamplerConfig(s=2, seed=seed))
            assert smp.indices != (0, 1)

    def test_seed_determinism(self, gauss83):
        cfg = SamplerConfig(s=4, seed=123456789)
        a = sampling.reg_vol_sample(gauss83, cfg)
        b = sampling.reg_vol_sample(gauss83, cfg)
        assert a == b and repr(a) == repr(b)

    def test_different_seeds_differ_somewhere(self, gauss83):
        draws = {sampling.reg_vol_sample(gauss83, SamplerConfig(s=4, seed=s)).indices
                 for s in range(40)}
        assert len(draws) > 1

    def test_removal_order_complements_subset(self, gauss83):
        smp = sampling.reg_vol_sample(gauss83, SamplerConfig(s=3, seed=5))
        assert sorted(smp.indices + smp.removal_order) == list(range(8))

    def test_uniform_symmetric_case(self):
        # all-ones single column: every pair equally likely (prob 1/3 each)
        X = np.ones((3, 1))
        counts = {}
        for seed in range(3000):
            smp = sampling.reg_vol_sample(X, SamplerConfig(s=2, seed=seed))
            counts[smp.indices] = counts.get(smp.indices, 0) + 1
        assert set(counts) == {(0, 1), (0, 2), (1, 2)}
        expected = 1000.0
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < 16.0  # df=2


class TestFastRegVol:
    def test_full_size_no_trials(self, gauss83):
        cfg = SamplerConfig(s=8, seed=0, algorithm="fastregvol")
        smp = sampling.fast_reg_vol_sample(gauss83, cfg)
        assert smp.indices == tuple(range(8))
        assert smp.rejection_trials == 0

    def test_seed_determinism(self, gauss83):
        cfg = SamplerConfig(s=3, seed=77, algorithm="fastregvol")
        a = sampling.fast_reg_vol_sample(gauss83, cfg)
        b = sampling.fast_reg_vol_sample(gauss83, cfg)
        assert a == b

    def test_records_trials_above_cutoff(self):
        X = fixtures.gaussian_matrix(40, 3, seed=1)
        cfg = SamplerConfig(s=3, seed=9, algorithm="fastregvol")
        smp = sampling.fast_reg_vol_sample(X, cfg)
        # 34 removals happen in the rejection phase (down to 2d=6 rows)
        assert smp.rejection_trials >= 34
        assert len(smp.indices) == 3

    def test_zero_probability_pair_never_sampled(self, degenerate):
        for seed in range(500):
            cfg = SamplerConfig(s=2, seed=seed, algorithm="fastregvol")
            assert sampling.fast_reg_vol_sample(degenerate.X, cfg).indices != (0, 1)


class TestLeverageIID:
    def test_identity_design_uniform(self):
        smp = sampling.leverage_iid_sample(np.eye(3), s=2000, seed=0)
        counts = np.bincount(smp.indices, minlength=3) / 2000
        assert np.max(np.abs(counts - 1 / 3)) < 4 * np.sqrt((1 / 3) * (2 / 3) / 2000)

    def test_degenerate_draw_distribution(self, degenerate):
        smp = sampling.leverage_iid_sample(degenerate.X, s=20000, seed=1)
        counts = np.bincount(smp.indices, minlength=3) / 20000
        for i, p in enumerate([0.25, 0.25, 0.5]):
            assert abs(counts[i] - p) < 4 * np.sqrt(p * (1 - p) / 20000)

    def test_empty_multiset(self, gauss83):
        smp = sampling.leverage_iid_sample(gauss83, s=0, seed=0)
        assert smp.indices == () and smp.multiset

    def test_importance_weights(self, degenerate):
        smp = sampling.leverage_iid_sample(degenerate.X, s=4, seed=3)
        p = np.array([0.25, 0.25, 0.5])
        for idx, w in zip(smp.indices, smp.importance_weights):
            assert w == pytest.approx(1.0 / np.sqrt(4 * p[idx]))

    def test_handed_probabilities_give_same_draws(self, gauss83):
        scores = linalg.leverage_scores(gauss83, 0.5)
        p = scores / scores.sum()
        cfg = SamplerConfig(s=6, lam=0.5, seed=8, algorithm="leverage")
        for child in np.random.SeedSequence(cfg.seed).spawn(20):
            fresh = sampling.sample(gauss83, cfg, np.random.default_rng(child))
            handed = sampling.sample(gauss83, cfg, np.random.default_rng(child), _state=p)
            assert handed == fresh


class TestMarginals:
    def test_full_size(self, gauss83):
        np.testing.assert_allclose(sampling.marginal_probabilities(gauss83, 8),
                                   np.ones(8))

    def test_size_d_equals_leverage(self, gauss83):
        np.testing.assert_allclose(sampling.marginal_probabilities(gauss83, 3),
                                   linalg.leverage_scores(gauss83), atol=1e-12)

    def test_degenerate_matches_enumeration(self, degenerate):
        marg = sampling.marginal_probabilities(degenerate.X, 2)
        assert marg[0] == pytest.approx(0.5)
        assert marg[2] == pytest.approx(1.0)

    def test_marginals_sum_to_s(self, gauss83):
        for s in range(3, 9):
            assert sampling.marginal_probabilities(gauss83, s).sum() == \
                pytest.approx(s, abs=1e-10)


class TestDispatch:
    def test_sample_routes_by_algorithm(self, gauss83):
        for alg in ("regvol", "fastregvol", "leverage"):
            smp = sampling.sample(gauss83, SamplerConfig(s=3, seed=1, algorithm=alg))
            assert smp.algorithm == alg

    def test_regularized_below_d(self, gauss83):
        smp = sampling.sample(gauss83, SamplerConfig(s=2, lam=0.5, seed=1))
        assert len(smp.indices) == 2


# Draws of the volume samplers on GOLDEN_X with s = 6, recorded from this
# implementation: for seed 2024 (indices, rejection_trials, removal_order),
# and a sha256 over the same three for seeds 0-39.  The 84 removals pass one
# refresh of Z.  A change in RNG use or in the weights moves them; a change
# of the last few bits of Z usually does not, as no draw lands that close to
# a bin edge.
GOLDEN_X = 0.5 * np.random.default_rng(5).standard_normal((90, 6))
GOLDEN = {
    ("regvol", 0.0): (
        (23, 39, 64, 65, 77, 79), None, (
        60, 18, 27, 69, 85, 12, 6, 14, 29, 13, 47, 48, 8, 43, 0, 34, 72,
        58, 42, 22, 82, 30, 88, 73, 80, 17, 51, 16, 62, 4, 28, 15, 63,
        61, 76, 26, 25, 57, 46, 3, 84, 9, 55, 53, 56, 37, 66, 81, 78,
        75, 87, 49, 38, 10, 41, 20, 11, 86, 83, 45, 67, 44, 33, 52, 1,
        7, 59, 32, 54, 89, 21, 40, 5, 31, 70, 71, 36, 74, 68, 19, 24,
        50, 2, 35,
        )),
    ("fastregvol", 0.0): (
        (28, 35, 36, 44, 47, 79), 88, (
        21, 60, 70, 75, 6, 22, 14, 81, 8, 16, 37, 40, 46, 59, 33, 62,
        15, 32, 19, 55, 72, 42, 71, 31, 12, 5, 13, 57, 4, 50, 7, 63, 66,
        67, 38, 58, 64, 84, 25, 29, 49, 77, 74, 24, 0, 10, 2, 56, 45,
        27, 23, 89, 83, 76, 9, 52, 39, 65, 85, 80, 53, 41, 78, 73, 30,
        69, 11, 54, 88, 82, 51, 68, 18, 87, 26, 20, 61, 17, 1, 86, 43,
        3, 34, 48,
        )),
    ("regvol", 1.0): (
        (23, 24, 32, 35, 56, 68), None, (
        60, 18, 27, 69, 85, 12, 6, 14, 29, 13, 47, 48, 8, 43, 0, 34, 72,
        58, 42, 22, 82, 30, 88, 73, 80, 17, 51, 16, 62, 4, 28, 15, 63,
        61, 76, 26, 25, 57, 46, 3, 84, 9, 55, 53, 64, 37, 66, 81, 78,
        75, 87, 49, 38, 10, 41, 20, 11, 86, 83, 79, 45, 44, 33, 52, 1,
        77, 59, 65, 40, 89, 21, 19, 5, 31, 70, 67, 36, 71, 7, 54, 39,
        50, 2, 74,
        )),
    ("fastregvol", 1.0): (
        (30, 34, 43, 61, 69, 87), 86, (
        21, 60, 70, 75, 6, 22, 14, 81, 8, 16, 37, 40, 46, 59, 33, 62,
        15, 32, 19, 55, 72, 42, 71, 31, 12, 5, 13, 57, 4, 50, 7, 63, 66,
        67, 38, 58, 64, 84, 25, 29, 49, 77, 74, 24, 0, 10, 2, 54, 56,
        45, 27, 52, 89, 83, 85, 9, 79, 23, 65, 35, 80, 53, 78, 26, 36,
        73, 47, 11, 68, 28, 17, 76, 48, 51, 88, 20, 86, 18, 3, 1, 41,
        39, 82, 44,
        )),
}
GOLDEN_DIGESTS = {
    ("regvol", 0.0): "e72982f7d919c02ef44b3ffc707e219b5ef8b9601de672fed07fb23043625063",
    ("regvol", 1.0): "18fe6c8318e5370e629178b834fa82f729fba4ef6c1490e19fea1342fb5ccb6b",
    ("fastregvol", 0.0): "e694e4aad91bdc070f87038d5d39be2fd9f9272d6e8bd2dc40174e0e8a0946cf",
    ("fastregvol", 1.0): "5322a943e5c707ca8b1ec30e6dec3f8afc6def0f056b038940b58ae8b127d57c",
}


class TestGoldenOutputs:
    @pytest.mark.parametrize("algorithm,lam", list(GOLDEN))
    def test_pinned_draw(self, algorithm, lam):
        cfg = SamplerConfig(s=6, lam=lam, seed=2024, algorithm=algorithm)
        smp = sampling.sample(GOLDEN_X, cfg)
        indices, trials, order = GOLDEN[algorithm, lam]
        assert smp.indices == indices
        assert smp.rejection_trials == trials
        assert smp.removal_order == order

    @pytest.mark.parametrize("algorithm,lam", list(GOLDEN_DIGESTS))
    def test_pinned_digest_over_seeds(self, algorithm, lam):
        draws = [sampling.sample(GOLDEN_X, SamplerConfig(s=6, lam=lam, seed=seed,
                                                         algorithm=algorithm))
                 for seed in range(40)]
        text = repr([(d.indices, d.removal_order, d.rejection_trials) for d in draws])
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_DIGESTS[algorithm, lam]


# Draws on np.eye(n) at lam = 1e-13, where every weight is below
# WEIGHT_ZERO_TOL from the start and Z cannot be rebuilt once a row is gone,
# so every removal takes the uniform volume-0 fallback.  sha256 over
# (indices, removal_order, rejection_trials) of seeds 0-49.
FALLBACK_DIGESTS = {
    (3, 1, "regvol"): "1ab6644a6824fb462b0fb224bac0db95fb8aadd0496bc75ecf4551a0fa3c50f6",
    (3, 1, "fastregvol"): "5d66cc6f5d0dfdb411d45342dfa93a87e269c3d034a08fb68fda6dbdbfb6658e",
    (4, 2, "regvol"): "668808b0fe43a2ce3372fb8d0c78cd8dfb2a9c27008ac7ee9d0ffcd182c82ad2",
    (4, 2, "fastregvol"): "9adc911b2a7daed45e9d940af8f838bd67dd88a2aa76e72e16e1bfac8e6dc129",
}


class TestVolumeZeroFallback:
    @pytest.mark.parametrize("n,s,algorithm", list(FALLBACK_DIGESTS))
    def test_uniform_removals_pinned(self, n, s, algorithm, monkeypatch):
        calls = Counter()
        remove_row = sampling.remove_row

        def counted(*args, **kwargs):
            calls["remove_row"] += 1
            return remove_row(*args, **kwargs)

        monkeypatch.setattr(sampling, "remove_row", counted)
        draws = [sampling.sample(np.eye(n), SamplerConfig(s=s, lam=1e-13, seed=seed,
                                                          algorithm=algorithm))
                 for seed in range(50)]
        text = repr([(d.indices, d.removal_order, d.rejection_trials) for d in draws])
        assert hashlib.sha256(text.encode()).hexdigest() == FALLBACK_DIGESTS[n, s, algorithm]
        assert all(len(d.removal_order) == n - s for d in draws)
        assert calls["remove_row"] == 0  # no downdate: every removal is uniform


class TestVolumeSamplerProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(("regvol", "fastregvol")), st.integers(1, 4),
           st.integers(0, 2**32 - 1), st.data())
    def test_draw_is_full_rank_subset(self, algorithm, d, seed, data):
        n = data.draw(st.integers(d, 3 * d + 10), label="n")
        s = data.draw(st.integers(d, n), label="s")
        X = fixtures.gaussian_matrix(n, d, seed=seed)
        # repeated rows: a subset holding two copies has less volume, and
        # at s = d none at all
        dup = data.draw(st.integers(0, n - d), label="repeated rows")
        X[n - dup:] = X[:dup]
        smp = sampling.sample(X, SamplerConfig(s=s, seed=seed, algorithm=algorithm))
        assert len(smp.indices) == len(set(smp.indices)) == s
        assert all(0 <= i < n for i in smp.indices)
        assert np.linalg.matrix_rank(X[list(smp.indices)]) == d

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(("regvol", "fastregvol")), st.integers(1, 4),
           st.integers(0, 2**32 - 1), st.data())
    def test_zero_volume_sets_never_drawn(self, algorithm, d, seed, data):
        # n - 2d >= REPLAY_MIN: fastregvol's rejection phase reads raw output
        low = 2 * d + sampling.REPLAY_MIN
        n = data.draw(st.integers(low, low + 120), label="n")
        s = data.draw(st.integers(d, 2 * d), label="s")
        # every row a copy of one of a few: most size-s sets have volume 0
        distinct = data.draw(st.integers(d, d + 3), label="distinct rows")
        X = fixtures.gaussian_matrix(distinct, d, seed=seed)[np.arange(n) % distinct]
        smp = sampling.sample(X, SamplerConfig(s=s, seed=seed, algorithm=algorithm))
        assert np.linalg.matrix_rank(X[list(smp.indices)]) == d


class TestCallTimeLookup:
    """Every draw reaches the sampler through its ``volsample.sampling``
    attribute at call time, so a wrapper patched there sees it (the
    benchmark's layer tracer relies on this)."""

    SAMPLERS = ("reg_vol_sample", "fast_reg_vol_sample", "leverage_iid_sample")

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = Counter()
        for name in self.SAMPLERS:
            def counted(*args, _name=name, _fn=getattr(sampling, name), **kwargs):
                seen[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(sampling, name, counted)
        return seen

    def test_sample(self, gauss83, calls):
        for alg in sampling.ALGORITHMS:
            sampling.sample(gauss83, SamplerConfig(s=3, seed=1, algorithm=alg))
        assert calls == dict.fromkeys(self.SAMPLERS, 1)

    def test_cli_regress(self, gauss83, tmp_path, calls, capsys):
        path = tmp_path / "data.csv"
        np.savetxt(path, np.column_stack([gauss83, gauss83.sum(axis=1)]),
                   delimiter=",")
        rc = main(["regress", "--input", str(path), "--size", "4", "--lambda", "0.5",
                   "--algorithm", "regvol,fastregvol,leverage", "--replicates", "2"])
        assert rc == 0
        assert calls == dict.fromkeys(self.SAMPLERS, 2)

    def test_empirical_distribution_test(self, gauss83, calls):
        draws = 20
        assert draws < oracle.PARALLEL_MIN_DRAWS
        for alg in sampling.ALGORITHMS:
            cfg = SamplerConfig(s=3, seed=1, algorithm=alg)
            oracle.empirical_distribution_test(gauss83, cfg, draws)
        assert calls == dict.fromkeys(self.SAMPLERS, draws)


# Designs whose removal chains pass many refreshes of Z (n = 3000, d = 10,
# s = 20): a Gaussian one, one with singular values logspace(0, -6), and
# 1000 Gaussian rows each repeated three times plus 1e-9 noise.  The digests
# are sha256 over (indices, removal_order, rejection_trials) of seeds 0-9,
# recorded when Z was still refreshed every max(d, 64) downdates, which
# holds the drift-driven schedule to the same samples.
LARGE_N, LARGE_D, LARGE_S = 3000, 10, 20


def _large_designs():
    gauss = np.random.default_rng(3000).standard_normal((LARGE_N, LARGE_D))
    rng = np.random.default_rng(6)
    U, _ = np.linalg.qr(rng.standard_normal((LARGE_N, LARGE_D)))
    V, _ = np.linalg.qr(rng.standard_normal((LARGE_D, LARGE_D)))
    cond = np.sqrt(LARGE_N) * (U * np.logspace(0, -6, LARGE_D)) @ V.T
    base = np.random.default_rng(9).standard_normal((LARGE_N // 3, LARGE_D))
    noise = 1e-9 * np.random.default_rng(10).standard_normal((LARGE_N, LARGE_D))
    return {"gauss": gauss, "cond": cond, "dup": np.repeat(base, 3, axis=0) + noise}


LARGE_X = _large_designs()
LARGE_DIGESTS = {
    ("gauss", "regvol", 0.0): "a9740d91cc10ae30381060838fa2b1e837cf694c82ba8940ba6714bfd4e184e0",
    ("gauss", "fastregvol", 0.0): "18259bdeda496eb90255227e6243f840d03f5123636a2125fb26a45666bb5a46",
    ("gauss", "regvol", 1.0): "c795dc79c25c6371753dd88830e60aaea08cd144520dbfb89dec78fca63e487b",
    ("gauss", "fastregvol", 1.0): "7cb7537987cedcbb5946c1311cb5d9a538b479ea8077d7ba10a387d918cccfa2",
    ("cond", "regvol", 0.0): "88018192ba450cad6eb200b419663b630141caa3a8d5926aedbe83a6eb05ee8c",
    ("cond", "fastregvol", 0.0): "b9966766d646a2bfd9bfb8beb6a1c7bc8ccbbfefcac240b10ceb9f4d1999a2a4",
    ("cond", "regvol", 1e-8): "eac89aa2cebb54ca871f999f9246091ce6dbfb35040aa58daf0a882926fefcd4",
    ("cond", "fastregvol", 1e-8): "354a1b1197e825f601443a96cd823cd8f90b495073678e1897537da59addb953",
    ("dup", "regvol", 0.0): "08cbcfa532c1f147c08c9e4ded05dcefcca08317edf54be58e54f13a4f577c9c",
    ("dup", "fastregvol", 0.0): "3251687d138d5285dd37b6cf9d0a527b043545b6dd71ae22545d6c82c27ca70d",
}
# inverses the fast sampler's rejection phase rebuilds per draw (seeds 0-9):
# its resyncs, as s = 2d leaves no weighted tail
FAST_RESYNCS = {
    ("gauss", 0.0): [15, 15, 17, 15, 14, 14, 14, 15, 14, 14],
    ("gauss", 1.0): [13, 14, 16, 14, 14, 14, 13, 15, 13, 14],
    ("cond", 0.0): [14, 15, 13, 13, 16, 15, 14, 15, 15, 16],
    ("cond", 1e-8): [11, 12, 12, 12, 12, 12, 12, 12, 13, 12],
    ("dup", 0.0): [14, 13, 16, 16, 15, 13, 15, 16, 16, 14],
}
# where a fastregvol draw leaves the caller's generator: sha256 over the
# rng.random() that follows the draw, seeds 0-9 (s = LARGE_S), and for a
# PCG64-free generator sha256 over (indices, removal_order,
# rejection_trials, next random()); recorded when the rejection phase made
# one scalar integers/random pair per proposal
FOLLOW_DIGESTS = {
    ("gauss", 0.0): "23763f30572e005002931ad27ace6a8fbc233c95b282951e1b93595fd86aa86b",
    ("gauss", 1.0): "33031c398da2f9133cee514f07cc645237bd8d5db9b2b8b07dfbd3fce615f5f4",
    ("cond", 0.0): "b8a8002d4efb5ba3f1388c4c12b7bb3b6d7b7a12657075a9283618d2da104055",
    ("cond", 1.0): "5c2793f49e3af4f5e6a8eb9076e8f3d956d8d800342f030134cb58ec0069c1e3",
    ("dup", 0.0): "283b413ca661a764d87af63ef10b49c7ddeb6bd7d771990c40e0c1646306adea",
    ("dup", 1.0): "39b766ea5b3f84e8f1e72c9c581599dacda344d12266bde7b0ccacfe0d6c7744",
}
MT19937_DIGEST = "781c20bd583df4b479046a7f038f8ec7803e37cb8b64fbb7005d7af57277a12f"


@pytest.fixture
def linalg_work(monkeypatch):
    """Counts the rows passed to linalg.gram and the linalg.inv_spd calls."""
    work = Counter()
    gram, inv_spd = linalg.gram, linalg.inv_spd

    def counted_gram(X, *args, **kwargs):
        work["gram_rows"] += np.shape(X)[0]
        return gram(X, *args, **kwargs)

    def counted_inv_spd(*args, **kwargs):
        work["inv_spd"] += 1
        return inv_spd(*args, **kwargs)

    monkeypatch.setattr(linalg, "gram", counted_gram)
    monkeypatch.setattr(linalg, "inv_spd", counted_inv_spd)
    return work


class TestRefreshSchedule:
    @pytest.mark.parametrize("design,algorithm,lam", list(LARGE_DIGESTS))
    def test_large_draws_pinned(self, design, algorithm, lam, linalg_work):
        draws, refreshes = [], []
        for seed in range(10):
            linalg_work.clear()
            cfg = SamplerConfig(s=LARGE_S, lam=lam, seed=seed, algorithm=algorithm)
            draws.append(sampling.sample(LARGE_X[design], cfg))
            refreshes.append(linalg_work["inv_spd"] - 1)  # one inverse at init
        text = repr([(d.indices, d.removal_order, d.rejection_trials) for d in draws])
        assert hashlib.sha256(text.encode()).hexdigest() == LARGE_DIGESTS[design, algorithm, lam]
        if algorithm == "fastregvol":
            assert refreshes == FAST_RESYNCS[design, lam]
        elif design == "cond":
            # the drift guard keeps the fixed max(d, 64) interval
            assert refreshes == [(LARGE_N - LARGE_S) // 64] * 10
        else:
            assert max(refreshes) <= 40

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    @pytest.mark.parametrize("algorithm,n", [("fastregvol", 4000), ("fastregvol", 16000),
                                             ("fastregvol", 64000), ("regvol", 4000),
                                             ("regvol", 16000)])
    def test_gram_work_linear_in_n(self, algorithm, n, lam, linalg_work):
        X = np.random.default_rng(n).standard_normal((n, 10))
        sampling.sample(X, SamplerConfig(s=10, lam=lam, seed=0, algorithm=algorithm))
        # a fixed interval of 64 would feed gram about n^2 / 128 rows
        assert linalg_work["gram_rows"] <= 12 * n

    @pytest.mark.parametrize("design", ["gauss", "cond"])
    @pytest.mark.parametrize("keep_weights", [False, True])
    def test_drift_bounds_weight_error(self, design, keep_weights):
        state = sampling.init_downdate_state(LARGE_X[design])
        state.refresh_every = LARGE_N  # no refresh while removing
        rng = np.random.default_rng(1)
        for _ in range(500):
            sampling.remove_row(state, sampling._pick_weighted(state.h[: state.size], rng))
        h_old = state.h[: state.size].copy()
        if not keep_weights:
            # the weights a rebuild gives: the weight term of the drift
            # reads exactly 0, so only Z's drift is tested
            state.h[: state.size] = sampling._rebuild(state.rows[: state.size], state.lam)[2]
        Z_old = state.Z.copy()
        drift = sampling._refresh(state)
        err = np.abs(linalg.quad_forms(state.rows[: state.size], Z_old - state.Z))
        assert 0.0 < err.max() <= drift
        if keep_weights:
            assert np.abs(h_old - state.h[: state.size]).max() <= drift

    @pytest.mark.parametrize("design,interval", [("gauss", (LARGE_N - 64) // 8),
                                                 ("cond", 64)])
    def test_interval_follows_drift(self, design, interval):
        state = sampling.init_downdate_state(LARGE_X[design])
        assert state.refresh_every == 64
        rng = np.random.default_rng(2)
        for _ in range(64):  # the 64th removal refreshes
            sampling.remove_row(state, sampling._pick_weighted(state.h[: state.size], rng))
        assert state.downdates_since_refresh == 0
        assert state.refresh_every == interval
        # a uniform removal leaves Z stale, so the next refresh reads dirty
        sampling._swap_out(state, 0)
        assert sampling._refresh(state) > sampling.DRIFT_TOL
        assert state.refresh_every == 64


class _CountingRng:
    """A Generator stand-in that counts the draws the rejection phase makes."""

    def __init__(self, rng):
        self.rng = rng
        self.calls = Counter()

    def integers(self, *args, **kwargs):
        self.calls["integers"] += 1
        return self.rng.integers(*args, **kwargs)

    def random(self, *args, **kwargs):
        self.calls["random"] += 1
        return self.rng.random(*args, **kwargs)


class TestRejectionCap:
    def test_collapsed_weights_raise_after_the_cap(self, monkeypatch):
        # every leverage 1: every weight 0, so every proposal is rejected
        monkeypatch.setattr(linalg, "quad_forms", lambda rows, Z: np.ones(len(rows)))
        X = fixtures.gaussian_matrix(200, 3, seed=4)
        rng = _CountingRng(np.random.default_rng(0))
        with pytest.raises(AllWeightsZero):
            sampling.fast_reg_vol_sample(X, SamplerConfig(s=3, algorithm="fastregvol"), rng)
        assert rng.calls == {"integers": sampling.REJECTION_CAP,
                             "random": sampling.REJECTION_CAP}


def _pcg64(state):
    """A PCG64 Generator set to ``state``."""
    bitgen = np.random.PCG64()
    bitgen.state = state
    return np.random.Generator(bitgen)


class _ScalarCountingRng(_CountingRng):
    """A _CountingRng that shows its PCG64 bit generator, so _proposals
    decodes raw output and the counts are its scalar fallbacks."""

    def __init__(self, rng):
        super().__init__(rng)
        self.bit_generator = rng.bit_generator


class TestProposalReplay:
    """The rejection phase reads its (integers(k), random()) pairs from raw
    PCG64 output (``_proposals``); pairs, samples and the generator state
    equal those of the scalar calls."""

    PAIRS = 40

    @pytest.mark.parametrize("buffered", [0, 1])
    @pytest.mark.parametrize("k", [1, 2, 7, 10**5, 2**31 + 1, 3 * 10**9, 2**32 - 1])
    def test_pairs_and_state_equal_scalar_calls(self, k, buffered, monkeypatch):
        # blocks of up to 19 proposals: block ends at both buffer states
        monkeypatch.setattr(sampling, "REPLAY_MIN", 1)
        cutoff = max(k - 16, 1) if k > 1 else 0  # k = 1 reads no word: scalar calls
        start = np.random.default_rng(k)
        if buffered:
            start.integers(5)
        start = start.bit_generator.state
        assert start["has_uint32"] == buffered
        scalar = _pcg64(start)
        want, states = [], [scalar.bit_generator.state]
        for _ in range(self.PAIRS):
            want.append((scalar.integers(k), scalar.random()))
            states.append(scalar.bit_generator.state)
        for j in range(self.PAIRS + 1):
            rng = _ScalarCountingRng(_pcg64(start))
            source = sampling._proposals(rng, cutoff)
            next(source)
            got = [source.send(k) for _ in range(j)]
            source.close()
            assert got == want[:j]
            assert rng.bit_generator.state == states[j]
        calls = rng.calls["integers"]
        assert calls == rng.calls["random"]
        if k == 1:
            assert calls == self.PAIRS
        elif k == 2**31 + 1:  # a redraw at about every other word
            assert 0 < calls < self.PAIRS
        elif k <= 10**5:
            assert calls == 0

    @pytest.mark.parametrize("design", sorted(LARGE_X))
    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_draws_equal_scalar_call_draws(self, design, lam):
        cfg = SamplerConfig(s=LARGE_S, lam=lam, algorithm="fastregvol")
        for seed in range(3):
            replayed = np.random.default_rng(seed)
            scalar = _CountingRng(np.random.default_rng(seed))  # no bit_generator
            assert (sampling.sample(LARGE_X[design], cfg, replayed)
                    == sampling.sample(LARGE_X[design], cfg, scalar))
            assert replayed.bit_generator.state == scalar.rng.bit_generator.state

    @pytest.mark.parametrize("design,lam", list(FOLLOW_DIGESTS))
    def test_caller_stream_pinned(self, design, lam):
        follow = []
        for seed in range(10):
            rng = np.random.default_rng(seed)
            cfg = SamplerConfig(s=LARGE_S, lam=lam, seed=seed, algorithm="fastregvol")
            sampling.sample(LARGE_X[design], cfg, rng)
            follow.append(rng.random())
        text = repr(follow)
        assert hashlib.sha256(text.encode()).hexdigest() == FOLLOW_DIGESTS[design, lam]

    def test_other_bit_generator_pinned(self):
        rng = np.random.Generator(np.random.MT19937(0))
        smp = sampling.sample(LARGE_X["gauss"], SamplerConfig(s=LARGE_S, algorithm="fastregvol"),
                              rng)
        text = repr((smp.indices, smp.removal_order, smp.rejection_trials, rng.random()))
        assert hashlib.sha256(text.encode()).hexdigest() == MT19937_DIGEST

    def test_collapsed_weights_leave_the_scalar_state(self, monkeypatch):
        # as TestRejectionCap, with n - 2d above REPLAY_MIN and a PCG64 generator
        monkeypatch.setattr(linalg, "quad_forms", lambda rows, Z: np.ones(len(rows)))
        n = 1200
        X = fixtures.gaussian_matrix(n, 3, seed=4)
        rng = np.random.default_rng(0)
        # ``raised`` holds the traceback and so the phase's frame: the state
        # must be set before the exception leaves the phase
        with pytest.raises(AllWeightsZero) as raised:
            sampling.fast_reg_vol_sample(X, SamplerConfig(s=3, algorithm="fastregvol"), rng)
        scalar = np.random.default_rng(0)
        for _ in range(sampling.REJECTION_CAP):
            scalar.integers(n)
            scalar.random()
        assert rng.bit_generator.state == scalar.bit_generator.state
        assert f"with {n} rows left" in str(raised.value)


class TestDeferredBracket:
    """A weight h0 at the last sync brackets the current weight h after the
    block B is removed: _weight_floor(h0, mu) <= h <= h0 for any mu >=
    lambda_max(G0^{-1/2} B'B G0^{-1/2}), the trace bound and the exact
    eigenvalue alike."""

    @staticmethod
    def assert_bracket(X, lam, state, mu):
        act = state.active[: state.size]
        Z = linalg.inv_spd(linalg.gram(X[act], lam))
        fresh = np.clip(1.0 - linalg.quad_forms(X[act], Z), 0.0, 1.0)
        h0 = state.h[: state.size]
        assert 0.0 <= mu < 1.0
        # roundoff of the weights themselves: up to 1e-7 on the cond design
        assert np.all(sampling._weight_floor(h0, mu) <= fresh + 1e-6)
        assert np.all(fresh <= h0 + 1e-6)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(sorted(LARGE_X)), st.sampled_from([0.0, 1.0]),
           st.integers(0, 2**32 - 1), st.integers(1, 150), st.integers(0, 1400))
    def test_sync_weights_bracket_fresh_weights(self, design, lam, seed, m1, m2):
        X = LARGE_X[design]
        state = sampling.init_downdate_state(X, lam)
        state.deferred = True
        block = sampling._RemovedBlock(state)
        rng = np.random.default_rng(seed)

        def remove(count, trace_cap):
            for _ in range(count):
                pos = int(rng.integers(state.size))
                ell = 1.0 - state.h[pos]
                if block.mu + ell >= trace_cap:
                    return
                sampling.remove_row(state, pos)
                block.mu += ell

        # a block whose trace bound stays below the resync threshold
        remove(m1, sampling.MU_RESYNC)
        self.assert_bracket(X, lam, state, block.mu)
        # a longer block, bounded by its exact eigenvalue; past MU_RESYNC
        # only the last removal by rejection sees it, and past 1 none
        remove(m2, np.inf)
        block.tighten(state)
        if block.mu >= 1.0:
            return
        self.assert_bracket(X, lam, state, block.mu)


class _FixedRng:
    """A Generator stand-in whose ``random`` returns one given uniform."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


# a grid of uniforms with both ends of [0, 1)
PICK_UNIFORMS = [0.0, np.nextafter(1.0, 0.0), *np.linspace(0.0, 1.0, 97)[1:-1]]


def _pick_weights(block):
    """Weight vectors for a two-level pick with blocks of ``block`` rows."""
    k = 4 * block + 1  # the last block is short
    h = np.random.default_rng(block).random(k)
    sparse = h.copy()
    sparse[::3] = 0.0
    first, middle, last = h.copy(), h.copy(), h.copy()
    first[:block] = 0.0
    middle[2 * block:3 * block] = 0.0
    last[3 * block:] = 0.0
    one = np.zeros(k)
    one[k // 2] = 0.7
    return {"dense": h, "sparse": sparse, "first": first, "middle": middle,
            "last": last, "one": one}


class TestTwoLevelPick:
    """Above PICK_TWO_LEVEL rows _pick_weighted inverts block sums, then one
    block; the tests set both constants to the block size."""

    @pytest.fixture
    def blocks(self, monkeypatch):
        def set_block(block):
            monkeypatch.setattr(sampling, "PICK_BLOCK", block)
            monkeypatch.setattr(sampling, "PICK_TWO_LEVEL", block)
        return set_block

    @pytest.mark.parametrize("block", [2, 3, 5])
    def test_matches_one_level(self, block, blocks):
        for name, h in _pick_weights(block).items():
            k = h.shape[0]
            c = h.cumsum()
            total = c[-1]
            tol = 4 * k * np.finfo(float).eps * total
            # cursors on the row boundaries too, where the two may differ
            compared = 0
            for u in PICK_UNIFORMS + [x / total for x in c if x < total]:
                blocks(k)
                want = sampling._pick_weighted(h, _FixedRng(u))
                blocks(block)
                got = sampling._pick_weighted(h, _FixedRng(u))
                assert 0 <= got < k and h[got] > 0.0, (name, u, got)
                if np.abs(c - u * total).min() > tol:
                    assert got == want, (name, u)
                    compared += 1
            assert compared >= len(PICK_UNIFORMS) // 2

    def test_zero_weights_give_no_pick(self, blocks):
        blocks(3)
        assert sampling._pick_weighted(np.zeros(10), _FixedRng(0.5)) == -1

    # block sums 1.8766..., 2.0015... whose running sum rounds up: the
    # largest cursor below it, less the first block's sum, equals the second
    # block's sum, which is also its last prefix sum
    OVERSHOOT = [0.12565512106399138, 1.0009136907627074, 0.7500652704164112,
                 0.5008349882039584, 0.8753818147799662, 0.6253255456161007]

    def test_cursor_past_block_end_is_clamped(self, blocks):
        blocks(3)
        h = np.array(self.OVERSHOOT)
        u = np.nextafter(1.0, 0.0)
        cs = np.add.reduceat(h, [0, 3]).cumsum()
        assert u * cs[-1] - cs[0] >= h[3:].cumsum()[-1]
        assert sampling._pick_weighted(h, _FixedRng(u)) == 5


class TestRowLayout:
    def test_rows_column_major(self):
        state = sampling.init_downdate_state(LARGE_X["gauss"])
        assert state.rows.flags.f_contiguous
        assert state.copy().rows.flags.f_contiguous

    @pytest.mark.parametrize("algorithm", ["regvol", "fastregvol"])
    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_copied_state_draws_as_fresh(self, algorithm, lam):
        X = LARGE_X["gauss"]
        base = sampling.init_downdate_state(X, lam)
        cfg = SamplerConfig(s=LARGE_S, lam=lam, seed=12, algorithm=algorithm)
        for child in np.random.SeedSequence(cfg.seed).spawn(2):
            fresh = sampling.sample(X, cfg, np.random.default_rng(child))
            copied = sampling.sample(X, cfg, np.random.default_rng(child),
                                     _state=base.copy())
            assert copied.indices == fresh.indices
            assert copied.removal_order == fresh.removal_order
            assert copied.rejection_trials == fresh.rejection_trials
