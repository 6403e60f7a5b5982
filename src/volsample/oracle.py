"""Ground-truth machinery: exact subset distributions and identity checks.

Two independent routes to the exact law of a size-s sample:

* ``closed_form`` (lam=0 only): enumerate every subset, weight by
  det(X_S'X_S) in log-space, normalize with log-sum-exp.
* ``dag``: propagate probabilities level by level through the removal
  graph, applying the conditional removal weights at every node.  This is
  the only exact route for lam>0, where subsets reached along different
  removal orders no longer share a single path probability formula.

On top of the exact law sits a catalog of expectation identities
(pseudoinverse unbiasedness, inverse-covariance factor, marginals,
composition under subsampling, the regularized inverse bound, ...), each
evaluated as an explicit weighted sum over the support and compared with
its closed form.  Enumeration limits are hard errors -- the oracle never
approximates.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.special import logsumexp

from . import linalg, sampling
from .errors import (
    NotPositiveDefinite,
    TooLarge,
    UnsupportedCombination,
)
from .linalg import WEIGHT_ZERO_TOL

MAX_SUBSETS = 10**6
# below this many draws an empirical test runs in-process: starting worker
# processes would cost more than it saves
PARALLEL_MIN_DRAWS = 10_000


@dataclass(frozen=True)
class ExactSubsetDistribution:
    """Exact log-space law over size-s subsets (zero-probability sets omitted)."""

    n: int
    s: int
    lam: float
    method: str  # "closed_form" | "dag"
    log_probs: dict[tuple[int, ...], float]

    def prob(self, subset) -> float:
        key = tuple(sorted(int(i) for i in subset))
        lp = self.log_probs.get(key)
        return math.exp(lp) if lp is not None else 0.0

    def support(self) -> list[tuple[int, ...]]:
        return sorted(self.log_probs)

    def items(self):
        for S in sorted(self.log_probs):
            yield S, math.exp(self.log_probs[S])


@dataclass
class IdentityReport:
    identity: str
    lhs: object
    rhs: object
    max_abs_dev: float
    max_rel_dev: float
    mode: str = "equality"  # or "inequality"
    psd_margin: Optional[float] = None
    detail: dict = field(default_factory=dict)


def _check_enumeration_size(count: int) -> None:
    if count > MAX_SUBSETS:
        raise TooLarge(f"{count} subsets exceeds the {MAX_SUBSETS} guardrail")


def subset_logdet_table(X, sizes, lam: float = 0.0) -> dict[tuple[int, ...], float]:
    """log det(X_S'X_S + lam*I) for every subset of the given sizes.

    Singular subsets map to -inf.
    """
    X = linalg.as_matrix(X)
    n = X.shape[0]
    total = sum(math.comb(n, t) for t in sizes)
    _check_enumeration_size(total)
    table: dict[tuple[int, ...], float] = {}
    for t in sizes:
        for S in itertools.combinations(range(n), t):
            G = linalg.gram(X[list(S)], lam)
            try:
                table[S] = linalg.chol_logdet(G)
            except NotPositiveDefinite:
                table[S] = -math.inf
    return table


def _closed_form_distribution(X, s: int) -> ExactSubsetDistribution:
    X = linalg.as_matrix(X)
    n, d = X.shape
    if not d <= s <= n:
        raise UnsupportedCombination(f"closed form needs d <= s <= n, got s={s}")
    # raises NotPositiveDefinite when X is rank deficient
    linalg.chol_logdet(linalg.gram(X))
    table = subset_logdet_table(X, [s])
    finite = {S: ld for S, ld in table.items() if ld > -math.inf}
    log_norm = logsumexp(list(finite.values()))
    probs = {S: ld - log_norm for S, ld in finite.items()}
    return ExactSubsetDistribution(n=n, s=s, lam=0.0, method="closed_form",
                                   log_probs=probs)


def _node_removal_distribution(X_S: np.ndarray, lam: float, d: int):
    """Conditional removal probabilities at one node.

    Returns (probs, raw_h, trace_Z) where raw_h are the unclamped weights
    and trace_Z is None at singular lam=0 nodes (uniform fallback).
    """
    t = X_S.shape[0]
    try:
        Z = linalg.inv_spd(linalg.gram(X_S, lam))
    except NotPositiveDefinite:
        return np.full(t, 1.0 / t), None, None
    raw = 1.0 - linalg.quad_forms(X_S, Z)
    h = np.clip(raw, 0.0, 1.0)
    h[h < WEIGHT_ZERO_TOL] = 0.0
    total = h.sum()
    if total <= WEIGHT_ZERO_TOL:
        return np.full(t, 1.0 / t), raw, float(np.trace(Z))
    return h / total, raw, float(np.trace(Z))


def dag_level_distributions(X, lam: float, s_min: int) -> dict[int, dict[tuple[int, ...], float]]:
    """Propagate log-probabilities from the full set down to level s_min.

    Returns {level: {subset: log_prob}}; zero-probability nodes are pruned
    as soon as they appear.
    """
    X = linalg.as_matrix(X)
    n, d = X.shape
    if not 0 <= s_min <= n:
        raise UnsupportedCombination(f"need 0 <= s <= n, got s={s_min}")
    _check_enumeration_size(sum(math.comb(n, t) for t in range(s_min, n + 1)))
    level: dict[tuple[int, ...], float] = {tuple(range(n)): 0.0}
    levels = {n: level}
    for t in range(n, s_min, -1):
        children: dict[tuple[int, ...], list[float]] = {}
        for S, logp in level.items():
            probs, _, _ = _node_removal_distribution(X[list(S)], lam, d)
            for pos, i in enumerate(S):
                p = probs[pos]
                if p <= 0.0:
                    continue
                child = S[:pos] + S[pos + 1:]
                children.setdefault(child, []).append(logp + math.log(p))
        level = {S: float(logsumexp(ls)) for S, ls in children.items()}
        levels[t - 1] = level
    return levels


def _dag_distribution(X, s: int, lam: float) -> ExactSubsetDistribution:
    X = linalg.as_matrix(X)
    n, d = X.shape
    if lam == 0.0 and not d <= s <= n:
        raise UnsupportedCombination("lam=0 requires d <= s <= n")
    levels = dag_level_distributions(X, lam, s)
    return ExactSubsetDistribution(n=n, s=s, lam=lam, method="dag",
                                   log_probs=levels[s])


def exact_distribution(X, s: int, lam: float = 0.0,
                       method: Optional[str] = None) -> ExactSubsetDistribution:
    """Exact size-s law; closed form for lam=0, DAG propagation otherwise."""
    if method is None:
        method = "closed_form" if lam == 0.0 else "dag"
    if method == "closed_form":
        if lam != 0.0:
            raise UnsupportedCombination("closed form is only exact at lam=0")
        return _closed_form_distribution(X, s)
    if method == "dag":
        return _dag_distribution(X, s, lam)
    raise UnsupportedCombination(f"unknown method {method!r}")


def d_lambda(X, lam: float) -> float:
    """Statistical dimension: sum of ev/(ev+lam) over eigenvalues of X'X."""
    X = linalg.as_matrix(X)
    ev = np.linalg.eigvalsh(linalg.gram(X))
    if lam == 0.0:
        if ev[0] <= linalg.PD_PIVOT_RTOL * max(ev[-1], 0.0):
            raise NotPositiveDefinite("rank-deficient X with lam=0")
        return float(X.shape[1])
    ev = np.clip(ev, 0.0, None)
    return float(np.sum(ev / (ev + lam)))


# ---------------------------------------------------------------------------
# identity catalog
# ---------------------------------------------------------------------------


def _deviation_report(identity, lhs, rhs, mode="equality", detail=None) -> IdentityReport:
    la, ra = np.atleast_1d(np.asarray(lhs, dtype=float)), np.atleast_1d(np.asarray(rhs, dtype=float))
    max_abs = float(np.max(np.abs(la - ra)))
    scale = float(np.max(np.abs(ra)))
    max_rel = max_abs / scale if scale > 0 else max_abs
    psd_margin = None
    if mode == "inequality":
        diff = np.asarray(rhs, dtype=float) - np.asarray(lhs, dtype=float)
        if diff.ndim == 2:
            psd_margin = float(np.linalg.eigvalsh(0.5 * (diff + diff.T))[0])
        else:
            psd_margin = float(np.min(diff))
    return IdentityReport(identity=identity, lhs=lhs, rhs=rhs,
                          max_abs_dev=max_abs, max_rel_dev=max_rel,
                          mode=mode, psd_margin=psd_margin,
                          detail=detail or {})


def _pinv_embedded(X, S) -> np.ndarray:
    """(X_S)^+ placed at columns S of a d x n matrix (zeros elsewhere)."""
    n, d = X.shape
    rows = list(S)
    P = np.zeros((d, n))
    P[:, rows] = linalg.solve_spd(linalg.gram(X[rows]), X[rows].T)
    return P


def _subset_solve(X, y, S) -> np.ndarray:
    rows = list(S)
    Xs = X[rows]
    return linalg.solve_spd(linalg.gram(Xs), Xs.T @ y[rows])


def cauchy_binet_check(X, s: int) -> IdentityReport:
    """Sum of subset volumes vs C(n-d, s-d) * det(X'X), in log-space."""
    X = linalg.as_matrix(X)
    n, d = X.shape
    if not d <= s <= n:
        raise UnsupportedCombination("needs d <= s <= n")
    table = subset_logdet_table(X, [s])
    lhs = float(logsumexp(list(table.values())))
    rhs = math.log(math.comb(n - d, s - d)) + linalg.chol_logdet(linalg.gram(X))
    max_abs = abs(lhs - rhs)
    max_rel = abs(math.expm1(lhs - rhs))
    return IdentityReport(identity="CAUCHY_BINET", lhs=lhs, rhs=rhs,
                          max_abs_dev=max_abs, max_rel_dev=max_rel,
                          detail={"log_space": True})


def _expect_over(dist: ExactSubsetDistribution, fn):
    acc = None
    for S, p in dist.items():
        val = fn(S)
        acc = p * val if acc is None else acc + p * val
    return acc


def _identity_pseudoinv(X, dist):
    lhs = _expect_over(dist, lambda S: _pinv_embedded(X, S))
    rhs = linalg.solve_spd(linalg.gram(X), X.T)
    return _deviation_report("PSEUDOINV_UNBIASED", lhs, rhs)


def _identity_cov_inverse(X, dist, equality):
    n, d = X.shape
    s = dist.s
    lhs = _expect_over(dist, lambda S: linalg.inv_spd(linalg.gram(X[list(S)])))
    rhs = (n - d + 1) / (s - d + 1) * linalg.inv_spd(linalg.gram(X))
    return _deviation_report("COV_INVERSE", lhs, rhs,
                             mode="equality" if equality else "inequality")


def _identity_frobenius(X, dist, equality):
    n, d = X.shape
    s = dist.s
    lhs = _expect_over(dist, lambda S: np.trace(linalg.inv_spd(linalg.gram(X[list(S)]))))
    rhs = (n - d + 1) / (s - d + 1) * np.trace(linalg.inv_spd(linalg.gram(X)))
    return _deviation_report("FROBENIUS", float(lhs), float(rhs),
                             mode="equality" if equality else "inequality")


def _identity_covariance(X, dist, equality):
    n, d = X.shape
    s = dist.s
    invG = linalg.inv_spd(linalg.gram(X))
    lhs = _expect_over(dist, lambda S: linalg.inv_spd(linalg.gram(X[list(S)]))) - invG
    rhs = (n - s) / (s - d + 1) * invG
    return _deviation_report("COVARIANCE", lhs, rhs,
                             mode="equality" if equality else "inequality")


def _identity_proj_square(X, dist, equality):
    n, d = X.shape
    if dist.s != d:
        raise UnsupportedCombination("PROJ_SQUARE is defined at s = d only")
    P_X = X @ linalg.solve_spd(linalg.gram(X), X.T)

    def f(S):
        # X(I_S X)^+ is an oblique projection; its Gram B'B carries the
        # second-moment content (B@B would collapse back to B)
        B = X @ _pinv_embedded(X, S)
        return B.T @ B

    lhs = _expect_over(dist, f) - P_X
    rhs = d * (np.eye(n) - P_X)
    return _deviation_report("PROJ_SQUARE", lhs, rhs,
                             mode="equality" if equality else "inequality")


def _identity_loss_factor(X, y, dist, equality):
    n, d = X.shape
    if dist.s != d:
        raise UnsupportedCombination("LOSS_FACTOR is defined at s = d only")
    w_full = linalg.solve_spd(linalg.gram(X), X.T @ y)
    opt_loss = float(np.sum((X @ w_full - y) ** 2))
    lhs = _expect_over(
        dist, lambda S: float(np.sum((X @ _subset_solve(X, y, S) - y) ** 2))
    )
    rhs = (d + 1) * opt_loss
    return _deviation_report("LOSS_FACTOR", float(lhs), rhs,
                             mode="equality" if equality else "inequality")


def _identity_marginals(X, dist):
    n = X.shape[0]
    lhs = np.zeros(n)
    for S, p in dist.items():
        for i in S:
            lhs[i] += p
    rhs = sampling.marginal_probabilities(X, dist.s)
    return _deviation_report("MARGINALS", lhs, rhs)


def _identity_composition(X, s: int):
    """Two-stage law (size t, then size s from the selected rows) vs one-stage.

    Checked for every intermediate size t; both stages normalized by
    explicit log-sum-exp so the check does not presuppose the volume
    normalization identity.
    """
    X = linalg.as_matrix(X)
    n, d = X.shape
    table = subset_logdet_table(X, range(s, n + 1))
    one_stage = _closed_form_distribution(X, s).log_probs
    worst = (0.0, 0.0, None)
    for t in range(s, n + 1):
        stage1 = {S: ld for S, ld in table.items() if len(S) == t and ld > -math.inf}
        norm1 = logsumexp(list(stage1.values()))
        two_stage: dict[tuple[int, ...], list[float]] = {}
        for T, ldT in stage1.items():
            subs = list(itertools.combinations(T, s))
            lds = np.array([table[S] for S in subs])
            finite = lds > -math.inf
            norm2 = logsumexp(lds[finite])
            for S, ld in zip(subs, lds):
                if ld == -math.inf:
                    continue
                two_stage.setdefault(S, []).append((ldT - norm1) + (ld - norm2))
        for S, parts in two_stage.items():
            p2 = math.exp(logsumexp(parts))
            p1 = math.exp(one_stage.get(S, -math.inf))
            dev = abs(p2 - p1)
            if dev > worst[0]:
                worst = (dev, p1, (t, S))
        for S, lp in one_stage.items():
            if S not in two_stage:
                dev = math.exp(lp)
                if dev > worst[0]:
                    worst = (dev, math.exp(lp), (t, S))
    max_abs, ref, where = worst
    return IdentityReport(identity="COMPOSITION", lhs=None, rhs=None,
                          max_abs_dev=max_abs, max_rel_dev=max_abs,
                          detail={"worst": where})


def _identity_reg_inverse_bound(X, dist):
    n, d = X.shape
    s, lam = dist.s, dist.lam
    dlam = d_lambda(X, lam)
    if s < dlam:
        raise UnsupportedCombination(
            f"bound requires s >= d_lambda = {dlam:.3f}, got s={s}"
        )
    lhs = _expect_over(dist, lambda S: linalg.inv_spd(linalg.gram(X[list(S)], lam)))
    rhs = (n - dlam + 1) / (s - dlam + 1) * linalg.inv_spd(linalg.gram(X, lam))
    return _deviation_report("REG_INVERSE_BOUND", lhs, rhs, mode="inequality",
                             detail={"d_lambda": dlam})


def _identity_normalization(X, s: int, lam: float):
    """Weight-sum identity |S| - d + lam*tr(Z) at every propagated node."""
    X = linalg.as_matrix(X)
    n, d = X.shape
    levels = dag_level_distributions(X, lam, s)
    max_abs = 0.0
    worst = None
    for t in range(n, s - 1, -1):
        for S in levels[t]:
            _, raw, trZ = _node_removal_distribution(X[list(S)], lam, d)
            if raw is None:
                continue  # singular node: uniform fallback, no weight identity
            expected = len(S) - d + lam * trZ
            dev = abs(float(raw.sum()) - expected)
            if dev > max_abs:
                max_abs, worst = dev, (t, S)
    return IdentityReport(identity="NORMALIZATION", lhs=None, rhs=None,
                          max_abs_dev=max_abs, max_rel_dev=max_abs,
                          detail={"worst": worst})


def verify_identity(identity: str, X, y=None, s: Optional[int] = None,
                    lam: float = 0.0, equality: bool = True,
                    dist: Optional[ExactSubsetDistribution] = None) -> IdentityReport:
    """Evaluate one catalog identity against the exact subset law.

    ``equality`` selects equality vs PSD-inequality mode for the
    identities whose exact form needs full support (or general position);
    fixtures carry that label, it is not auto-detected.
    """
    X = linalg.as_matrix(X)
    if identity == "CAUCHY_BINET":
        return cauchy_binet_check(X, s)
    if identity == "COMPOSITION":
        return _identity_composition(X, s)
    if identity == "NORMALIZATION":
        return _identity_normalization(X, s, lam)
    if dist is None:
        dist = exact_distribution(X, s, lam)
    if identity != "REG_INVERSE_BOUND" and dist.lam != 0.0:
        raise UnsupportedCombination(
            f"{identity} is an unregularized identity (lam must be 0)")
    if identity == "PSEUDOINV_UNBIASED":
        return _identity_pseudoinv(X, dist)
    if identity == "COV_INVERSE":
        return _identity_cov_inverse(X, dist, equality)
    if identity == "FROBENIUS":
        return _identity_frobenius(X, dist, equality)
    if identity == "COVARIANCE":
        return _identity_covariance(X, dist, equality)
    if identity == "PROJ_SQUARE":
        return _identity_proj_square(X, dist, equality)
    if identity == "LOSS_FACTOR":
        if y is None:
            raise UnsupportedCombination("LOSS_FACTOR needs a response vector")
        return _identity_loss_factor(X, linalg.as_vector(y), dist, equality)
    if identity == "MARGINALS":
        return _identity_marginals(X, dist)
    if identity == "REG_INVERSE_BOUND":
        return _identity_reg_inverse_bound(X, dist)
    raise UnsupportedCombination(f"unknown identity {identity!r}")


# ---------------------------------------------------------------------------
# sampling against the exact law
# ---------------------------------------------------------------------------


def oracle_sample(X, s: int, lam: float = 0.0,
                  rng: Optional[np.random.Generator] = None,
                  seed: int = 0,
                  dist: Optional[ExactSubsetDistribution] = None) -> sampling.SubsetSample:
    """Draw one subset directly from the enumerated exact law.

    ``dist`` is that law, ``exact_distribution(X, s, lam)``, when the
    caller has built it already; it is enumerated here otherwise.
    """
    rng = rng if rng is not None else np.random.default_rng(seed)
    if dist is None:
        dist = exact_distribution(X, s, lam)
    subsets = dist.support()
    probs = np.array([math.exp(dist.log_probs[S]) for S in subsets])
    c = np.cumsum(probs)
    pos = int(np.searchsorted(c, rng.random() * c[-1], side="right"))
    pos = min(pos, len(subsets) - 1)
    return sampling.SubsetSample(indices=subsets[pos], s=s, lam=lam,
                                 algorithm="oracle", seed=seed)


@dataclass
class EmpiricalDistributionReport:
    algorithm: str
    draws: int
    tv_distance: float
    chi_square: float
    dof: int
    counts: dict
    off_support_draws: int
    index_marginals: Optional[np.ndarray] = None


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


def _count_draws(X, cfg: sampling.SamplerConfig, start: int, stop: int,
                 base: Optional[sampling.DowndateState]) -> dict[tuple[int, ...], int]:
    """Subset counts of replicates start..stop-1, keyed in first-seen order.

    Replicate r draws from child r of SeedSequence(cfg.seed), spawned here
    so that a worker process receives two integers, not the streams.
    ``base`` is the volume samplers' initial state (None for leverage).
    """
    root = np.random.SeedSequence(cfg.seed, n_children_spawned=start)
    counts: dict[tuple[int, ...], int] = {}
    for child in root.spawn(stop - start):
        state = base.copy() if base is not None else None
        smp = sampling.sample(X, cfg, np.random.default_rng(child), _state=state)
        counts[smp.indices] = counts.get(smp.indices, 0) + 1
    return counts


def empirical_distribution_test(X, cfg: sampling.SamplerConfig,
                                draws: int) -> EmpiricalDistributionReport:
    """Compare empirical sampler output with the exact law.

    Volume samplers are compared subset-by-subset (total variation and
    chi-square over the exact support); the i.i.d. leverage baseline is
    compared on its per-index draw distribution.  The exact law is computed
    before any draw.  Replicate r uses an independent child stream of
    SeedSequence(cfg.seed), so the result is deterministic per seed and
    merge-order independent.

    From ``PARALLEL_MIN_DRAWS`` draws up, for every sampler, the replicates
    are cut into contiguous chunks, one per available CPU, and each chunk is
    counted in a worker process; the workers have exited when this returns,
    and a sampler error raised in one reaches the caller as the same
    exception class.  The chunk counts are merged in chunk order, which
    gives the serial run's counts in the serial run's first-seen order, so
    the report does not depend on how many CPUs there are.  Every volume
    draw starts from its own copy of one initial state (Z and all the
    weights, built once here), which the removals (``sampling.remove_row``)
    update in place; the fast sampler's rejection phase decides its first
    proposals from the copy's weights.
    """
    X = linalg.as_matrix(X)
    n, d = X.shape

    leverage = cfg.algorithm == "leverage"
    if leverage:
        scores = linalg.leverage_scores(X, cfg.lam)
        p = scores / scores.sum()
        base = None
    else:
        dist = exact_distribution(X, cfg.s, cfg.lam)
        # the initial inverse and weights depend only on (X, lam): build once,
        # hand every draw a cheap copy
        base = sampling.init_downdate_state(X, cfg.lam)
    chunks = _cpu_count() if draws >= PARALLEL_MIN_DRAWS else 1
    if chunks == 1:
        parts = [_count_draws(X, cfg, 0, draws, base)]
    else:
        # imported here, as it costs every CLI start about 7 ms otherwise
        from concurrent.futures import ProcessPoolExecutor

        bounds = [draws * j // chunks for j in range(chunks + 1)]
        with ProcessPoolExecutor(max_workers=chunks) as pool:
            futures = [pool.submit(_count_draws, X, cfg, lo, hi, base)
                       for lo, hi in zip(bounds, bounds[1:])]
            parts = [f.result() for f in futures]
    counts: dict[tuple[int, ...], int] = {}
    for part in parts:
        for S, c in part.items():
            counts[S] = counts.get(S, 0) + c
    marg = np.zeros(n)
    for S, c in counts.items():
        # unbuffered: a leverage multiset can repeat an index
        np.add.at(marg, np.asarray(S, dtype=np.intp), c)

    if leverage:
        total = marg.sum()
        emp = marg / total
        tv = 0.5 * float(np.abs(emp - p).sum())
        chi2 = float(np.sum((marg - total * p) ** 2 / (total * p)))
        return EmpiricalDistributionReport(
            algorithm=cfg.algorithm, draws=draws, tv_distance=tv,
            chi_square=chi2, dof=n - 1,
            counts={int(i): int(c) for i, c in enumerate(marg)},
            off_support_draws=0, index_marginals=emp)

    tv = 0.0
    chi2 = 0.0
    off_support = 0
    support = set(dist.support())
    for S in support | set(counts):
        p = dist.prob(S)
        c = counts.get(S, 0)
        tv += abs(c / draws - p)
        if S in support:
            expected = draws * p
            chi2 += (c - expected) ** 2 / expected
        else:
            off_support += c
    return EmpiricalDistributionReport(
        algorithm=cfg.algorithm, draws=draws, tv_distance=0.5 * tv,
        chi_square=chi2, dof=len(support) - 1,
        counts={S: c for S, c in sorted(counts.items())},
        off_support_draws=off_support, index_marginals=marg / draws)
