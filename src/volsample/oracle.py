"""Ground-truth machinery: exact subset distributions and identity checks.

Two independent routes to the exact law of a size-s sample:

* the closed form (``exact_distribution`` at lam=0): enumerate every
  subset, weight by det(X_S'X_S) in log-space, normalize with log-sum-exp.
* the removal DAG (``exact_distribution`` at lam>0): propagate
  probabilities level by level through the removal graph (a directed
  acyclic graph of subsets), applying the conditional removal weights at
  every node and keeping only the current level.  This is the only exact
  route for lam>0, where subsets reached along different removal orders no
  longer share a single path probability formula.

On top of the exact law sits a catalog of identities.  The expectation
identities (pseudoinverse unbiasedness, inverse-covariance factor,
marginals, the regularized inverse bound, ...) form one table of
functions, each giving an explicit weighted sum over the support and its
closed form; composition under subsampling, Cauchy-Binet and the weight
normalization enumerate their own subsets.  Enumeration limits are hard
errors -- the oracle never approximates.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import logsumexp

from . import linalg, regression, sampling
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

    s: int
    lam: float
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


def _check_enumeration_size(count: int) -> None:
    if count > MAX_SUBSETS:
        raise TooLarge(f"{count} subsets exceeds the {MAX_SUBSETS} guardrail")


def _check_levels(n: int, s: int) -> None:
    """Guard an enumeration of every subset of sizes s..n."""
    if not 0 <= s <= n:
        raise UnsupportedCombination(f"need 0 <= s <= n, got s={s}")
    _check_enumeration_size(sum(math.comb(n, t) for t in range(s, n + 1)))


def subset_logdet_table(X, sizes) -> dict[tuple[int, ...], float]:
    """log det(X_S'X_S) for every subset of the given sizes.

    Singular subsets map to -inf.
    """
    X = linalg.as_matrix(X)
    n = X.shape[0]
    total = sum(math.comb(n, t) for t in sizes)
    _check_enumeration_size(total)
    table: dict[tuple[int, ...], float] = {}
    for t in sizes:
        for S in itertools.combinations(range(n), t):
            G = linalg.gram(X[list(S)])
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
    return ExactSubsetDistribution(s=s, lam=0.0, log_probs=probs)


def _node_removal_distribution(X_S: np.ndarray, lam: float):
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


def _dag_distribution(X, s: int, lam: float) -> ExactSubsetDistribution:
    """Propagate log-probabilities from the full set down to level s.

    Only the current level is kept; zero-probability nodes are pruned as
    soon as they appear.
    """
    X = linalg.as_matrix(X)
    n, d = X.shape
    if lam == 0.0 and not d <= s <= n:
        raise UnsupportedCombination("lam=0 requires d <= s <= n")
    _check_levels(n, s)
    level: dict[tuple[int, ...], float] = {tuple(range(n)): 0.0}
    for _ in range(n, s, -1):
        children: dict[tuple[int, ...], list[float]] = {}
        for S, logp in level.items():
            probs, _, _ = _node_removal_distribution(X[list(S)], lam)
            for pos, i in enumerate(S):
                p = probs[pos]
                if p <= 0.0:
                    continue
                child = S[:pos] + S[pos + 1:]
                children.setdefault(child, []).append(logp + math.log(p))
        level = {S: float(logsumexp(ls)) for S, ls in children.items()}
    return ExactSubsetDistribution(s=s, lam=lam, log_probs=level)


def exact_distribution(X, s: int, lam: float = 0.0) -> ExactSubsetDistribution:
    """Exact size-s law; closed form for lam=0, DAG propagation otherwise."""
    if lam == 0.0:
        return _closed_form_distribution(X, s)
    return _dag_distribution(X, s, lam)


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


def _deviation_report(identity, lhs, rhs, mode="equality") -> IdentityReport:
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
                          mode=mode, psd_margin=psd_margin)


def _pinv_embedded(X, S) -> np.ndarray:
    """(X_S)^+ placed at columns S of a d x n matrix (zeros elsewhere)."""
    n, d = X.shape
    rows = list(S)
    P = np.zeros((d, n))
    P[:, rows] = linalg.solve_spd(linalg.gram(X[rows]), X[rows].T)
    return P


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
                          max_abs_dev=max_abs, max_rel_dev=max_rel)


def _expect_over(dist: ExactSubsetDistribution, fn):
    acc = None
    for S, p in dist.items():
        val = fn(S)
        acc = p * val if acc is None else acc + p * val
    return acc


def _inverse_moment(X, dist: ExactSubsetDistribution):
    """E[(X_S'X_S + lam I)^{-1}] under ``dist``, and (X'X + lam I)^{-1}."""
    lam = dist.lam
    moment = _expect_over(dist, lambda S: linalg.inv_spd(linalg.gram(X[list(S)], lam)))
    return moment, linalg.inv_spd(linalg.gram(X, lam))


def _pseudoinv(X, y, dist):
    lhs = _expect_over(dist, lambda S: _pinv_embedded(X, S))
    return lhs, linalg.solve_spd(linalg.gram(X), X.T)


def _cov_inverse(X, y, dist):
    n, d = X.shape
    moment, inv = _inverse_moment(X, dist)
    return moment, (n - d + 1) / (dist.s - d + 1) * inv


def _frobenius(X, y, dist):
    lhs, rhs = _cov_inverse(X, y, dist)
    return float(np.trace(lhs)), float(np.trace(rhs))


def _covariance(X, y, dist):
    n, d = X.shape
    moment, inv = _inverse_moment(X, dist)
    return moment - inv, (n - dist.s) / (dist.s - d + 1) * inv


def _proj_square(X, y, dist):
    n, d = X.shape
    if dist.s != d:
        raise UnsupportedCombination("PROJ_SQUARE is defined at s = d only")
    P_X = X @ linalg.solve_spd(linalg.gram(X), X.T)

    def f(S):
        # X(I_S X)^+ is an oblique projection; its Gram B'B carries the
        # second-moment content (B@B would collapse back to B)
        B = X @ _pinv_embedded(X, S)
        return B.T @ B

    return _expect_over(dist, f) - P_X, d * (np.eye(n) - P_X)


def _loss_factor(X, y, dist):
    if y is None:
        raise UnsupportedCombination("LOSS_FACTOR needs a response vector")
    if dist.s != X.shape[1]:
        raise UnsupportedCombination("LOSS_FACTOR is defined at s = d only")
    p = regression.RegressionProblem(X=X, y=y)
    lhs = _expect_over(
        dist, lambda S: regression.total_loss(p, regression.solve_subproblem(p, S)))
    return lhs, (p.d + 1) * regression.total_loss(p, regression.solve_full(p))


def _marginals(X, y, dist):
    lhs = np.zeros(X.shape[0])
    for S, p in dist.items():
        for i in S:
            lhs[i] += p
    return lhs, sampling.marginal_probabilities(X, dist.s)


def _reg_inverse_bound(X, y, dist):
    n, d = X.shape
    s = dist.s
    dlam = d_lambda(X, dist.lam)
    if s < dlam:
        raise UnsupportedCombination(
            f"bound requires s >= d_lambda = {dlam:.3f}, got s={s}"
        )
    moment, inv = _inverse_moment(X, dist)
    return moment, (n - dlam + 1) / (s - dlam + 1) * inv


# the expectation identities: name -> (function of (X, y, dist) giving
# (lhs, rhs), mode; None lets ``verify_identity``'s ``equality`` choose)
_EXPECTATIONS = {
    "PSEUDOINV_UNBIASED": (_pseudoinv, "equality"),
    "COV_INVERSE": (_cov_inverse, None),
    "FROBENIUS": (_frobenius, None),
    "COVARIANCE": (_covariance, None),
    "PROJ_SQUARE": (_proj_square, None),
    "LOSS_FACTOR": (_loss_factor, None),
    "MARGINALS": (_marginals, "equality"),
    "REG_INVERSE_BOUND": (_reg_inverse_bound, "inequality"),
}


def _identity_composition(X, s: int):
    """Two-stage law (size t, then size s from the selected rows) vs one-stage.

    One array pass per intermediate size t: stage 1 is normalized by one
    log-sum-exp over the size-t sets T, stage 2 by one per T over its
    size-s subsets, and the products accumulate into the size-s subsets.
    The explicit sums keep the check from presupposing the volume
    normalization identity.  A T without stage-2 mass is skipped.
    """
    n = len(X)
    one_stage = _closed_form_distribution(X, s).log_probs
    table = subset_logdet_table(X, range(s, n + 1))
    subsets = list(itertools.combinations(range(n), s))
    pos = {S: j for j, S in enumerate(subsets)}
    ld_s = np.array([table[S] for S in subsets])
    p1 = np.exp([one_stage.get(S, -math.inf) for S in subsets])
    devs = []
    for t in range(s, n + 1):
        Ts = list(itertools.combinations(range(n), t))
        log1 = np.array([table[T] for T in Ts])
        log1 -= logsumexp(log1)
        idx = np.array([[pos[S] for S in itertools.combinations(T, s)] for T in Ts])
        lds = ld_s[idx]
        norm2 = logsumexp(lds, axis=1)
        keep = norm2 > -math.inf
        two_stage = np.full(len(subsets), -math.inf)
        np.logaddexp.at(two_stage, idx[keep],
                        log1[keep, None] + (lds[keep] - norm2[keep, None]))
        devs.append(np.abs(np.exp(two_stage) - p1).max())
    # np.max, unlike the builtin max, never drops a nan
    max_abs = float(np.max(devs))
    return IdentityReport(identity="COMPOSITION", lhs=None, rhs=None,
                          max_abs_dev=max_abs, max_rel_dev=max_abs)


def _identity_normalization(X, s: int, lam: float):
    """Weight sum sum_i h_i = |S| - d + lam*tr(Z) at every subset of size >= s.

    The removal chain reaches every nonsingular subset; a singular one
    (uniform fallback) has no weight identity and is skipped.
    """
    n, d = X.shape
    _check_levels(n, s)
    devs = [0.0]
    for t in range(s, n + 1):
        for S in itertools.combinations(range(n), t):
            _, raw, trZ = _node_removal_distribution(X[list(S)], lam)
            if raw is not None:
                devs.append(abs(float(raw.sum()) - (t - d + lam * trZ)))
    max_abs = float(np.max(devs))
    return IdentityReport(identity="NORMALIZATION", lhs=None, rhs=None,
                          max_abs_dev=max_abs, max_rel_dev=max_abs)


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
    if identity not in _EXPECTATIONS:
        raise UnsupportedCombination(f"unknown identity {identity!r}")
    fn, mode = _EXPECTATIONS[identity]
    if dist is None:
        dist = exact_distribution(X, s, lam)
    if identity != "REG_INVERSE_BOUND" and dist.lam != 0.0:
        raise UnsupportedCombination(
            f"{identity} is an unregularized identity (lam must be 0)")
    lhs, rhs = fn(X, y, dist)
    return _deviation_report(identity, lhs, rhs,
                             mode or ("equality" if equality else "inequality"))


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
    return sampling.SubsetSample(indices=subsets[pos], s=s, algorithm="oracle")


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


@contextlib.contextmanager
def worker_pool(jobs):
    """Run every ``(fn, *args)`` of ``jobs`` as ``fn(*args)`` in worker
    processes and yield the futures, in job order.

    There is one worker per available CPU (``_cpu_count`` at call time), and
    no more than one per job.  A job's exception is raised, as the same
    exception class, by its future's ``result()``.  On leaving the block,
    normally or by an exception, the jobs still queued are cancelled, the
    running ones finish, and the workers have exited.  The pool uses the
    platform's default start method (``fork`` on Linux), which starts every
    worker on the first ``submit``, before the executor starts its manager
    thread; ``spawn`` would import numpy and scipy again in every worker.
    """
    # imported here, as it costs every CLI start about 7 ms otherwise
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=min(len(jobs), _cpu_count()))
    try:
        yield [pool.submit(*job) for job in jobs]
    finally:
        pool.shutdown(cancel_futures=True)


def _count_draws(X, cfg: sampling.SamplerConfig, start: int, stop: int,
                 base: sampling.DowndateState | np.ndarray) -> dict[tuple[int, ...], int]:
    """Subset counts of replicates start..stop-1, keyed in first-seen order.

    Replicate r draws from child r of SeedSequence(cfg.seed), spawned here
    so that a worker process receives two integers, not the streams.
    ``base`` is the volume samplers' initial state, copied for every draw,
    or the leverage sampler's row probabilities, shared by every draw.
    """
    root = np.random.SeedSequence(cfg.seed, n_children_spawned=start)
    copy = isinstance(base, sampling.DowndateState)
    counts: dict[tuple[int, ...], int] = {}
    for child in root.spawn(stop - start):
        state = base.copy() if copy else base
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
    counted in a worker process of ``worker_pool``; the workers have exited
    when this returns, and a sampler error raised in one reaches the caller
    as the same exception class.  The chunk counts are merged in chunk
    order, which gives the serial run's counts in the serial run's
    first-seen order, so the report does not depend on how many CPUs there
    are.  Every volume draw starts from its own copy of one initial state
    (Z and all the weights, built once here), which the removals
    (``sampling.remove_row``) update in place; the fast sampler's rejection
    phase decides its first proposals from the copy's weights.  Every
    leverage draw reads the row probabilities computed here for the
    comparison.
    """
    X = linalg.as_matrix(X)
    n, d = X.shape

    leverage = cfg.algorithm == "leverage"
    if leverage:
        scores = linalg.leverage_scores(X, cfg.lam)
        base = p = scores / scores.sum()
    else:
        dist = exact_distribution(X, cfg.s, cfg.lam)
        # the initial inverse and weights depend only on (X, lam): build once,
        # hand every draw a cheap copy
        base = sampling.init_downdate_state(X, cfg.lam)
    chunks = _cpu_count() if draws >= PARALLEL_MIN_DRAWS else 1
    if chunks == 1:
        parts = [_count_draws(X, cfg, 0, draws, base)]
    else:
        bounds = [draws * j // chunks for j in range(chunks + 1)]
        with worker_pool([(_count_draws, X, cfg, lo, hi, base)
                          for lo, hi in zip(bounds, bounds[1:])]) as futures:
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
