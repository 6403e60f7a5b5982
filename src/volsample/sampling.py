"""Row-subset samplers.

Two exact volume samplers built on reverse iterative removal -- a
deterministic-runtime one that maintains every removal weight
(``reg_vol_sample``) and a rejection-sampling accelerated one
(``fast_reg_vol_sample``) -- plus the i.i.d. leverage-score baseline and
closed-form marginals.

Both volume samplers start from the full index set and repeatedly remove
one row i with probability proportional to

    h_i = 1 - x_i' (X_S'X_S + lam*I)^{-1} x_i,

which is the ratio of the regularized subset volumes after and before the
removal.  For lam=0 the resulting size-s law is
P(S) = det(X_S'X_S) / (C(n-d, s-d) det(X'X)).

RNG contract: a seeded numpy Generator (PCG64).  reg_vol_sample draws one
uniform per removal (cumulative-sum inversion); fast_reg_vol_sample draws
one integer per proposal and one uniform per Bernoulli accept; leverage
sampling draws its s indices in a single choice call.  Identical seeds give
identical samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linalg
from .errors import InvalidConfig, NotPositiveDefinite
from .linalg import WEIGHT_ZERO_TOL

ALGORITHMS = ("regvol", "fastregvol", "leverage")


@dataclass(frozen=True)
class SamplerConfig:
    """Target size, ridge parameter, seed, and algorithm choice."""

    s: int
    lam: float = 0.0
    seed: int = 0
    algorithm: str = "regvol"

    def validate(self, n: int, d: int) -> None:
        if self.algorithm not in ALGORITHMS:
            raise InvalidConfig(f"unknown algorithm {self.algorithm!r}")
        if self.lam < 0:
            raise InvalidConfig("lam must be nonnegative")
        if not (0 <= self.seed < 2**64):
            raise InvalidConfig("seed must fit in 64 unsigned bits")
        if self.algorithm == "leverage":
            if self.s < 0:
                raise InvalidConfig("leverage sampling needs s >= 0")
            return
        if self.lam == 0.0:
            if not d <= self.s <= n:
                raise InvalidConfig(
                    f"unregularized volume sampling needs d <= s <= n, "
                    f"got s={self.s}, d={d}, n={n}"
                )
        elif not 1 <= self.s <= n:
            raise InvalidConfig(f"need 1 <= s <= n, got s={self.s}, n={n}")


@dataclass(frozen=True)
class SubsetSample:
    """A sampled index set plus provenance."""

    indices: tuple[int, ...]
    s: int
    lam: float
    algorithm: str
    seed: Optional[int]
    rejection_trials: Optional[int] = None
    removal_order: Optional[tuple[int, ...]] = None
    multiset: bool = False
    importance_weights: Optional[tuple[float, ...]] = None

    def __post_init__(self):
        if len(self.indices) != self.s:
            raise InvalidConfig("indices length must equal s")


# downdates between recomputations of Z from scratch: at least max(d, this)
REFRESH_MIN_INTERVAL = 64
# after a clean refresh at k active rows the next one comes k // this
# downdates later, so the refreshes of a draw cost O(n d^2) in total
REFRESH_SHRINK = 8
# largest measured drift (see _refresh) that counts as clean: weights off by
# this much move the law of a 1e5-removal draw by about 1e-5 in TV when the
# mean weight is at least 1/2
DRIFT_TOL = 1e-10


@dataclass
class DowndateState:
    """Live state of reverse iterative removal (caller-owned, mutable).

    ``active[:size]`` are the remaining row indices in removal-stream
    order, and ``rows[:size]`` holds the corresponding rows of the design
    matrix (kept packed so the weight update touches contiguous memory).
    ``Z`` is the inverse of the remaining rows' regularized Gram matrix.
    ``h[:size]`` are the maintained removal weights, aligned with
    ``active``: built at init, set to None by the rejection phase (which
    computes only the weight of each proposed row) and rebuilt for the
    weighted phase.  ``Z`` (and ``h``) are recomputed from scratch after
    ``refresh_every`` downdates; each refresh sets the next interval from
    the drift it measured.
    """

    active: np.ndarray
    size: int
    rows: np.ndarray
    Z: np.ndarray
    lam: float
    h: Optional[np.ndarray]
    downdates_since_refresh: int = 0
    refresh_every: int = REFRESH_MIN_INTERVAL

    @property
    def indices(self) -> list[int]:
        return sorted(self.active[: self.size].tolist())

    def copy(self) -> "DowndateState":
        return DowndateState(
            active=self.active.copy(),
            size=self.size,
            rows=self.rows.copy(),
            Z=self.Z.copy(),
            lam=self.lam,
            h=None if self.h is None else self.h.copy(),
            downdates_since_refresh=self.downdates_since_refresh,
            refresh_every=self.refresh_every,
        )


def _fresh_weights(rows: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Removal weights 1 - x_i'Zx_i of the given rows, clamped to [0, 1].

    Sub-tolerance weights are set to exactly zero.
    """
    h = 1.0 - linalg.quad_forms(rows, Z)
    np.maximum(h, 0.0, out=h)
    np.minimum(h, 1.0, out=h)
    h[h < WEIGHT_ZERO_TOL] = 0.0
    return h


def init_downdate_state(X, lam: float = 0.0) -> DowndateState:
    """Full-set state: every row active, Z = (X'X + lam*I)^{-1}, all weights.

    The weights are built here for both volume samplers; the rejection
    phase drops them before its first removal.
    """
    X = linalg.as_matrix(X)
    n, d = X.shape
    Z = linalg.inv_spd(linalg.gram(X, lam))
    return DowndateState(
        active=np.arange(n, dtype=np.intp),
        size=n,
        rows=np.array(X, dtype=np.float64, copy=True),
        Z=Z,
        lam=lam,
        h=_fresh_weights(X, Z),
        refresh_every=max(d, REFRESH_MIN_INTERVAL),
    )


def _refresh(state: DowndateState) -> float:
    """Recompute Z (and h) from the active rows; set the next interval.

    The drift ||(Z_old - Z)G||_inf (max absolute row sum, G the fresh
    regularized Gram matrix) bounds every active row's weight error:
    |x'(Z_old - Z)x| <= rho((Z_old - Z)G) * x'G^{-1}x and the leverage
    x'G^{-1}x is at most 1.  Tracked weights also count their own error.
    A drift within DRIFT_TOL stretches the next interval to
    k // REFRESH_SHRINK; any other keeps it at max(d, REFRESH_MIN_INTERVAL).
    Returns the drift.
    """
    k = state.size
    rows = state.rows[:k]
    G = linalg.gram(rows, state.lam)
    Z = linalg.inv_spd(G)
    drift = float(np.abs((state.Z - Z) @ G).sum(axis=1).max())
    state.Z = Z
    if state.h is not None:
        h = _fresh_weights(rows, Z)
        drift = max(drift, float(np.abs(state.h[:k] - h).max()))
        state.h[:k] = h
    base = max(rows.shape[1], REFRESH_MIN_INTERVAL)
    # a nan drift compares False and keeps the base interval
    state.refresh_every = max(base, k // REFRESH_SHRINK) if drift <= DRIFT_TOL else base
    state.downdates_since_refresh = 0
    return drift


def _swap_out(state: DowndateState, pos: int) -> int:
    """Move the active row at ``pos`` past the end of the prefix."""
    k = state.size - 1
    act = state.active
    i = int(act[pos])
    if pos != k:
        act[pos] = act[k]
        act[k] = i
        rows = state.rows
        x_i = rows[pos].copy()
        rows[pos] = rows[k]
        rows[k] = x_i
        h = state.h
        if h is not None:
            h[pos], h[k] = h[k], h[pos]
    state.size = k
    return i


def remove_row(state: DowndateState, pos: int, h_i: Optional[float] = None) -> int:
    """Remove the active row at position ``pos`` and downdate Z (and h).

    ``h_i`` is the removal weight of that row; it is looked up from the
    maintained weights when not supplied.  Returns the removed row index.
    ``state.Z`` and ``state.h`` are updated in place.  Every
    ``state.refresh_every`` downdates, Z (and h) are recomputed from
    scratch to stop floating-point drift over long removal chains; the
    interval grows to k // REFRESH_SHRINK while the measured drift stays
    within DRIFT_TOL and falls back to max(d, REFRESH_MIN_INTERVAL)
    otherwise (see ``_refresh``).
    """
    if h_i is None:
        if state.h is None:
            raise ValueError("h_i required when weights are not tracked")
        h_i = float(state.h[pos])
    v = linalg.downdate(state.Z, state.rows[pos], h_i)
    i = _swap_out(state, pos)
    k = state.size

    if state.h is not None:
        t = state.rows[:k] @ v
        np.multiply(t, t, out=t)
        hk = state.h[:k]
        np.subtract(hk, t, out=hk)
        # roundoff can push weights a hair negative; sub-tolerance dust is
        # screened out again at selection time
        np.maximum(hk, 0.0, out=hk)
    state.downdates_since_refresh += 1
    if state.downdates_since_refresh >= state.refresh_every:
        _refresh(state)
    return i


def _pick_weighted(h_act: np.ndarray, rng: np.random.Generator) -> int:
    """Cumulative-sum inversion over the active order; one uniform draw.

    Exact-zero weights are never selected.  Returns -1 when the total
    weight is below tolerance (caller switches to uniform removal).
    """
    c = h_act.cumsum()
    total = c[-1]
    if total <= WEIGHT_ZERO_TOL:
        return -1
    u = rng.random() * total
    pos = int(c.searchsorted(u, side="right"))
    if h_act[pos] < WEIGHT_ZERO_TOL:
        # roundoff dust landed under the cursor; take the heaviest row
        pos = int(h_act.argmax())
    return pos


def _volume_sample(X, cfg: SamplerConfig, rng: Optional[np.random.Generator],
                   _state: Optional[DowndateState], algorithm: str) -> SubsetSample:
    """Reverse iterative removal from the full set (or ``_state``) down to s rows.

    Rows above the cutoff -- max(s, 2d) for fastregvol, none for regvol --
    are removed by rejection: propose a row uniformly, compute only its
    weight, accept with that probability (weights are <= 1, and the mean
    weight stays >= 1/2 above 2d rows).  The rest are removed by weight,
    with every weight maintained by h_j -= (x_j'v)^2 (v = Zx_i/sqrt(h_i)),
    so a weighted step over t active rows costs O(t*d).
    """
    X = linalg.as_matrix(X)
    n, d = X.shape
    cfg.validate(n, d)
    rng = rng if rng is not None else np.random.default_rng(cfg.seed)
    state = _state if _state is not None else init_downdate_state(X, cfg.lam)
    fast = algorithm == "fastregvol"
    cutoff = max(cfg.s, 2 * d) if fast else state.size
    trials = 0
    removed = []
    if state.size > cutoff:
        state.h = None  # not maintained while rows are removed by rejection
    while state.size > cutoff:
        while True:
            trials += 1
            pos = int(rng.integers(state.size))
            x_i = state.rows[pos]
            h_i = 1.0 - float(x_i @ state.Z @ x_i)
            h_i = min(max(h_i, 0.0), 1.0)
            if h_i < WEIGHT_ZERO_TOL:
                h_i = 0.0
            if rng.random() < h_i:
                break
        removed.append(remove_row(state, pos, h_i=h_i))

    if state.size > cfg.s and state.h is None:
        # the maintained inverse already covers the remaining rows
        state.h = _fresh_weights(state.rows[: state.size], state.Z)
    while state.size > cfg.s:
        pos = _pick_weighted(state.h[: state.size], rng)
        if pos >= 0:
            removed.append(remove_row(state, pos))
            continue
        # volume-0 frontier: all weights vanished, remove uniformly; the
        # rank-one downdate is invalid there, so rebuild instead.  A failed
        # rebuild zeroes the weights, which keeps the next removals uniform
        pos = int(rng.integers(state.size))
        removed.append(_swap_out(state, pos))
        try:
            _refresh(state)
        except NotPositiveDefinite:
            state.h[: state.size] = 0.0
    return SubsetSample(
        indices=tuple(state.indices),
        s=cfg.s,
        lam=cfg.lam,
        algorithm=algorithm,
        seed=cfg.seed,
        rejection_trials=trials if fast else None,
        removal_order=tuple(removed),
    )


def reg_vol_sample(X, cfg: SamplerConfig, rng: Optional[np.random.Generator] = None,
                   _state: Optional[DowndateState] = None) -> SubsetSample:
    """Volume-sample a size-s subset by weighted reverse iterative removal.

    Every removal is drawn from the maintained weights, at O(t*d) per
    step over t active rows.  Deterministic given (X, cfg.seed).
    """
    return _volume_sample(X, cfg, rng, _state, "regvol")


def fast_reg_vol_sample(X, cfg: SamplerConfig, rng: Optional[np.random.Generator] = None,
                        _state: Optional[DowndateState] = None) -> SubsetSample:
    """Same law as reg_vol_sample via per-step rejection sampling.

    Removes rows by rejection while more than max(s, 2d) remain, then by
    weight.  Records the total number of proposal trials.
    """
    return _volume_sample(X, cfg, rng, _state, "fastregvol")


def leverage_iid_sample(X, s: int, lam: float = 0.0,
                        rng: Optional[np.random.Generator] = None,
                        seed: int = 0) -> SubsetSample:
    """Draw s rows i.i.d. proportionally to their leverage scores.

    Returns a multiset (with replacement) and the importance weights
    1/sqrt(s*P(i)) used to rescale the subproblem.
    """
    X = linalg.as_matrix(X)
    n, _ = X.shape
    if s < 0:
        raise InvalidConfig("s must be nonnegative")
    rng = rng if rng is not None else np.random.default_rng(seed)
    scores = linalg.leverage_scores(X, lam)
    p = scores / scores.sum()
    idx = np.sort(rng.choice(n, size=s, replace=True, p=p)) if s > 0 else np.array([], dtype=int)
    weights = tuple(1.0 / np.sqrt(s * p[i]) for i in idx) if s > 0 else ()
    return SubsetSample(
        indices=tuple(int(i) for i in idx),
        s=s,
        lam=lam,
        algorithm="leverage",
        seed=seed,
        multiset=True,
        importance_weights=weights,
    )


def marginal_probabilities(X, s: int) -> np.ndarray:
    """P(i in S) under size-s volume sampling, for every row i.

    Closed form: (s-d)/(n-d) + (n-s)/(n-d) * leverage_i, with the s=n
    limit giving 1.
    """
    X = linalg.as_matrix(X)
    n, d = X.shape
    if not d <= s <= n:
        raise InvalidConfig(f"need d <= s <= n, got s={s}")
    if s == n:
        return np.ones(n)
    lev = linalg.leverage_scores(X, 0.0)
    return (s - d) / (n - d) + (n - s) / (n - d) * lev


def sample(X, cfg: SamplerConfig, rng: Optional[np.random.Generator] = None,
           _state: Optional[DowndateState] = None) -> SubsetSample:
    """Draw one sample with the sampler that cfg.algorithm names.

    ``_state`` hands a volume sampler a prepared initial state (the
    leverage baseline keeps none).
    """
    if cfg.algorithm == "regvol":
        return reg_vol_sample(X, cfg, rng, _state)
    if cfg.algorithm == "fastregvol":
        return fast_reg_vol_sample(X, cfg, rng, _state)
    if cfg.algorithm == "leverage":
        return leverage_iid_sample(X, cfg.s, cfg.lam, rng, seed=cfg.seed)
    raise InvalidConfig(f"unknown algorithm {cfg.algorithm!r}")
