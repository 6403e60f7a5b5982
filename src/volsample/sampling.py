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

Removals by weight keep Z = (X_S'X_S + lam*I)^{-1} and every weight
current by rank-one downdates, recomputed from scratch on a drift-guarded
schedule (``_refresh``).  The fast sampler's rejection phase, above
max(s, 2d) rows, defers the downdates instead.  It keeps the weights h0
of its last sync (a fresh Gram matrix G0, its inverse and the weights of
the active rows) and a bound mu on lambda_max(G0^{-1/2} B'B G0^{-1/2}),
B the rows removed since.  Every current weight lies between
1 - (1 - h0)/(1 - mu) and h0, which decides almost every proposal; the
rest are compared with the exact weight 1 - x'(G0 - B'B)^{-1}x.  A resync
follows once the exact eigenvalue reaches 1/2 (for the phase's last
removal, 1), and the hand-over to the removals by weight downdates Z by
the rows removed since the last sync.

RNG contract: a seeded numpy Generator (PCG64).  reg_vol_sample draws one
uniform per removal, inverted over the cumulative weights in the active
order (above PICK_TWO_LEVEL active rows in two levels, block sums then
one block; the pick is the one-level pick unless the cursor lies within
rounding of a row boundary); fast_reg_vol_sample draws one integer per
proposal and one uniform per Bernoulli accept; leverage sampling draws its
s indices in a single choice call.  Identical seeds give identical samples.
The rejection phase reads its (integers(k), random()) pairs in blocks from
raw PCG64 output (``_proposals``) and leaves the generator where the
scalar calls would; it makes the scalar calls for other bit generators,
while fewer than REPLAY_MIN rows lie above its cutoff, and for a proposal
where Lemire's method draws a second word.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

from . import linalg
from .errors import AllWeightsZero, InvalidConfig, NotPositiveDefinite
from .linalg import WEIGHT_ZERO_TOL

ALGORITHMS = ("regvol", "fastregvol", "leverage")


def check_seed(seed: int) -> None:
    """Raise InvalidConfig unless 0 <= seed < 2**64."""
    if not 0 <= seed < 2**64:
        raise InvalidConfig("seed must fit in 64 unsigned bits")


def check_lam(lam: float) -> None:
    """Raise InvalidConfig unless lam is finite and nonnegative."""
    if not 0.0 <= lam < math.inf:  # false for a nan too
        raise InvalidConfig("lam must be finite and nonnegative")


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
        check_lam(self.lam)
        check_seed(self.seed)
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
    algorithm: str
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
# the rejection phase replaces its trace bound on the removed block's
# eigenvalue by the exact value once the bound reaches this, and resyncs
# once the exact value does (before its last removal: once either reaches 1)
MU_RESYNC = 0.5
# proposals rejected in a row after which the rejection phase raises
# AllWeightsZero: the mean weight is at least 1/2 above 2d rows, so a sound
# draw gets there with chance at most 2**-REJECTION_CAP per removal
REJECTION_CAP = 1000
# above PICK_TWO_LEVEL active rows _pick_weighted inverts the cumulative sum
# in two levels: the sums of blocks of PICK_BLOCK rows, then one block.  A
# sequential prefix sum costs about 3 ns a row and the two levels about 5 us
# more in fixed calls, so they pay from about 1500 rows (2 vCPUs, numpy 2.4)
PICK_BLOCK = 256
PICK_TWO_LEVEL = 1536
# the rejection phase decodes its proposals from raw PCG64 output while at
# least REPLAY_MIN rows lie above its cutoff, in blocks of at most
# REPLAY_BATCH proposals.  A proposal costs about 1.6 us by the scalar calls
# and 0.3 us decoded, a block about 24 us more (state copies, numpy passes;
# 2 vCPUs, numpy 2.4), so a block pays from about 20 proposals
REPLAY_MIN = 64
REPLAY_BATCH = 2**14


@dataclass
class DowndateState:
    """Live state of reverse iterative removal (caller-owned, mutable).

    ``active[:size]`` are the remaining row indices of the design matrix
    ``X`` in removal-stream order, and ``rows[:size]`` holds copies of
    those rows, packed in a column-major (Fortran-order) array: the weight
    update's product ``rows[:size] @ v`` then runs as a column-major
    matrix-vector product, which is faster at small d than a row-major
    one.  The row moves, the packing (``take`` into the strided prefix)
    and the rebuilds work on that prefix as on any other array; ``copy``
    keeps the layout.  ``G`` is the regularized Gram matrix of the active
    rows at the last rebuild (init, refresh or resync), ``Z`` the inverse
    of the current one, and ``h[:size]`` the removal weights, aligned with
    ``active``.  Only ``active`` keeps the removed rows past the prefix,
    newest first; ``rows`` and ``h`` hold stale entries there.  Each
    removal downdates Z and h; they are rebuilt from scratch after
    ``refresh_every`` downdates, and each refresh sets the next interval
    from the drift it measured.  While ``deferred`` is set
    (the fast sampler's rejection phase) a removal only moves ``active``
    and ``h`` entries: G, Z, h and ``rows`` still describe the rows active
    at the last rebuild, and rows are read from ``X`` until a resync
    packs them again.
    """

    active: np.ndarray
    size: int
    X: np.ndarray
    rows: np.ndarray
    G: np.ndarray
    Z: np.ndarray
    lam: float
    h: np.ndarray
    downdates_since_refresh: int = 0
    refresh_every: int = REFRESH_MIN_INTERVAL
    deferred: bool = False

    @property
    def indices(self) -> list[int]:
        return sorted(self.active[: self.size].tolist())

    def copy(self) -> "DowndateState":
        return DowndateState(
            active=self.active.copy(),
            size=self.size,
            X=self.X,
            rows=self.rows.copy(order="F"),
            G=self.G,  # replaced, never written in place
            Z=self.Z.copy(),
            lam=self.lam,
            h=self.h.copy(),
            downdates_since_refresh=self.downdates_since_refresh,
            refresh_every=self.refresh_every,
            deferred=self.deferred,
        )


def _fresh_weights(rows: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Removal weights 1 - x_i'Zx_i of the given rows, clamped to [0, 1].

    Sub-tolerance weights are set to exactly zero.
    """
    h = linalg.quad_forms(rows, Z)
    np.subtract(1.0, h, out=h)
    np.maximum(h, 0.0, out=h)
    np.minimum(h, 1.0, out=h)
    h[h < WEIGHT_ZERO_TOL] = 0.0
    return h


def _rebuild(rows: np.ndarray, lam: float):
    """Gram matrix, its inverse and the removal weights of ``rows``."""
    G = linalg.gram(rows, lam)
    Z = linalg.inv_spd(G)
    return G, Z, _fresh_weights(rows, Z)


def init_downdate_state(X, lam: float = 0.0) -> DowndateState:
    """Full-set state: every row active, G = X'X + lam*I, Z = G^{-1}, all weights."""
    X = linalg.as_matrix(X)
    n, d = X.shape
    rows = np.array(X, dtype=np.float64, copy=True, order="F")
    G, Z, h = _rebuild(rows, lam)
    return DowndateState(
        active=np.arange(n, dtype=np.intp),
        size=n,
        X=X,
        rows=rows,
        G=G,
        Z=Z,
        lam=lam,
        h=h,
        refresh_every=max(d, REFRESH_MIN_INTERVAL),
    )


def _resync(state: DowndateState) -> None:
    """Rebuild G, Z and h from the active rows; restart the refresh schedule.

    Leaves the state unchanged if the Gram matrix is not positive definite.
    """
    state.G, state.Z, state.h = _rebuild(state.rows[: state.size], state.lam)
    state.downdates_since_refresh = 0
    state.refresh_every = max(state.rows.shape[1], REFRESH_MIN_INTERVAL)


def _refresh(state: DowndateState) -> float:
    """Recompute G, Z and h from the active rows; set the next interval.

    The drift ||(Z_old - Z)G||_inf (max absolute row sum, G the fresh
    regularized Gram matrix) bounds every active row's weight error:
    |x'(Z_old - Z)x| <= rho((Z_old - Z)G) * x'G^{-1}x and the leverage
    x'G^{-1}x is at most 1.  The weights also count their own error.
    A drift within DRIFT_TOL stretches the next interval to
    k // REFRESH_SHRINK; any other keeps it at max(d, REFRESH_MIN_INTERVAL).
    Returns the drift.
    """
    k = state.size
    Z_old, h_old = state.Z, state.h
    _resync(state)
    drift = float(np.abs((Z_old - state.Z) @ state.G).sum(axis=1).max())
    drift = max(drift, float(np.abs(h_old[:k] - state.h).max()))
    # a nan drift compares False and keeps the base interval
    if drift <= DRIFT_TOL:
        state.refresh_every = max(state.refresh_every, k // REFRESH_SHRINK)
    return drift


def _swap_out(state: DowndateState, pos: int) -> int:
    """Shrink the prefix by the active row at ``pos``; returns its row index.

    The prefix's last row fills the hole at ``pos``.  Only ``active``
    keeps the removed row, at the new ``size``; ``rows`` and ``h`` past
    the prefix are stale.
    """
    k = state.size - 1
    act = state.active
    i = int(act[pos])
    act[pos] = act[k]
    act[k] = i
    if not state.deferred:
        state.rows[pos] = state.rows[k]
    state.h[pos] = state.h[k]
    state.size = k
    return i


def remove_row(state: DowndateState, pos: int, h_i: Optional[float] = None) -> int:
    """Remove the active row at position ``pos``; returns its row index.

    While ``state.deferred`` is set (the fast sampler's rejection phase)
    the row is only swapped out and ``h_i`` is unused: the phase bounds
    the weights instead, resyncs, and downdates Z by the removed rows at
    its hand-over (``_catch_up``).  Otherwise Z and the weights are
    downdated in place; ``h_i`` is the
    row's current removal weight, looked up from ``state.h`` when not
    supplied.  Every ``state.refresh_every`` downdates, Z and h are
    recomputed from scratch to stop floating-point drift over long removal
    chains; the interval grows to k // REFRESH_SHRINK while the measured
    drift stays within DRIFT_TOL and falls back to
    max(d, REFRESH_MIN_INTERVAL) otherwise (see ``_refresh``).
    """
    if state.deferred:
        return _swap_out(state, pos)
    if h_i is None:
        h_i = state.h.item(pos)
    v = linalg.downdate(state.Z, state.rows[pos], h_i)
    i = _swap_out(state, pos)
    k = state.size

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

    Above PICK_TWO_LEVEL weights the inversion runs in two levels: it
    finds the cursor's block of PICK_BLOCK rows among the prefix sums of
    the block sums, then its row among the prefix sums of that block alone.  The picks are those
    of the one-level inversion except where the cursor lies within
    rounding of a row boundary.  Exact-zero weights are never selected.
    Returns -1 when the total weight is below tolerance (caller switches
    to uniform removal).
    """
    k = h_act.shape[0]
    if k <= PICK_TWO_LEVEL:
        c = h_act.cumsum()
        total = c.item(-1)
        if total <= WEIGHT_ZERO_TOL:
            return -1
        u = rng.random() * total
        pos = int(c.searchsorted(u, side="right"))
    else:
        block = PICK_BLOCK
        cs = np.add.reduceat(h_act, np.arange(0, k, block)).cumsum()
        total = cs.item(-1)
        if total <= WEIGHT_ZERO_TOL:
            return -1
        u = rng.random() * total
        b = min(int(cs.searchsorted(u, side="right")), cs.shape[0] - 1)
        if b:
            u -= cs.item(b - 1)
        c = h_act[b * block:(b + 1) * block].cumsum()
        # block sums and the block's own prefix sums round apart, so the
        # cursor can run past the block's last prefix sum
        pos = b * block + min(int(c.searchsorted(u, side="right")), c.shape[0] - 1)
    if h_act.item(pos) < WEIGHT_ZERO_TOL:
        # roundoff dust landed under the cursor; take the heaviest row
        pos = int(h_act.argmax())
    return pos


def _weight_floor(h0, mu: float):
    """Lower bound on a weight that was ``h0`` at the last sync.

    With G0 the Gram matrix at the sync and B the rows removed since,
    ``mu`` >= lambda_max(G0^{-1/2} B'B G0^{-1/2}) and mu < 1 give
    (G0 - B'B)^{-1} <= G0^{-1} / (1 - mu), so a leverage 1 - h0 has grown
    by at most that factor.  (A weight never grows: h0 is its ceiling.)
    """
    return 1.0 - (1.0 - h0) / (1.0 - mu)


class _RemovedBlock:
    """The rows removed since the last sync: X at ``active[size:synced]``.

    ``mu`` bounds the eigenvalue that ``_weight_floor`` needs: the exact
    lambda_max at the last ``tighten`` plus the sync leverages of the rows
    removed after it, whose sum bounds their own lambda_max (it is the
    trace).  ``BtB`` accumulates B'B over ``active[folded:synced]``.
    """

    def __init__(self, state: DowndateState):
        self.synced = self.folded = state.size
        self.BtB = np.zeros_like(state.G)
        self.mu = 0.0

    def _fold(self, state: DowndateState) -> None:
        """Add the rows removed since the last fold to B'B."""
        k = state.size
        if self.folded == k:
            return
        B = state.X[state.active[k:self.folded]]
        self.BtB += B.T @ B
        self.folded = k

    def tighten(self, state: DowndateState) -> None:
        """Set mu to the exact lambda_max of the pencil (B'B, G0)."""
        if self.synced == state.size + 1:
            return  # one row: its leverage, the trace bound, is the eigenvalue
        self._fold(state)
        ev = scipy.linalg.eigvalsh(self.BtB, state.G, check_finite=False)
        self.mu = float(ev[-1])

    def weight(self, state: DowndateState, pos: int) -> float:
        """Exact current weight 1 - x'(G0 - B'B)^{-1}x of the row at ``pos``.

        Clamped to [0, 1], sub-tolerance weights set to zero.  G0 - B'B is
        the current Gram matrix, formed with at most 1/(1 - mu) times the
        cancellation error of a fresh one: a factor below 2 at every
        proposal but those of the phase's last removal.
        """
        self._fold(state)
        G = state.G - self.BtB
        x = state.X[state.active[pos]]
        # Cholesky factor and solve in one LAPACK call; a matrix it finds
        # not positive definite leaves the row no volume to remove
        _, z, info = scipy.linalg.lapack.dposv(G, x, lower=1)
        h = min(max(1.0 - float(x @ z), 0.0), 1.0) if info == 0 else 0.0
        return h if h >= WEIGHT_ZERO_TOL else 0.0


def _pack_rows(state: DowndateState) -> None:
    """Copy the active rows of X into ``rows[:size]``, in active order."""
    k = state.size
    state.X.take(state.active[:k], axis=0, out=state.rows[:k])


def _catch_up(state: DowndateState, block: _RemovedBlock) -> None:
    """End the deferral: downdate Z by the block's rows, rebuild the weights.

    The rows are downdated in removal order, each with its weight under
    the inverse so far, and count towards the refresh schedule like any
    other downdate; the weights are then recomputed from Z.
    """
    k = state.size
    Z = state.Z
    for x in state.X[state.active[k:block.synced][::-1]]:
        linalg.downdate(Z, x)
    _pack_rows(state)
    state.deferred = False
    state.downdates_since_refresh += block.synced - k
    if state.downdates_since_refresh >= state.refresh_every:
        _refresh(state)
    else:
        state.h = _fresh_weights(state.rows[:k], Z)


def _decode(raw: np.ndarray, has_uint32: int, uinteger: int):
    """The (word, uniform) pairs that scalar integers/random calls read from ``raw``.

    ``raw`` is PCG64 output taken with the 32-bit buffer in the given state,
    of length ``has_uint32 + 3 T``.  ``integers(k)`` takes one 32-bit word:
    the buffered high half if there is one, else the low half of the next
    output, whose high half it buffers.  ``random()`` takes a whole output,
    (r >> 11) * 2**-53, and leaves the buffer alone.  So a buffered word
    pairs with raw[0], and each later output triple (a, x, y) gives the
    pairs (low a, x) and (high a, y).
    """
    a, x, y = (raw[has_uint32 + i::3] for i in range(3))
    words = np.column_stack((a & np.uint64(0xFFFFFFFF), a >> np.uint64(32))).ravel()
    uniforms = np.concatenate((raw[:has_uint32], np.column_stack((x, y)).ravel()))
    uniforms = (uniforms >> np.uint64(11)) * 2.0**-53
    return [uinteger] * has_uint32 + words.tolist(), uniforms.tolist()


def _commit(bitgen: np.random.PCG64, start: dict, words: list, j: int) -> None:
    """Set ``bitgen`` to where ``j`` integers/random pairs from ``start`` leave it.

    ``words`` are those that ``_decode`` gave from ``start``.  A generator
    state carries the last buffered half even once it is read.
    """
    has = start["has_uint32"]
    bitgen.state = start
    p = j - has  # pairs decoded from output triples
    if p >= 0:
        bitgen.advance(has + 3 * (p // 2) + 2 * (p % 2))  # clears the buffer
        state = bitgen.state
        state["has_uint32"] = p % 2
        state["uinteger"] = words[has + 2 * ((p - 1) // 2) + 1] if p else start["uinteger"]
        bitgen.state = state


def _proposals(rng: np.random.Generator, cutoff: int):
    """The rejection phase's proposals: a coroutine sent the active row count.

    Prime it with ``next``; each ``send(k)`` then returns the pair
    ``(rng.integers(k), rng.random())`` and ``close`` leaves ``rng`` where
    those scalar calls would.  From a PCG64 generator, while k < 2**32 and
    at least REPLAY_MIN rows lie above ``cutoff`` >= 1 (so k >= 2), the
    pairs come from one ``random_raw`` block per up to REPLAY_BATCH
    proposals (``_decode``), sized to the rows left plus a margin, and the
    generator state is set back once the block ends (``_commit``).  The
    position is Lemire's (w k) >> 32 of the word w; where Lemire's method
    would draw another word, the block ends and that one proposal is drawn
    by the scalar calls.  Other generators get the scalar calls throughout.
    """
    integers, random = rng.integers, rng.random
    bitgen = getattr(rng, "bit_generator", None)
    k = yield
    while (type(bitgen) is np.random.PCG64 and cutoff > 0 and k < 2**32
           and k - cutoff >= REPLAY_MIN):
        start = bitgen.state
        has = start["has_uint32"]
        rows = k - cutoff
        pairs = min(REPLAY_BATCH, rows + rows // 8 + REPLAY_MIN) - has
        raw = bitgen.random_raw(has + 3 * -(-pairs // 2))
        words, uniforms = _decode(raw, has, start["uinteger"])
        j = 0
        try:
            for w, u in zip(words, uniforms):
                m = w * k
                if (m & 0xFFFFFFFF) < k and (m & 0xFFFFFFFF) < (2**32 - k) % k:
                    break  # Lemire's rejection: integers(k) reads another word
                j += 1
                k = yield m >> 32, u
            else:
                continue
        finally:
            _commit(bitgen, start, words, j)
        k = yield integers(k), random()
    while True:
        k = yield integers(k), random()


def _reject_rows(state: DowndateState, cutoff: int, s: int,
                 rng: np.random.Generator) -> int:
    """Remove rows by rejection down to ``cutoff``; returns the proposal count.

    Each trial proposes a uniform active row (one ``integers`` draw) and
    accepts it with probability equal to its current weight h (one
    ``random`` draw u); ``_proposals`` reads these pairs in blocks from raw
    PCG64 output.  Downdates are deferred: with the weight h0 of the
    row at the last sync and the block bound mu,
    h0 >= h >= _weight_floor(h0, mu), so u >= h0 rejects and u below the
    floor accepts; a u in between is compared with the exact weight
    (``_RemovedBlock.weight``).  Once a removal lifts mu to MU_RESYNC, mu
    is tightened to the exact eigenvalue, and if that is still at least
    MU_RESYNC the phase resyncs: fresh G, Z and weights of the active
    rows start a new block.  Before the last removal the limit is 1, where
    the bracket fails, as a resync would serve that one removal only.  At
    the hand-over to the weighted phase (more than ``s`` rows left)
    ``_catch_up`` brings Z and the weights up to date.
    """
    if state.size <= cutoff:
        return 0
    h = state.h
    proposals = _proposals(rng, cutoff)
    next(proposals)
    propose = proposals.send
    state.deferred = True
    block = _RemovedBlock(state)
    trials = 0
    try:
        while state.size > cutoff:
            k = state.size
            for t in range(1, REJECTION_CAP + 1):
                pos, u = propose(k)
                h0 = h.item(pos)
                if u >= h0:
                    continue
                lo = _weight_floor(h0, block.mu)
                if (u < lo and lo >= WEIGHT_ZERO_TOL) or u < block.weight(state, pos):
                    break
            else:
                raise AllWeightsZero(
                    f"{REJECTION_CAP} proposals in a row rejected with {k} rows left")
            trials += t
            remove_row(state, pos, h_i=h0)
            block.mu += 1.0 - h0  # the sync leverage
            # a resync pays off only through the proposals after it: none
            # past the cutoff (_catch_up follows), only mu < 1 for the last one
            limit = MU_RESYNC if state.size > cutoff + 1 else 1.0
            if block.mu >= limit and state.size > cutoff:
                block.tighten(state)
                if block.mu >= limit:
                    _pack_rows(state)
                    _resync(state)
                    h = state.h
                    block = _RemovedBlock(state)
    finally:
        proposals.close()  # sets the generator to the proposals used
    if state.size > s:
        _catch_up(state, block)
    return trials


def _volume_sample(X, cfg: SamplerConfig, rng: Optional[np.random.Generator],
                   _state: Optional[DowndateState], algorithm: str) -> SubsetSample:
    """Reverse iterative removal from the full set (or ``_state``) down to s rows.

    Rows above the cutoff -- max(s, 2d) for fastregvol, none for regvol --
    are removed by rejection with deferred downdates (``_reject_rows``;
    the mean weight stays >= 1/2 above 2d rows).  The rest are removed by
    weight, with every weight maintained by h_j -= (x_j'v)^2
    (v = Zx_i/sqrt(h_i)), so a weighted step over t active rows costs
    O(t*d).  The drift-guarded refresh schedule governs this weighted
    phase only (all of regvol, the fastregvol tail below the cutoff).
    """
    if _state is None or X is not _state.X:  # a state's X was checked once
        X = linalg.as_matrix(X)
    n, d = X.shape
    cfg.validate(n, d)
    rng = rng if rng is not None else np.random.default_rng(cfg.seed)
    state = _state if _state is not None else init_downdate_state(X, cfg.lam)
    start = state.size
    fast = algorithm == "fastregvol"
    trials = _reject_rows(state, max(cfg.s, 2 * d), cfg.s, rng) if fast else None
    while state.size > cfg.s:
        pos = _pick_weighted(state.h[: state.size], rng)
        if pos >= 0:
            remove_row(state, pos)
            continue
        # volume-0 frontier: all weights vanished, remove uniformly; the
        # rank-one downdate is invalid there, so rebuild instead.  A failed
        # rebuild zeroes the weights, which keeps the next removals uniform
        pos = int(rng.integers(state.size))
        _swap_out(state, pos)
        try:
            _refresh(state)
        except NotPositiveDefinite:
            state.h[: state.size] = 0.0
    return SubsetSample(
        indices=tuple(state.indices),
        s=cfg.s,
        algorithm=algorithm,
        rejection_trials=trials,
        # active keeps the removed rows past the prefix, newest first
        removal_order=tuple(state.active[cfg.s:start][::-1].tolist()),
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
                        seed: int = 0, _p: Optional[np.ndarray] = None) -> SubsetSample:
    """Draw s rows i.i.d. proportionally to their leverage scores.

    Returns a multiset (with replacement) and the importance weights
    1/sqrt(s*P(i)) used to rescale the subproblem.  ``_p`` hands over the
    probabilities P = scores / scores.sum() of (X, lam), computed once for
    many draws; it is read, never written.
    """
    X = linalg.as_matrix(X)
    n, d = X.shape
    SamplerConfig(s=s, lam=lam, seed=seed, algorithm="leverage").validate(n, d)
    rng = rng if rng is not None else np.random.default_rng(seed)
    p = _p
    if p is None:
        scores = linalg.leverage_scores(X, lam)
        p = scores / scores.sum()
    idx = np.sort(rng.choice(n, size=s, replace=True, p=p)) if s > 0 else np.array([], dtype=int)
    weights = tuple(1.0 / np.sqrt(s * p[i]) for i in idx) if s > 0 else ()
    return SubsetSample(
        indices=tuple(int(i) for i in idx),
        s=s,
        algorithm="leverage",
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
           _state: Optional[DowndateState | np.ndarray] = None) -> SubsetSample:
    """Draw one sample with the sampler that cfg.algorithm names.

    ``_state`` hands a volume sampler a prepared initial state, and the
    leverage baseline its row probabilities (see ``leverage_iid_sample``).
    """
    if cfg.algorithm == "regvol":
        return reg_vol_sample(X, cfg, rng, _state)
    if cfg.algorithm == "fastregvol":
        return fast_reg_vol_sample(X, cfg, rng, _state)
    if cfg.algorithm == "leverage":
        return leverage_iid_sample(X, cfg.s, cfg.lam, rng, seed=cfg.seed, _p=_state)
    raise InvalidConfig(f"unknown algorithm {cfg.algorithm!r}")
