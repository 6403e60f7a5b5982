"""Subsampled least-squares and ridge estimators, losses, and noise models.

The estimators here consume row subsets produced by the samplers: solve the
(possibly reweighted) subproblem, evaluate the total square loss over all
rows, average independent unbiased estimators, and score against a known
noise model via mean squared (prediction) error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import linalg
from .errors import NotPositiveDefinite, RankDeficientSubset
from .sampling import SubsetSample


@dataclass(frozen=True)
class RegressionProblem:
    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = linalg.as_matrix(self.X)
        y = linalg.as_vector(self.y)
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y row counts disagree")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class Estimator:
    w: np.ndarray
    lam: float


@dataclass(frozen=True)
class NoiseModel:
    """Responses are X @ w_true plus mean-zero noise of std sigma."""

    w_true: np.ndarray
    sigma: float

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")
        object.__setattr__(self, "w_true", linalg.as_vector(self.w_true))


def _subset_rows(p: RegressionProblem, subset) -> tuple[np.ndarray, np.ndarray]:
    """Rows and responses selected by a subset, importance-rescaled if present."""
    if isinstance(subset, SubsetSample):
        rows = list(subset.indices)
        Xs, ys = p.X[rows], p.y[rows]
        if subset.importance_weights is not None:
            w = np.asarray(subset.importance_weights)
            Xs = Xs * w[:, None]
            ys = ys * w
        return Xs, ys
    rows = list(subset)
    return p.X[rows], p.y[rows]


def solve_subproblem(p: RegressionProblem, subset, lam: float = 0.0) -> Estimator:
    """Minimizer of |X_S w - y_S|^2 + lam |w|^2 on the selected rows.

    Importance weights attached to a leverage multiset are applied to the
    rows and responses before solving.
    """
    Xs, ys = _subset_rows(p, subset)
    G = linalg.gram(Xs, lam)
    try:
        w = linalg.solve_spd(G, Xs.T @ ys)
    except NotPositiveDefinite as exc:
        raise RankDeficientSubset(
            f"subset of {Xs.shape[0]} rows is rank deficient at lam={lam}"
        ) from exc
    return Estimator(w=w, lam=lam)


def solve_full(p: RegressionProblem, lam: float = 0.0) -> Estimator:
    return solve_subproblem(p, range(p.n), lam)


def total_loss(p: RegressionProblem, e: Estimator) -> float:
    """Square loss of the estimator summed over all rows."""
    r = p.X @ e.w - p.y
    return float(r @ r)


def loo_identity_residual(p: RegressionProblem, i: int) -> float:
    """Deviation in the leave-one-out loss identity for row i.

    Dropping row i raises the optimal loss by exactly the row's leverage
    times its squared error under the reduced solution:

        L(w_drop) - L(w_full) = lev_i * (x_i' w_drop - y_i)^2.

    Returns the absolute difference of the two sides (0 up to roundoff on
    well-conditioned problems).
    """
    rest = [j for j in range(p.n) if j != i]
    w_full = solve_full(p).w
    w_drop = solve_subproblem(p, rest).w
    lev_i = float(linalg.leverage_scores(p.X)[i])
    loss_full = float(np.sum((p.X @ w_full - p.y) ** 2))
    loss_drop = float(np.sum((p.X @ w_drop - p.y) ** 2))
    row_err = float(p.X[i] @ w_drop - p.y[i]) ** 2
    return abs((loss_drop - loss_full) - lev_i * row_err)


def averaged_estimator(p: RegressionProblem, samples: Sequence[SubsetSample],
                       lam: float = 0.0) -> Estimator:
    """Arithmetic mean of the per-subset estimators."""
    if not samples:
        raise ValueError("need at least one sample")
    parts = [solve_subproblem(p, smp, lam) for smp in samples]
    w = np.mean([e.w for e in parts], axis=0)
    return Estimator(w=w, lam=lam)


def mspe(p: RegressionProblem, e: Estimator, model: NoiseModel) -> float:
    """Mean squared prediction error against the true weights."""
    r = p.X @ (e.w - model.w_true)
    return float(r @ r) / p.n


def mse(e: Estimator, model: NoiseModel) -> float:
    r = e.w - model.w_true
    return float(r @ r)


def generate_noisy_problem(X, model: NoiseModel,
                           rng: Optional[np.random.Generator] = None,
                           seed: int = 0) -> RegressionProblem:
    """y = X @ w_true + Gaussian noise of std sigma, deterministic per seed."""
    X = linalg.as_matrix(X)
    rng = rng if rng is not None else np.random.default_rng(seed)
    noise = model.sigma * rng.standard_normal(X.shape[0])
    return RegressionProblem(X=X, y=X @ model.w_true + noise)
