"""Dense linear-algebra kernel.

Gram matrices, Cholesky log-determinants and solves, leverage scores, and
the Sherman-Morrison rank-one downdate used when rows are removed from a
subset.  Everything is plain float64 numpy; factorizations go through
scipy's LAPACK wrappers.  Log-determinants stay in log-space because subset
volumes span many orders of magnitude.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np
import scipy.linalg

from .errors import NotPositiveDefinite, SingularDowndate, TooLarge

# Cholesky pivot threshold, relative to the largest diagonal entry.
PD_PIVOT_RTOL = 1e-12

# Removal weight below this is treated as an exact zero (volume-0 frontier).
WEIGHT_ZERO_TOL = 1e-12


def as_matrix(x) -> np.ndarray:
    """Validate and return a 2-d float64 array with finite entries."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"expected a nonempty 2-d matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return a


def as_vector(x) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("vector has non-finite entries")
    return a


def gram(X, lam: float = 0.0) -> np.ndarray:
    """Return X'X + lam*I, symmetrized after accumulation.

    Raises TooLarge when numpy cannot allocate the d x d result or an
    entry overflows float64.
    """
    X = as_matrix(X)
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    d = X.shape[1]
    # an overflow is refused below, unwarned
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            G = X.T @ X
        except MemoryError as exc:
            raise TooLarge(f"cannot allocate the {d} x {d} Gram matrix") from exc
        G = 0.5 * (G + G.T)
        if lam > 0:
            G = G + lam * np.eye(d)
    if not np.isfinite(G).all():
        raise TooLarge(f"the {d} x {d} Gram matrix overflows float64")
    return G


def chol_factor(A) -> np.ndarray:
    """Lower Cholesky factor of A, with a scale-invariant pivot check.

    Raises NotPositiveDefinite when LAPACK fails or any pivot falls below
    PD_PIVOT_RTOL times the largest diagonal entry of A.
    """
    A = np.asarray(A, dtype=np.float64)
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc
    pivots = np.diag(L) ** 2
    # false for a nan pivot too
    if not np.min(pivots) > PD_PIVOT_RTOL * np.max(np.diag(A)):
        raise NotPositiveDefinite(
            f"Cholesky pivot {np.min(pivots):.3e} below tolerance"
        )
    return L


def chol_logdet(A) -> float:
    """log det(A) for positive definite A, via the Cholesky factor."""
    L = chol_factor(A)
    return float(2.0 * np.sum(np.log(np.diag(L))))


def solve_spd(A, B) -> np.ndarray:
    """Solve A x = B for positive definite A (B a vector or matrix)."""
    L = chol_factor(A)
    return scipy.linalg.cho_solve((L, True), np.asarray(B, dtype=np.float64),
                                  check_finite=False)


def inv_spd(A) -> np.ndarray:
    """Inverse of a positive definite matrix, symmetrized."""
    Z = solve_spd(A, np.eye(np.asarray(A).shape[0]))
    return 0.5 * (Z + Z.T)


def leverage_scores(X, lam: float = 0.0) -> np.ndarray:
    """Row scores x_i' (X'X + lam*I)^{-1} x_i.

    For lam=0 and full-rank X each score lies in [0,1] and they sum to the
    number of columns; for lam>0 they sum to the statistical dimension.
    """
    X = as_matrix(X)
    W = solve_spd(gram(X, lam), X.T)  # d x n
    return np.einsum("ij,ji->i", X, W)


def quad_forms(X, Z) -> np.ndarray:
    """Diagonal of X Z X' (one quadratic form per row of X)."""
    return np.einsum("ij,ij->i", X @ Z, X)


def downdate(Z, x, h: Optional[float] = None) -> np.ndarray:
    """Remove the rank-one term xx' from the matrix that Z inverts, in place.

    Given Z = G^{-1} and h = 1 - x'Zx (computed from Z when not given),
    sets Z to (G - xx')^{-1} = Z + vv' with v = Zx/sqrt(h), and returns v.
    Requires h above tolerance: h -> 0 means the removal makes the matrix
    singular.
    """
    v = Z @ x
    if h is None:
        h = 1.0 - float(x @ v)
    if h <= WEIGHT_ZERO_TOL:
        raise SingularDowndate(f"removal weight {h:.3e} below tolerance")
    v /= math.sqrt(h)
    Z += v[:, None] * v
    return v
