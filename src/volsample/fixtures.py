"""Reusable test fixtures: hand-built degenerate cases and seeded matrices.

* ``degenerate_problem``: a 3x2 design with two identical rows, the minimal
  case where volume sampling assigns probability zero to one pair and the
  loss-inflation equality turns into a strict inequality.
* ``perturbed_problem``: the same design with one entry nudged by eps,
  restoring general position; subset volumes become {eps^2, 1, (1+eps)^2}.
* ``centered_simplex_problem``: corners of a regular simplex centered at the
  origin with constant responses -- every size-d subset attains exactly
  (d+1) times the optimal loss.
* ``block_identity``: stacked identity blocks, the design whose coordinate
  counts drive closed-form prediction error and make i.i.d. sampling miss
  coordinates.
* ``gaussian_matrix``: seeded Gaussian designs (in general position almost
  surely).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .regression import RegressionProblem


def degenerate_problem() -> RegressionProblem:
    X = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 0.0]])
    y = np.array([1.0, 0.0, 0.0])
    return RegressionProblem(X=X, y=y)


def perturbed_problem(eps: float = 0.1) -> RegressionProblem:
    X = np.array([[1.0, 1.0 + eps], [1.0, 1.0], [1.0, 0.0]])
    y = np.array([1.0, 0.0, 0.0])
    return RegressionProblem(X=X, y=y)


def centered_simplex(d: int) -> np.ndarray:
    """(d+1) x d matrix whose rows are regular simplex corners summing to 0."""
    if d < 1:
        raise ValueError("d must be positive")
    corners = np.eye(d + 1) - np.full((d + 1, d + 1), 1.0 / (d + 1))
    basis = scipy.linalg.null_space(np.ones((1, d + 1)))  # (d+1) x d, orthonormal
    return corners @ basis


def centered_simplex_problem(d: int, response: float = 1.0) -> RegressionProblem:
    X = centered_simplex(d)
    return RegressionProblem(X=X, y=np.full(d + 1, response))


def block_identity(n: int, d: int) -> np.ndarray:
    """n x d design made of n/d stacked identity blocks (requires d | n)."""
    if n % d != 0:
        raise ValueError("n must be a multiple of d")
    return np.tile(np.eye(d), (n // d, 1))


def gaussian_matrix(n: int, d: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((n, d))
