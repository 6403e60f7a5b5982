"""Exception hierarchy shared by all volsample modules.

Every error carries a short machine-readable ``code`` so the CLI can emit
it in JSON reports.
"""


class VolsampleError(Exception):
    code = "error"


class NotPositiveDefinite(VolsampleError):
    """Cholesky pivot fell below tolerance (rank-deficient Gram matrix)."""

    code = "not_positive_definite"


class SingularDowndate(VolsampleError):
    """Removal weight too small: downdating would make the inverse blow up."""

    code = "singular_downdate"


class RankDeficientSubset(VolsampleError):
    """Unregularized subproblem has a singular Gram matrix."""

    code = "rank_deficient_subset"


class AllWeightsZero(VolsampleError):
    """Every removal weight vanished while removals are still required."""

    code = "all_weights_zero"


class InvalidConfig(VolsampleError):
    code = "invalid_config"


class TooLarge(VolsampleError):
    """Exact enumeration would exceed the hard subset-count guardrail, or a
    dense matrix cannot be allocated."""

    code = "too_large"


class UnsupportedCombination(VolsampleError):
    """Identity requested with parameters it is not defined for."""

    code = "unsupported_combination"


class ParseError(VolsampleError):
    code = "parse_error"

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DimensionMismatch(VolsampleError):
    code = "dimension_mismatch"
