"""Volume-sampling row subsets for linear regression.

Samplers (exact reverse-iterative volume sampling, its rejection-sampling
accelerated variant, and the i.i.d. leverage-score baseline), subproblem
least-squares/ridge estimators, and brute-force enumeration oracles that
check the samplers' expectation identities exactly.
"""

from .errors import (
    AllWeightsZero,
    DimensionMismatch,
    InvalidConfig,
    NotPositiveDefinite,
    ParseError,
    RankDeficientSubset,
    SingularDowndate,
    TooLarge,
    UnsupportedCombination,
    VolsampleError,
)
from .oracle import (
    ExactSubsetDistribution,
    IdentityReport,
    cauchy_binet_check,
    d_lambda,
    empirical_distribution_test,
    exact_distribution,
    oracle_sample,
    verify_identity,
)
from .regression import (
    Estimator,
    NoiseModel,
    RegressionProblem,
    averaged_estimator,
    generate_noisy_problem,
    loo_identity_residual,
    mse,
    mspe,
    solve_full,
    solve_subproblem,
    total_loss,
)
from .sampling import (
    DowndateState,
    SamplerConfig,
    SubsetSample,
    fast_reg_vol_sample,
    leverage_iid_sample,
    marginal_probabilities,
    reg_vol_sample,
    sample,
)

__version__ = "0.1.0"

__all__ = [
    "AllWeightsZero",
    "DimensionMismatch",
    "DowndateState",
    "Estimator",
    "ExactSubsetDistribution",
    "IdentityReport",
    "InvalidConfig",
    "NoiseModel",
    "NotPositiveDefinite",
    "ParseError",
    "RankDeficientSubset",
    "RegressionProblem",
    "SamplerConfig",
    "SingularDowndate",
    "SubsetSample",
    "TooLarge",
    "UnsupportedCombination",
    "VolsampleError",
    "averaged_estimator",
    "cauchy_binet_check",
    "d_lambda",
    "empirical_distribution_test",
    "exact_distribution",
    "fast_reg_vol_sample",
    "generate_noisy_problem",
    "leverage_iid_sample",
    "loo_identity_residual",
    "marginal_probabilities",
    "mse",
    "mspe",
    "oracle_sample",
    "reg_vol_sample",
    "sample",
    "solve_full",
    "solve_subproblem",
    "total_loss",
    "verify_identity",
]
