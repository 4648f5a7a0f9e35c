"""Hermite-series pricing of arithmetic Asian options under polynomial jump-diffusions.

The paper's selector calculus (``vec``, ``vecl``, the eliminating and
duplicating selectors and ``mth_selectors``) is importable from
:mod:`asianhermite.kronecker`; the multinomial expansion from
:mod:`asianhermite.pricing`.
"""

from .benchmarks import (
    GaussianLaw,
    accuracy_gamma,
    error_constant,
    gaussian_call,
    ou_asian_law,
    scale_floor,
    std_normal,
)
from .correlators import (
    CorrelatorEngine,
    CorrelatorQuery,
    correlator,
    correlator_kronecker_reference,
    correlator_tower_oracle,
)
from .generator import (
    ModelSpec,
    NigParams,
    NumericalError,
    generator_matrix,
    levy_moments,
    matrix_exponential,
    max_order,
    moment,
    moment_vector,
)
from .hermite import (
    GhpBasis,
    PayoffExpansion,
    change_of_basis,
    ghp_eval,
    ghp_norm_sq,
    hermite_eval,
    payoff_coefficients,
    payoff_l2_error,
    payoff_series_eval,
)
from .montecarlo import McConfig, McEstimate, mc_price, simulate_paths
from .pricing import (
    PriceReport,
    PriceRequest,
    StoppingDecision,
    asian_price,
    average_std,
    default_drift,
    delta,
    european_price,
    stopping_criterion,
    theta,
)

__version__ = "0.1.0"

__all__ = [
    "CorrelatorEngine",
    "CorrelatorQuery",
    "GaussianLaw",
    "GhpBasis",
    "McConfig",
    "McEstimate",
    "ModelSpec",
    "NigParams",
    "NumericalError",
    "PayoffExpansion",
    "PriceReport",
    "PriceRequest",
    "StoppingDecision",
    "accuracy_gamma",
    "asian_price",
    "average_std",
    "change_of_basis",
    "correlator",
    "correlator_kronecker_reference",
    "correlator_tower_oracle",
    "default_drift",
    "delta",
    "error_constant",
    "european_price",
    "gaussian_call",
    "generator_matrix",
    "ghp_eval",
    "ghp_norm_sq",
    "hermite_eval",
    "levy_moments",
    "matrix_exponential",
    "max_order",
    "mc_price",
    "moment",
    "moment_vector",
    "ou_asian_law",
    "payoff_coefficients",
    "payoff_l2_error",
    "payoff_series_eval",
    "scale_floor",
    "simulate_paths",
    "std_normal",
    "stopping_criterion",
    "theta",
]
