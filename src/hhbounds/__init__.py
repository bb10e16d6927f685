"""Quadrature deviation functionals, P-convexity error bounds, and an
inequality verification harness with exact-arithmetic confirmation."""

__version__ = "0.1.0"

from .corpus import (
    GridSpec,
    Interval,
    PConvexityReport,
    TestFunction,
    check_p_convex,
    corpus_standard,
    get_function,
)
from .oracle import (
    ConvergenceError,
    EvaluationError,
    OracleError,
    QuadratureResult,
    integrate,
    integrate_exact_poly,
)
from .kernel import (
    kernel_value,
    weighted_moment,
    weighted_moment_large_lambda,
    weighted_moment_small_lambda,
)
from .functionals import (
    DeviationValue,
    functional_lambda,
    hh_gap_left,
    hh_gap_right,
    hh_p_check,
    identity_residual,
    simpson_deviation,
)
from .bounds import (
    DerivativeEnvelope,
    EndpointData,
    bound_bounded_m,
    bound_classical,
    bound_corollary,
    bound_theorem5,
    bound_theorem6,
    compare_bounds,
)
from .means import (
    check_proposition,
    mean_arithmetic,
    mean_generalized_log,
    mean_logarithmic,
)
from .records import VerificationRecord
from .harness import (
    BoundClaim,
    CampaignConfig,
    CampaignResult,
    CounterexampleSearch,
    find_counterexample,
    ledger_standard,
    run_campaign,
)

__all__ = [
    "__version__",
    "Interval",
    "TestFunction",
    "GridSpec",
    "PConvexityReport",
    "check_p_convex",
    "corpus_standard",
    "get_function",
    "QuadratureResult",
    "OracleError",
    "EvaluationError",
    "ConvergenceError",
    "integrate",
    "integrate_exact_poly",
    "kernel_value",
    "weighted_moment",
    "weighted_moment_small_lambda",
    "weighted_moment_large_lambda",
    "DeviationValue",
    "functional_lambda",
    "identity_residual",
    "hh_gap_left",
    "hh_gap_right",
    "hh_p_check",
    "simpson_deviation",
    "EndpointData",
    "DerivativeEnvelope",
    "bound_theorem5",
    "bound_theorem6",
    "bound_corollary",
    "bound_bounded_m",
    "bound_classical",
    "compare_bounds",
    "mean_arithmetic",
    "mean_logarithmic",
    "mean_generalized_log",
    "check_proposition",
    "VerificationRecord",
    "BoundClaim",
    "CampaignConfig",
    "CampaignResult",
    "CounterexampleSearch",
    "ledger_standard",
    "run_campaign",
    "find_counterexample",
]
