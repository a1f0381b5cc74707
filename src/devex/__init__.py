"""Error exponents for binary hypothesis testing on finite alphabets.

Exact large-deviation exponents for threshold tests with an erasure region,
martingale-based lower bounds on those exponents, Fisher-information limits
in smooth parametric families, and a Monte Carlo harness for validating all
of it against simulation and exact small-instance tail sums.
"""

from .concentration import (
    ONE_SIDED,
    TWO_SIDED,
    MartingaleParams,
    ScalingRow,
    azuma_bound,
    quad_cubic_floor,
    refined_bound,
    sqrt_scaling_report,
    xlogx_exact,
    xlogx_floor,
)
from .errors import (
    AlphabetMismatch,
    DegenerateIncrements,
    DevexError,
    DomainError,
    DuplicateLabel,
    InadmissibleThresholds,
    NoConvergence,
    NonPositiveProbability,
    NotBinary,
    NotNormalized,
    OutOfDomain,
)
from .exponents import (
    ZERO_THRESHOLDS,
    ExactExponents,
    ExponentBounds,
    ExponentReport,
    RateFunctionResult,
    Thresholds,
    azuma_lower_bounds,
    chernoff_information,
    check_admissible,
    compare_report,
    exact_exponents,
    rate_function,
    refined_lower_bounds,
)
from .fisher import (
    FisherLimitReport,
    ParametricFamily,
    RatioRow,
    bernoulli_family,
    fisher_information,
    limit_ratios,
    ternary_family,
)
from .probdist import (
    HypothesisPair,
    LlrStats,
    Pmf,
    binary_kl,
    kl_divergence,
    llr_stats,
    log_mgf,
    make_pmf,
    renyi_divergence,
)

__version__ = "0.1.0"

# The Monte Carlo layer needs numpy; the exponent, bound and Fisher layers do
# not. Its names are looked up in devex.montecarlo on every access (PEP 562)
# rather than bound here, so importing devex loads no numpy, and a name
# replaced on devex.montecarlo is seen through devex at once.
_MONTECARLO = frozenset({
    "Estimate",
    "MartingaleTrace",
    "SimConfig",
    "SimResult",
    "SllResult",
    "TailProbabilities",
    "empirical_exponent",
    "exact_binary_tail",
    "martingale_trace",
    "simulate_test",
    "sll_check",
})


def __getattr__(name):
    if name in _MONTECARLO:
        from . import montecarlo

        return getattr(montecarlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AlphabetMismatch",
    "DegenerateIncrements",
    "DevexError",
    "DomainError",
    "DuplicateLabel",
    "Estimate",
    "ExactExponents",
    "ExponentBounds",
    "ExponentReport",
    "FisherLimitReport",
    "HypothesisPair",
    "InadmissibleThresholds",
    "LlrStats",
    "MartingaleParams",
    "MartingaleTrace",
    "NoConvergence",
    "NonPositiveProbability",
    "NotBinary",
    "NotNormalized",
    "ONE_SIDED",
    "OutOfDomain",
    "ParametricFamily",
    "Pmf",
    "RateFunctionResult",
    "RatioRow",
    "ScalingRow",
    "SimConfig",
    "SimResult",
    "SllResult",
    "TailProbabilities",
    "Thresholds",
    "TWO_SIDED",
    "ZERO_THRESHOLDS",
    "azuma_bound",
    "azuma_lower_bounds",
    "bernoulli_family",
    "binary_kl",
    "chernoff_information",
    "check_admissible",
    "compare_report",
    "empirical_exponent",
    "exact_binary_tail",
    "exact_exponents",
    "fisher_information",
    "kl_divergence",
    "limit_ratios",
    "llr_stats",
    "log_mgf",
    "make_pmf",
    "martingale_trace",
    "quad_cubic_floor",
    "rate_function",
    "refined_bound",
    "refined_lower_bounds",
    "renyi_divergence",
    "simulate_test",
    "sll_check",
    "sqrt_scaling_report",
    "ternary_family",
    "xlogx_exact",
    "xlogx_floor",
    "__version__",
]
