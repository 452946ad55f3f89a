"""Sharp two-sided cosine-family bounds for sin(x)/x and sinh(x)/x, with
certified enclosures for derived constants and means, and a verification
engine for every inequality in the corpus."""

__version__ = "0.1.0"

from .core import (
    CoefficientSeq,
    GapEvaluation,
    GapMethod,
    SERIES_SWITCH,
    cos_bound,
    cos_power_bound,
    cosh_bound,
    cosh_power_bound,
    gap_series_coeff,
    quartic_gap_coeff,
    sinc,
    sinc_gap,
    sinhc,
    sinhc_gap,
    sinhc_gap_scaled,
)
from .constants import (
    QuarticBound,
    SharpConstant,
    Side,
    quartic_bound_eval,
    quartic_constants,
    sinc_gap_at_half_pi,
    sinc_upper_edge,
    sinhc_upper_edge,
    solve_sinc_lower_edge,
)
from .integrals import (
    Enclosure,
    QuadratureResult,
    bound_reciprocal_integrals,
    catalan_enclosure,
    catalan_reference,
    sh_enclosure,
    sh_reference,
    si_enclosure,
    si_reference,
    trigamma_half_enclosure,
)
from .means import (
    MeanPoint,
    comparison_coeff,
    geometric_mean,
    half_log_ratio,
    log_mean,
    log_mean_sandwich,
    lower_bound_comparison,
    mean_family,
    random_pairs,
    sb_lower_bound,
    sb_mean,
)
from .verifier import (
    InequalityCase,
    SharpnessFamily,
    ThresholdSide,
    Verdict,
    VerificationReport,
    Violation,
    expected_sharpness_verdict,
    verify,
    verify_chain,
    verify_leibniz_ratio,
    verify_param_monotone,
    verify_sharpness,
)
from .corpus import CheckResult, run_suite
