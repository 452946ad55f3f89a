"""Sharp two-sided cosine-family bounds for sin(x)/x and sinh(x)/x, with
certified enclosures for derived constants and means, and a verification
engine for every inequality in the corpus.

core, constants and integrals are imported with the package and need no
numpy for a number.  The names of means, verifier and corpus, which import
numpy, resolve on first access (PEP 562), so a process that only computes
numbers never loads it.
"""

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

# the module of each public name of means, verifier and corpus, which import
# numpy; __getattr__ imports it on the name's first access
_MODULE_OF = {name: module for module, names in (
    ("means", ("MeanPoint", "comparison_coeff", "geometric_mean", "half_log_ratio", "log_mean",
               "log_mean_sandwich", "lower_bound_comparison", "mean_family", "random_pairs",
               "sb_lower_bound", "sb_mean")),
    ("verifier", ("InequalityCase", "SharpnessFamily", "ThresholdSide", "Verdict",
                  "VerificationReport", "Violation", "expected_sharpness_verdict", "verify",
                  "verify_chain", "verify_leibniz_ratio", "verify_param_monotone",
                  "verify_sharpness")),
    ("corpus", ("CheckResult", "run_suite")),
) for name in names}

# the eager names and submodules above, and every lazy name and submodule
__all__ = sorted({n for n in globals() if not n.startswith("_")}
                 | set(_MODULE_OF) | set(_MODULE_OF.values()))


def __getattr__(name: str):
    import importlib
    if name in _MODULE_OF.values():
        return importlib.import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
