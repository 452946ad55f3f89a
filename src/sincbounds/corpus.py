"""The registered check corpus behind the verify CLI command.

Suites:
    theorem1     sharp two-sided trig family (holds inside, fails outside)
    theorem2     sharp two-sided hyperbolic family
    chains       the two fixed-parameter inequality chains
    propositions derived enclosures against their oracles, mean inequalities
    remarks      additive vs power-form orderings, comparison series
    all          everything above

Each entry yields a CheckResult whose ok flag already accounts for the
expected outcome (sharpness entries are expected to fail past the edge).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import core, constants, integrals, means
from .core import _HALF_PI, _UPPER_EDGE
from .verifier import (
    HYP_DOMAIN,
    TRIG_DOMAIN,
    InequalityCase,
    SharpnessFamily,
    ThresholdSide,
    Verdict,
    VerificationReport,
    expected_sharpness_verdict,
    family_case,
    verify,
    verify_chain,
    verify_param_monotone,
    verify_sharpness,
)


@dataclass(frozen=True)
class CheckResult:
    suite: str
    id: str
    kind: str               # "inequality" | "enclosure" | "value"
    ok: bool
    expected: str
    observed: str
    detail: str = ""
    report: VerificationReport | None = field(default=None, compare=False)


# (label, p) rows shared by the chains: the five members up to sqrt(15)/5,
# and the two above sinhc and the log mean
_LOW = (("1/sqrt3", 1.0 / math.sqrt(3.0)), ("2/3", 2.0 / 3.0), ("1/sqrt2", 1.0 / math.sqrt(2.0)),
        ("3/4", 0.75), ("sqrt15/5", _UPPER_EDGE))
_HIGH = (("1", 1.0), ("2/sqrt3", 2.0 / math.sqrt(3.0)))


def _chain(module, family, rows, target, at: int) -> list[tuple[str, object]]:
    """The members family(label) = partial(module.family, p), one per
    (label, p) row in order, with the target (name, function) at index at."""
    fn = getattr(module, family)
    members = [(f"{family}({label})", partial(fn, p)) for label, p in rows]
    members.insert(at, target)
    return members


def cos_chain_members() -> list[tuple[str, object]]:
    """The nine-member trig chain on (0, pi/2), increasing order."""
    above = (("sqrt(2/3)", math.sqrt(2.0 / 3.0)), ("sqrt3/2", math.sqrt(3.0) / 2.0), ("1", 1.0))
    return _chain(core, "cos_bound", _LOW + above, ("sinc", core.sinc), 4)


def cosh_chain_members() -> list[tuple[str, object]]:
    """The eight-member hyperbolic chain, increasing order."""
    return _chain(core, "cosh_bound", _LOW + _HIGH, ("sinhc", core.sinhc), 5)


# the fixed-parameter chains in x: name -> (members, domain)
CHAINS = {"m1c": (cos_chain_members, TRIG_DOMAIN), "m2c": (cosh_chain_members, (0.0, 20.0))}


def mean_chain_members() -> list[tuple[str, object]]:
    """Family members below the log mean, then the log mean, then the two above."""
    rows = tuple((f"{p:.6g}", p) for _, p in _LOW) + _HIGH
    return _chain(means, "mean_family", rows, ("log_mean", means.log_mean), 5)


def _verdict_result(suite: str, report: VerificationReport, expected: Verdict) -> CheckResult:
    return CheckResult(
        suite=suite,
        id=report.case_id,
        kind="inequality",
        ok=report.verdict is expected,
        expected=expected.value,
        observed=report.verdict.value,
        detail=f"min_margin={report.min_margin:.3e} at x={report.argmin_x:.6g}"
        + (f"; {report.diagnostic}" if report.diagnostic else ""),
        report=report,
    )


def _holds(suite: str, cases: list[InequalityCase], points: int) -> list[CheckResult]:
    return [_verdict_result(suite, verify(case, points), Verdict.HOLDS) for case in cases]


def _theorem(suite: str, family: str, target: str, domain, lower, upper,
             lower_edge: SharpnessFamily, upper_edge: SharpnessFamily,
             points: int) -> list[CheckResult]:
    """family(p) < target for p in lower, target < family(q) for q in upper,
    and each sharp edge failing just past it."""
    out = _holds(suite, [family_case(family, p, target, None, domain) for p in lower]
                 + [family_case(target, None, family, q, domain) for q in upper], points)
    for fam, side in ((lower_edge, ThresholdSide.ABOVE), (upper_edge, ThresholdSide.BELOW)):
        rep = verify_sharpness(fam, side, 1e-3, points=points)
        out.append(_verdict_result(suite, rep, expected_sharpness_verdict(fam, side)))
    return out


def _suite_theorem1(points: int, seed: int) -> list[CheckResult]:
    edge = constants.solve_sinc_lower_edge(1e-12).value
    return _theorem("theorem1", "cos_bound", "sinc", TRIG_DOMAIN, (0.1, 0.5, 0.7, edge - 1e-6),
                    (_UPPER_EDGE, 0.9, 1.0), SharpnessFamily.SINC_LOWER,
                    SharpnessFamily.SINC_UPPER, points)


def _suite_theorem2(points: int, seed: int) -> list[CheckResult]:
    return _theorem("theorem2", "cosh_bound", "sinhc", HYP_DOMAIN, (0.3, 0.6, _UPPER_EDGE),
                    (1.0, 1.2, 2.0), SharpnessFamily.SINHC_LOWER,
                    SharpnessFamily.SINHC_UPPER, points)


def _suite_chains(points: int, seed: int) -> list[CheckResult]:
    return [_verdict_result("chains", rep, Verdict.HOLDS) for members, domain in CHAINS.values()
            for rep in verify_chain(members(), domain, points)]


def _enclosure_result(suite: str, name: str, enc: integrals.Enclosure, value: float,
                      extra: str = "") -> CheckResult:
    ok = enc.contains(value)
    return CheckResult(
        suite=suite,
        id=name,
        kind="enclosure",
        ok=ok,
        expected=f"[{enc.lo:.10g}, {enc.hi:.10g}]",
        observed=f"{value:.12g}",
        detail=extra,
    )


def _value_result(suite: str, name: str, ok: bool, expected: str, observed: str,
                  detail: str = "") -> CheckResult:
    return CheckResult(suite=suite, id=name, kind="value", ok=ok,
                       expected=expected, observed=observed, detail=detail)


def _suite_propositions(points: int, seed: int) -> list[CheckResult]:
    out = []
    for p in (0.0, 1.0 / 3.0, 2.0 / 3.0, _UPPER_EDGE):
        for t in (0.3, 0.8, 1.2, _HALF_PI):
            enc = integrals.si_enclosure(t, p)
            ref = integrals.si_reference(t)
            out.append(_enclosure_result(
                "propositions", f"si_enclosure(t={t:.6g}, p={p:.6g})", enc, ref.value,
                extra=f"oracle err<={ref.error_estimate:.1e}"))
    for t in (0.5, 1.0, 3.0, 10.0):
        enc = integrals.sh_enclosure(t)
        ref = integrals.sh_reference(t)
        out.append(_enclosure_result("propositions", f"sh_enclosure(t={t:.6g})", enc, ref.value))
    out.append(_enclosure_result("propositions", "trigamma_half_enclosure",
                                 integrals.trigamma_half_enclosure(), math.pi ** 2 / 2.0))
    enc = integrals.catalan_enclosure()
    out.append(_enclosure_result("propositions", "catalan_enclosure",
                                 enc, integrals.catalan_reference(200_000)))
    lo_closed, hi_closed = integrals.bound_reciprocal_integrals()
    for name, closed, p in (("reciprocal integral (tight side)", lo_closed, _UPPER_EDGE),
                            ("reciprocal integral (loose side)", hi_closed, 0.75)):
        quad_val = integrals._quad(lambda x: 1.0 / core.cos_bound(p, x), 0.0, _HALF_PI)
        ok = abs(quad_val.value - closed) < 1e-9
        out.append(_value_result("propositions", name, ok,
                                 f"{closed:.10g}", f"{quad_val.value:.10g}"))
    # x/sin x sandwiched between reciprocals of the 4th/5th chain members
    out += _holds("propositions", [
        InequalityCase("1/cos_bound(sqrt15/5) < x/sin(x)",
                       lambda x: 1.0 / core.cos_bound(_UPPER_EDGE, x),
                       lambda x: 1.0 / core.sinc(x), TRIG_DOMAIN),
        InequalityCase("x/sin(x) < 1/cos_bound(3/4)", lambda x: 1.0 / core.sinc(x),
                       lambda x: 1.0 / core.cos_bound(0.75, x), TRIG_DOMAIN)], points)

    pair = means._random_pair_arrays(10_000, seed)
    worst = float(np.min((means.sb_mean(pair) - means.sb_lower_bound(pair)) / pair[1]))
    out.append(_value_result("propositions", "sb_lower_bound <= sb_mean (1e4 pairs)",
                             worst >= 0.0, ">= 0", f"worst rel gap {worst:.3e}"))
    miss = int(np.count_nonzero(~means.log_mean_sandwich(pair).contains(means.log_mean(pair))))
    out.append(_value_result("propositions", "log_mean_sandwich contains L (1e4 pairs)",
                             miss == 0, "0 misses", f"{miss} misses"))
    a, b = means._random_pair_arrays(1000, seed + 1)
    rep = verify_param_monotone(np.linspace(0.0, 3.0, 21), (a, b))
    out.append(_verdict_result("propositions", rep, Verdict.HOLDS))
    return out


# family, target, domain, p where the power form is the sharper lower bound,
# p where the additive form is (the two swap at 1/sqrt3)
_REMARKS = (
    ("cos", "sinc", TRIG_DOMAIN, (0.46, 0.5, 0.55), (0.6, 0.7, 0.77)),
    ("cosh", "sinhc", HYP_DOMAIN, (0.45, 0.5, 0.55), (0.6, 0.7, 0.76)),
)


def _suite_remarks(points: int, seed: int) -> list[CheckResult]:
    cases = []
    for family, target, domain, power_wins, additive_wins in _REMARKS:
        power, additive = family + "_power", family + "_bound"
        for best, other, ps in ((power, additive, power_wins), (additive, power, additive_wins)):
            for p in ps:
                cases += [family_case(best, p, target, None, domain),
                          family_case(other, p, best, p, domain)]
    out = _holds("remarks", cases, points)
    # closing comparison: D(x) >= 0 and its odd-series coefficients
    grid = np.geomspace(1e-3, 30.0, 200)
    dvals = [means.lower_bound_comparison(float(x)) for x in grid]
    dmin = min(dvals)
    out.append(_value_result("remarks", "lower_bound_comparison >= 0 on [1e-3, 30]",
                             dmin >= 0.0, ">= 0", f"min {dmin:.3e}"))
    coeffs = [means.comparison_coeff(n) for n in range(1, 51)]
    ok = (abs(coeffs[0]) < 1e-12 and abs(coeffs[1]) < 1e-12
          and all(c > 0.0 for c in coeffs[2:]))
    out.append(_value_result("remarks", "comparison coefficients: 0, 0, then positive",
                             ok, "d1=d2=0, d_n>0", f"d3={coeffs[2]:.12g}"))
    return out


_SUITES = {
    "theorem1": _suite_theorem1,
    "theorem2": _suite_theorem2,
    "chains": _suite_chains,
    "propositions": _suite_propositions,
    "remarks": _suite_remarks,
}
SUITES = tuple(_SUITES)


def run_suite(name: str, points: int = 4096, seed: int = 20250810) -> list[CheckResult]:
    name = name.lower()
    if name == "all":
        # each suite through the module attribute, so a wrapper put there sees it
        return [r for s in SUITES for r in run_suite(s, points=points, seed=seed)]
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {('all',) + SUITES}")
    return _SUITES[name](points, seed)
