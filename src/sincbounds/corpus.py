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

import numpy as np

from . import core, constants, integrals, means
from .core import _HALF_PI, _UPPER_EDGE, CHAINS, HYP_DOMAIN, TRIG_DOMAIN, member
from .verifier import (
    InequalityCase,
    SharpnessFamily,
    ThresholdSide,
    Verdict,
    VerificationReport,
    _at_most,
    _verify_cases,
    edge_case,
    expected_sharpness_verdict,
    family_case,
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
    return [_verdict_result(suite, rep, Verdict.HOLDS) for rep in _verify_cases(cases, points, 2)]


def _theorem(suite: str, lower, upper, lower_edge: SharpnessFamily,
             upper_edge: SharpnessFamily, points: int) -> list[CheckResult]:
    """The edge_case of lower_edge at each p in lower and of upper_edge at
    each q in upper, and each sharp edge failing just past it."""
    out = _holds(suite, [edge_case(lower_edge, p) for p in lower]
                 + [edge_case(upper_edge, q) for q in upper], points)
    for fam, side in ((lower_edge, ThresholdSide.ABOVE), (upper_edge, ThresholdSide.BELOW)):
        rep = verify_sharpness(fam, side, 1e-3, points=points)
        out.append(_verdict_result(suite, rep, expected_sharpness_verdict(fam, side)))
    return out


def _suite_theorem1(points: int, seed: int) -> list[CheckResult]:
    edge = constants.solve_sinc_lower_edge(1e-12).value
    return _theorem("theorem1", (0.1, 0.5, 0.7, edge - 1e-6), (_UPPER_EDGE, 0.9, 1.0),
                    SharpnessFamily.SINC_LOWER, SharpnessFamily.SINC_UPPER, points)


def _suite_theorem2(points: int, seed: int) -> list[CheckResult]:
    return _theorem("theorem2", (0.3, 0.6, _UPPER_EDGE), (1.0, 1.2, 2.0),
                    SharpnessFamily.SINHC_LOWER, SharpnessFamily.SINHC_UPPER, points)


def _suite_chains(points: int, seed: int) -> list[CheckResult]:
    return [_verdict_result("chains", rep, Verdict.HOLDS) for members, domain in CHAINS.values()
            for rep in verify_chain(members(), domain, points)]


def _enclosure_result(name: str, enc: integrals.Enclosure, value: float,
                      extra: str = "") -> CheckResult:
    ok = enc.contains(value)
    return CheckResult(
        suite="propositions",
        id=name,
        kind="enclosure",
        ok=ok,
        expected=f"[{enc.lo:.10g}, {enc.hi:.10g}]",
        observed=f"{value:.12g}",
        detail=extra,
    )


def _suite_propositions(points: int, seed: int) -> list[CheckResult]:
    out = []
    refs = {t: integrals.si_reference(t) for t in (0.3, 0.8, 1.2, _HALF_PI)}
    for p in (0.0, 1.0 / 3.0, 2.0 / 3.0, _UPPER_EDGE):
        for t, ref in refs.items():
            enc = integrals.si_enclosure(t, p)
            out.append(_enclosure_result(f"si_enclosure(t={t:.6g}, p={p:.6g})", enc, ref.value,
                                         extra=f"oracle err<={ref.error_estimate:.1e}"))
    for t in (0.5, 1.0, 3.0, 10.0):
        enc = integrals.sh_enclosure(t)
        ref = integrals.sh_reference(t)
        out.append(_enclosure_result(f"sh_enclosure(t={t:.6g})", enc, ref.value))
    out.append(_enclosure_result("trigamma_half_enclosure", integrals.trigamma_half_enclosure(),
                                 math.pi ** 2 / 2.0))
    out.append(_enclosure_result("catalan_enclosure", integrals.catalan_enclosure(),
                                 integrals.catalan_reference(21)))  # every count >= 21 gives this double
    lo_closed, hi_closed = integrals.bound_reciprocal_integrals()
    for name, closed, p in (("reciprocal integral (tight side)", lo_closed, _UPPER_EDGE),
                            ("reciprocal integral (loose side)", hi_closed, 0.75)):
        quad_val = integrals._quad(lambda x: 1.0 / core.cos_bound(p, x), 0.0, _HALF_PI)
        ok = abs(quad_val.value - closed) <= quad_val.error_estimate
        out.append(CheckResult("propositions", name, "value", ok,
                               f"{closed:.10g}", f"{quad_val.value:.10g}"))
    # x/sin x sandwiched between reciprocals of the 4th/5th chain members
    out += _holds("propositions", [
        InequalityCase("1/cos_bound(sqrt15/5) < x/sin(x)",
                       lambda x: 1.0 / core.cos_bound(_UPPER_EDGE, x),
                       lambda x: 1.0 / core.sinc(x), TRIG_DOMAIN),
        InequalityCase("x/sin(x) < 1/cos_bound(3/4)", lambda x: 1.0 / core.sinc(x),
                       lambda x: 1.0 / core.cos_bound(0.75, x), TRIG_DOMAIN)], points)

    pair = means.random_pairs(10_000, seed)
    bound, mean = means.sb_lower_bound(pair), means.sb_mean(pair)
    worst = float(np.min((mean - bound) / pair[1]))
    out.append(CheckResult("propositions", "sb_lower_bound <= sb_mean (1e4 pairs)", "value",
                           bool(_at_most(bound, mean).all()), ">= 0", f"worst rel gap {worst:.3e}"))
    miss = int(np.count_nonzero(~means.log_mean_sandwich(pair).contains(means.log_mean(pair))))
    out.append(CheckResult("propositions", "log_mean_sandwich contains L (1e4 pairs)", "value",
                           miss == 0, "0 misses", f"{miss} misses"))
    a, b = means.random_pairs(1000, seed + 1)
    rep = verify_param_monotone(np.linspace(0.0, 3.0, 21), (a, b))
    out.append(_verdict_result("propositions", rep, Verdict.HOLDS))
    return out


# power form, additive form, target, domain, p where the power form is the
# sharper lower bound, p where the additive form is (the two swap at 1/sqrt3)
_REMARKS = (
    ("cos_power", "cos_bound", "sinc", TRIG_DOMAIN, (0.46, 0.5, 0.55), (0.6, 0.7, 0.77)),
    ("cosh_power", "cosh_bound", "sinhc", HYP_DOMAIN, (0.45, 0.5, 0.55), (0.6, 0.7, 0.76)),
)


def _suite_remarks(points: int, seed: int) -> list[CheckResult]:
    cases = []
    for power, additive, target, domain, power_wins, additive_wins in _REMARKS:
        for best, other, ps in ((power, additive, power_wins), (additive, power, additive_wins)):
            for p in ps:
                fam = member(best, p)  # one callable for both cases, evaluated once per block
                cases += [family_case(fam, member(target), domain),
                          family_case(member(other, p), fam, domain)]
    out = _holds("remarks", cases, points)
    # closing comparison: D(x) >= 0 and its odd-series coefficients
    grid = np.geomspace(1e-3, 30.0, 200)
    dvals = [means.lower_bound_comparison(float(x)) for x in grid]
    dmin = min(dvals)
    out.append(CheckResult("remarks", "lower_bound_comparison >= 0 on [1e-3, 30]", "value",
                           dmin >= 0.0, ">= 0", f"min {dmin:.3e}"))
    coeffs = [means.comparison_coeff(n) for n in range(1, 51)]
    ok = (abs(coeffs[0]) < 1e-12 and abs(coeffs[1]) < 1e-12
          and all(c > 0.0 for c in coeffs[2:]))
    out.append(CheckResult("remarks", "comparison coefficients: 0, 0, then positive", "value",
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
