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
from .verifier import (
    InequalityCase,
    MonotoneFamily,
    SharpnessFamily,
    ThresholdSide,
    Verdict,
    VerificationReport,
    expected_sharpness_verdict,
    verify,
    verify_chain,
    verify_param_monotone,
    verify_sharpness,
)

_HALF_PI = math.pi / 2.0
_UPPER_EDGE = math.sqrt(15.0) / 5.0
_SQRT23 = math.sqrt(2.0 / 3.0)


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


def cos_chain_members() -> list[tuple[str, object]]:
    """The nine-member trig chain on (0, pi/2), increasing order."""
    def u(p):
        return lambda x, p=p: core.cos_bound(p, x)

    return [
        ("cos_bound(1/sqrt3)", u(1.0 / math.sqrt(3.0))),
        ("cos_bound(2/3)", u(2.0 / 3.0)),
        ("cos_bound(1/sqrt2)", u(1.0 / math.sqrt(2.0))),
        ("cos_bound(3/4)", u(0.75)),
        ("sinc", core.sinc),
        ("cos_bound(sqrt15/5)", u(_UPPER_EDGE)),
        ("cos_bound(sqrt(2/3))", u(_SQRT23)),
        ("cos_bound(sqrt3/2)", u(math.sqrt(3.0) / 2.0)),
        ("cos_bound(1)", u(1.0)),
    ]


def cosh_chain_members() -> list[tuple[str, object]]:
    """The eight-member hyperbolic chain, increasing order."""
    def v(p):
        return lambda x, p=p: core.cosh_bound(p, x)

    return [
        ("cosh_bound(1/sqrt3)", v(1.0 / math.sqrt(3.0))),
        ("cosh_bound(2/3)", v(2.0 / 3.0)),
        ("cosh_bound(1/sqrt2)", v(1.0 / math.sqrt(2.0))),
        ("cosh_bound(3/4)", v(0.75)),
        ("cosh_bound(sqrt15/5)", v(_UPPER_EDGE)),
        ("sinhc", core.sinhc),
        ("cosh_bound(1)", v(1.0)),
        ("cosh_bound(2/sqrt3)", v(2.0 / math.sqrt(3.0))),
    ]


MEAN_CHAIN_PARAMS = [1.0 / math.sqrt(3.0), 2.0 / 3.0, 1.0 / math.sqrt(2.0), 0.75, _UPPER_EDGE]


def mean_chain_members() -> list[tuple[str, object]]:
    """Family members below the log mean, then the log mean, then the two above."""
    def fam(p):
        return lambda m, p=p: means.mean_family(p, m)

    members: list[tuple[str, object]] = [
        (f"mean_family({p:.6g})", fam(p)) for p in MEAN_CHAIN_PARAMS
    ]
    members.append(("log_mean", means.log_mean))
    members.append(("mean_family(1)", fam(1.0)))
    members.append(("mean_family(2/sqrt3)", fam(2.0 / math.sqrt(3.0))))
    return members


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


def _suite_theorem1(points: int) -> list[CheckResult]:
    out = []
    edge = constants.solve_sinc_lower_edge(1e-12)
    for p in (0.1, 0.5, 0.7, edge.value - 1e-6):
        case = InequalityCase(f"cos_bound({p:.9g}) < sinc", lambda x, p=p: core.cos_bound(p, x),
                              core.sinc, (0.0, _HALF_PI))
        out.append(_verdict_result("theorem1", verify(case, points), Verdict.HOLDS))
    for q in (_UPPER_EDGE, 0.9, 1.0):
        case = InequalityCase(f"sinc < cos_bound({q:.9g})", core.sinc,
                              lambda x, q=q: core.cos_bound(q, x), (0.0, _HALF_PI))
        out.append(_verdict_result("theorem1", verify(case, points), Verdict.HOLDS))
    for fam, side in ((SharpnessFamily.SINC_LOWER, ThresholdSide.ABOVE),
                      (SharpnessFamily.SINC_UPPER, ThresholdSide.BELOW)):
        rep = verify_sharpness(fam, side, 1e-3, points=points)
        out.append(_verdict_result("theorem1", rep, expected_sharpness_verdict(fam, side)))
    return out


def _suite_theorem2(points: int) -> list[CheckResult]:
    out = []
    for p in (0.3, 0.6, _UPPER_EDGE):
        case = InequalityCase(f"cosh_bound({p:.9g}) < sinhc",
                              lambda x, p=p: core.cosh_bound(p, x), core.sinhc, (0.0, 50.0))
        out.append(_verdict_result("theorem2", verify(case, points), Verdict.HOLDS))
    for q in (1.0, 1.2, 2.0):
        case = InequalityCase(f"sinhc < cosh_bound({q:.9g})", core.sinhc,
                              lambda x, q=q: core.cosh_bound(q, x), (0.0, 50.0))
        out.append(_verdict_result("theorem2", verify(case, points), Verdict.HOLDS))
    for fam, side in ((SharpnessFamily.SINHC_LOWER, ThresholdSide.ABOVE),
                      (SharpnessFamily.SINHC_UPPER, ThresholdSide.BELOW)):
        rep = verify_sharpness(fam, side, 1e-3, points=points)
        out.append(_verdict_result("theorem2", rep, expected_sharpness_verdict(fam, side)))
    return out


def _suite_chains(points: int) -> list[CheckResult]:
    out = []
    for rep in verify_chain(cos_chain_members(), (0.0, _HALF_PI), points):
        out.append(_verdict_result("chains", rep, Verdict.HOLDS))
    for rep in verify_chain(cosh_chain_members(), (0.0, 20.0), points):
        out.append(_verdict_result("chains", rep, Verdict.HOLDS))
    return out


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
    rec_low = InequalityCase("1/cos_bound(sqrt15/5) < x/sin(x)",
                             lambda x: 1.0 / core.cos_bound(_UPPER_EDGE, x),
                             lambda x: 1.0 / core.sinc(x), (0.0, _HALF_PI))
    rec_high = InequalityCase("x/sin(x) < 1/cos_bound(3/4)",
                              lambda x: 1.0 / core.sinc(x),
                              lambda x: 1.0 / core.cos_bound(0.75, x), (0.0, _HALF_PI))
    out.append(_verdict_result("propositions", verify(rec_low, points), Verdict.HOLDS))
    out.append(_verdict_result("propositions", verify(rec_high, points), Verdict.HOLDS))

    pair = means._random_pair_arrays(10_000, seed)
    worst = float(np.min((means.sb_mean(pair) - means.sb_lower_bound(pair)) / pair[1]))
    out.append(_value_result("propositions", "sb_lower_bound <= sb_mean (1e4 pairs)",
                             worst >= 0.0, ">= 0", f"worst rel gap {worst:.3e}"))
    miss = int(np.count_nonzero(~means.log_mean_sandwich(pair).contains(means.log_mean(pair))))
    out.append(_value_result("propositions", "log_mean_sandwich contains L (1e4 pairs)",
                             miss == 0, "0 misses", f"{miss} misses"))
    a, b = means._random_pair_arrays(1000, seed + 1)
    rep = verify_param_monotone(MonotoneFamily.MEAN_FAMILY, np.linspace(0.0, 3.0, 21),
                                pairs=list(zip(a.tolist(), b.tolist())))
    out.append(_verdict_result("propositions", rep, Verdict.HOLDS))
    return out


def _suite_remarks(points: int) -> list[CheckResult]:
    out = []
    trig_dom = (0.0, _HALF_PI)
    hyp_dom = (0.0, 50.0)
    # additive family vs power form: the power form wins below 1/sqrt3,
    # the additive form wins above it, on both sides
    for p in (0.46, 0.5, 0.55):
        a = InequalityCase(f"cos_power({p}) < sinc", lambda x, p=p: core.cos_power_bound(p, x),
                           core.sinc, trig_dom)
        b = InequalityCase(f"cos_bound({p}) < cos_power({p})",
                           lambda x, p=p: core.cos_bound(p, x),
                           lambda x, p=p: core.cos_power_bound(p, x), trig_dom)
        out += [_verdict_result("remarks", verify(a, points), Verdict.HOLDS),
                _verdict_result("remarks", verify(b, points), Verdict.HOLDS)]
    for p in (0.6, 0.7, 0.77):
        a = InequalityCase(f"cos_bound({p}) < sinc", lambda x, p=p: core.cos_bound(p, x),
                           core.sinc, trig_dom)
        b = InequalityCase(f"cos_power({p}) < cos_bound({p})",
                           lambda x, p=p: core.cos_power_bound(p, x),
                           lambda x, p=p: core.cos_bound(p, x), trig_dom)
        out += [_verdict_result("remarks", verify(a, points), Verdict.HOLDS),
                _verdict_result("remarks", verify(b, points), Verdict.HOLDS)]
    for p in (0.45, 0.5, 0.55):
        a = InequalityCase(f"cosh_power({p}) < sinhc", lambda x, p=p: core.cosh_power_bound(p, x),
                           core.sinhc, hyp_dom)
        b = InequalityCase(f"cosh_bound({p}) < cosh_power({p})",
                           lambda x, p=p: core.cosh_bound(p, x),
                           lambda x, p=p: core.cosh_power_bound(p, x), hyp_dom)
        out += [_verdict_result("remarks", verify(a, points), Verdict.HOLDS),
                _verdict_result("remarks", verify(b, points), Verdict.HOLDS)]
    for p in (0.6, 0.7, 0.76):
        a = InequalityCase(f"cosh_bound({p}) < sinhc", lambda x, p=p: core.cosh_bound(p, x),
                           core.sinhc, hyp_dom)
        b = InequalityCase(f"cosh_power({p}) < cosh_bound({p})",
                           lambda x, p=p: core.cosh_power_bound(p, x),
                           lambda x, p=p: core.cosh_bound(p, x), hyp_dom)
        out += [_verdict_result("remarks", verify(a, points), Verdict.HOLDS),
                _verdict_result("remarks", verify(b, points), Verdict.HOLDS)]
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


SUITES = ("theorem1", "theorem2", "chains", "propositions", "remarks")


def run_suite(name: str, points: int = 4096, seed: int = 20250810) -> list[CheckResult]:
    name = name.lower()
    if name == "all":
        results = []
        for s in SUITES:
            results.extend(run_suite(s, points=points, seed=seed))
        return results
    if name == "theorem1":
        return _suite_theorem1(points)
    if name == "theorem2":
        return _suite_theorem2(points)
    if name == "chains":
        return _suite_chains(points)
    if name == "propositions":
        return _suite_propositions(points, seed)
    if name == "remarks":
        return _suite_remarks(points)
    raise ValueError(f"unknown suite {name!r}; choose from {('all',) + SUITES}")
