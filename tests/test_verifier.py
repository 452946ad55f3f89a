import math
import tracemalloc

import numpy as np
import pytest

from sincbounds import constants, core, corpus, means, verifier
from sincbounds.constants import solve_sinc_lower_edge
from sincbounds.core import cos_bound, cos_chain_members, cos_power_bound, cosh_chain_members, sinc, sinhc
from sincbounds.means import half_log_ratio, mean_family, random_pairs
from sincbounds.verifier import (
    FLOOR_ULPS,
    InequalityCase,
    SharpnessFamily,
    ThresholdSide,
    Verdict,
    VerificationReport,
    Violation,
    _EPS,
    _refine_windows,
    edge_case,
    expected_sharpness_verdict,
    verify,
    verify_chain,
    verify_leibniz_ratio,
    verify_param_monotone,
    verify_sharpness,
)

HALF_PI = math.pi / 2.0
UPPER_EDGE = math.sqrt(15.0) / 5.0
LOWER_EDGE = solve_sinc_lower_edge(1e-12).value


def test_verify_holds_for_valid_parameter():
    case = InequalityCase("lower p=0.5", lambda x: cos_bound(0.5, x), sinc, (0.0, HALF_PI))
    rep = verify(case, points=4096)
    assert rep.verdict is Verdict.HOLDS
    assert rep.n_violations == 0
    assert rep.grid_points >= 4096
    assert math.isfinite(rep.min_margin)


def test_verify_detects_lower_violation_near_right_end():
    for p in (LOWER_EDGE + 1e-3, 0.78):
        case = InequalityCase("lower too big", lambda x: cos_bound(p, x), sinc, (0.0, HALF_PI))
        rep = verify(case, points=4096)
        assert rep.verdict is Verdict.FAILS
        assert rep.violations
        assert rep.argmin_x > HALF_PI - 0.1
        assert rep.min_margin < -1e-6
    # just inside the edge the same family holds
    ok = verify(InequalityCase("lower 0.77", lambda x: cos_bound(0.77, x), sinc,
                               (0.0, HALF_PI)), points=4096)
    assert ok.verdict is Verdict.HOLDS


def test_verify_detects_upper_violation_near_origin():
    q = UPPER_EDGE - 1e-3
    case = InequalityCase("upper too small", sinc, lambda x: cos_bound(q, x), (0.0, HALF_PI))
    rep = verify(case, points=4096)
    assert rep.verdict is Verdict.FAILS
    assert rep.argmin_x < 1.0


def test_verify_deterministic():
    case = InequalityCase("det", lambda x: cos_bound(0.7, x), sinc, (0.0, HALF_PI))
    assert verify(case, points=512) == verify(case, points=512)


def test_verify_excludes_endpoints():
    seen = []

    def lhs(x):
        seen.append(x)
        assert np.all(x > 0.0) and np.all(x < HALF_PI)
        return cos_bound(0.5, x)

    rep = verify(InequalityCase("open", lhs, sinc, (0.0, HALF_PI)), points=256)
    assert rep.verdict is Verdict.HOLDS
    assert seen


def test_verify_points_validation():
    case = InequalityCase("x", sinc, sinc, (0.0, 1.0))
    with pytest.raises(ValueError):
        verify(case, points=32)
    with pytest.raises(ValueError):
        InequalityCase("bad", sinc, sinc, (1.0, 1.0))


@pytest.mark.parametrize("domain", [(0.0, math.inf), (-math.inf, 0.0), (-math.inf, math.inf),
                                    (math.nan, 1.0), (0.0, math.nan)])
def test_case_rejects_non_finite_domain(domain):
    with pytest.raises(ValueError, match="finite|xmin < xmax"):
        InequalityCase("unbounded", sinc, sinc, domain)


def test_verify_rejects_negative_refine_rounds():
    case = InequalityCase("x", lambda x: cos_bound(0.5, x), sinc, (0.0, 1.0))
    with pytest.raises(ValueError, match="refine_rounds must be an integer >= 0"):
        verify(case, points=64, refine_rounds=-1)
    assert verify(case, points=64, refine_rounds=0).grid_points == 64


def test_verify_counts_are_integers():
    case = InequalityCase("x", lambda x: cos_bound(0.5, x), sinc, (0.0, 1.0))
    for kwargs, name, least in (({"points": 100.0}, "points", 64), ({"points": 63}, "points", 64),
                                ({"refine_rounds": 1.5}, "refine_rounds", 0)):
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= {least}, got "):
            verify(case, **kwargs)
    with pytest.raises(ValueError, match="^points must be an integer >= 64, got 64.0$"):
        corpus.run_suite("theorem1", points=64.0)
    with pytest.raises(ValueError, match="^points must be an integer >= 64, got 70.5$"):
        verify_sharpness(SharpnessFamily.SINC_LOWER, ThresholdSide.ABOVE, 1e-3, points=70.5)
    assert verify(case, points=np.int64(64), refine_rounds=np.int32(0)).grid_points == 64


def test_verify_inconclusive_on_evaluation_failure():
    # cos_power_bound raises once cos(px) <= 0 inside the domain
    case = InequalityCase("power beyond its domain",
                          lambda x: cos_power_bound(1.0, x), sinc, (0.0, 3.0))
    rep = verify(case, points=256)
    assert rep.verdict is Verdict.INCONCLUSIVE
    assert "evaluation failed" in rep.diagnostic


def test_verify_propagates_programming_errors():
    # a TypeError is a bug in the case, not an evaluation failure
    case = InequalityCase("missing argument", lambda x: cos_bound(x), sinc, (0.0, 1.0))
    with pytest.raises(TypeError):
        verify(case, points=64)


def test_verify_inconclusive_without_positive_evidence():
    case = InequalityCase("self", sinc, sinc, (0.1, 1.0))
    rep = verify(case, points=128)
    assert rep.verdict is Verdict.INCONCLUSIVE


def test_verify_chain_degenerate_pair_matches_verify():
    members = [("a", lambda x: cos_bound(0.3, x)), ("b", sinc)]
    chained = verify_chain(members, (0.0, HALF_PI), points=256)
    assert len(chained) == 1
    direct = verify(InequalityCase("a < b", members[0][1], members[1][1], (0.0, HALF_PI)),
                    points=256)
    assert chained[0].verdict == direct.verdict
    assert chained[0].min_margin == direct.min_margin
    with pytest.raises(ValueError):
        verify_chain(members[:1], (0.0, 1.0))


def test_each_name_of_the_map_resolves_to_a_callable():
    for name in core.FUNCTIONS:
        ident, fn = core.member(name)
        assert ident == name and callable(fn)
        ident, fn = core.member(name, 0.7)
        assert ident == f"{name}(0.7)" and callable(fn) and fn.args == (0.7,)
    assert core.member("cos_bound", 1.0 / math.sqrt(3.0), "1/sqrt3")[0] == "cos_bound(1/sqrt3)"


def test_a_wrapper_on_core_sees_every_member_call(monkeypatch):
    # members look their function up when they are built, so a wrapper put
    # on the module (as the benchmark's tracer does) sees the calls
    seen = []

    def traced(p, x):
        seen.append(p)
        return cos_bound(p, x)

    monkeypatch.setattr(core, "cos_bound", traced)
    corpus.run_suite("theorem1", points=64)
    assert {0.1, 0.5, 0.7, LOWER_EDGE - 1e-6, UPPER_EDGE, 0.9, 1.0} <= set(seen)
    seen.clear()
    verify_chain(cos_chain_members(), (0.0, HALF_PI), points=64)
    assert len(set(seen)) == 8
    seen.clear()
    verify_sharpness(SharpnessFamily.SINC_LOWER, ThresholdSide.ABOVE, 1e-3, points=64)
    assert set(seen) == {LOWER_EDGE + 1e-3}


def test_full_chains_hold():
    for rep in verify_chain(cos_chain_members(), (0.0, HALF_PI), points=1024):
        assert rep.verdict is Verdict.HOLDS, rep
    for rep in verify_chain(cosh_chain_members(), (0.0, 20.0), points=1024):
        assert rep.verdict is Verdict.HOLDS, rep


def test_param_monotone_families():
    pairs = random_pairs(200, seed=5)
    rep = verify_param_monotone(np.linspace(0.0, 3.0, 11), pairs)
    assert rep.verdict is Verdict.HOLDS


def test_param_monotone_detects_decrease():
    # the mean family is even in p, hence decreasing on negative orders
    pairs = random_pairs(50, seed=5)
    rep = verify_param_monotone(np.linspace(-2.0, -0.5, 5), pairs)
    assert rep.verdict is Verdict.FAILS
    with pytest.raises(ValueError):
        verify_param_monotone([0.5, 0.5], pairs)


@pytest.mark.parametrize("p_grid", [[0.5], []], ids=["one", "none"])
def test_param_monotone_needs_two_orders(p_grid):
    with pytest.raises(ValueError, match="p_grid needs at least 2 values"):
        verify_param_monotone(p_grid, random_pairs(5, seed=5))


def test_param_monotone_needs_a_pair():
    for pairs in ((np.array([]), np.array([])), ([], [])):
        with pytest.raises(ValueError, match="pairs needs at least 1"):
            verify_param_monotone([0.0, 1.0], pairs)
    with pytest.raises(ValueError, match="got shapes"):
        verify_param_monotone([0.0, 1.0], (np.array([]), np.array([1.0])))


def test_param_monotone_takes_an_array_pair():
    grid = np.linspace(0.0, 3.0, 7)
    a, b = np.array([1.0, 3.0]), np.array([2.0, 4.0])
    rep = verify_param_monotone(grid, (a, b))
    assert rep.case_id == "monotone:means" and rep.verdict is Verdict.HOLDS
    assert rep.grid_points == 7 * 2
    scalar = [[mean_family(p, m) for m in [(1.0, 2.0), (3.0, 4.0)]] for p in grid]
    assert rep.min_margin == float(np.min(np.diff(scalar, axis=0)))
    for bad in ((a, b[:1]), (a, np.array([[2.0, 4.0]])), (1.0, 2.0)):
        with pytest.raises(ValueError):
            verify_param_monotone(grid, bad)


def test_expected_sharpness_matrix():
    assert expected_sharpness_verdict(SharpnessFamily.SINC_LOWER, ThresholdSide.BELOW) is Verdict.HOLDS
    assert expected_sharpness_verdict(SharpnessFamily.SINC_LOWER, ThresholdSide.ABOVE) is Verdict.FAILS
    assert expected_sharpness_verdict(SharpnessFamily.SINC_UPPER, ThresholdSide.BELOW) is Verdict.FAILS
    assert expected_sharpness_verdict(SharpnessFamily.SINC_UPPER, ThresholdSide.ABOVE) is Verdict.HOLDS
    assert expected_sharpness_verdict(SharpnessFamily.SINHC_LOWER, ThresholdSide.ABOVE) is Verdict.FAILS
    assert expected_sharpness_verdict(SharpnessFamily.SINHC_UPPER, ThresholdSide.BELOW) is Verdict.FAILS


def test_edge_case_builds_each_edge_inequality():
    # family -> bound, target, domain, edge, whether the bound is the lhs
    edges = {
        SharpnessFamily.SINC_LOWER: (core.cos_bound, core.sinc, verifier.TRIG_DOMAIN,
                                     constants.solve_sinc_lower_edge, True),
        SharpnessFamily.SINC_UPPER: (core.cos_bound, core.sinc, verifier.TRIG_DOMAIN,
                                     constants.sinc_upper_edge, False),
        SharpnessFamily.SINHC_LOWER: (core.cosh_bound, core.sinhc, verifier.HYP_DOMAIN,
                                      constants.sinc_upper_edge, True),
        SharpnessFamily.SINHC_UPPER: (core.cosh_bound, core.sinhc, verifier.HYP_DOMAIN,
                                      constants.sinhc_upper_edge, False),
    }
    for family, (bound, target, domain, edge, bound_is_lhs) in edges.items():
        case = edge_case(family, 0.5)
        fam, tgt = (case.lhs, case.rhs) if bound_is_lhs else (case.rhs, case.lhs)
        assert (fam.func, fam.args, tgt, case.domain) == (bound, (0.5,), target, domain), family
        for side in ThresholdSide:
            param = edge().value + (1e-3 if side is ThresholdSide.ABOVE else -1e-3)
            rep = verify_sharpness(family, side, 1e-3, points=64)
            assert edge_case(family, param).id == rep.case_id, (family, side)
    # the theorem suites' HOLDS lines, each its edge's case, keep their ids
    ids = [r.id for s in ("theorem1", "theorem2") for r in corpus.run_suite(s, points=64)]
    assert ids == [
        "cos_bound(0.1) < sinc", "cos_bound(0.5) < sinc", "cos_bound(0.7) < sinc",
        "cos_bound(0.770859741) < sinc", "sinc < cos_bound(0.774596669)", "sinc < cos_bound(0.9)",
        "sinc < cos_bound(1)", "cos_bound(0.771860741) < sinc", "sinc < cos_bound(0.773596669)",
        "cosh_bound(0.3) < sinhc", "cosh_bound(0.6) < sinhc", "cosh_bound(0.774596669) < sinhc",
        "sinhc < cosh_bound(1)", "sinhc < cosh_bound(1.2)", "sinhc < cosh_bound(2)",
        "cosh_bound(0.775596669) < sinhc", "sinhc < cosh_bound(0.999)"]
    for family in (SharpnessFamily.SINC_LOWER, SharpnessFamily.SINC_UPPER):
        with pytest.raises(ValueError, match="trig family parameter must lie in"):
            edge_case(family, 1.0 + 1e-9)
    assert edge_case(SharpnessFamily.SINHC_UPPER, 2.0).id == "sinhc < cosh_bound(2)"


def test_sharpness_all_edges():
    for fam in SharpnessFamily:
        for side in ThresholdSide:
            rep = verify_sharpness(fam, side, 1e-3, points=1024)
            assert rep.verdict is expected_sharpness_verdict(fam, side), (fam, side, rep)


def test_sharpness_witness_locations():
    rep = verify_sharpness(SharpnessFamily.SINC_LOWER, ThresholdSide.ABOVE, 1e-3, points=2048)
    assert rep.argmin_x > HALF_PI - 0.05
    rep = verify_sharpness(SharpnessFamily.SINC_UPPER, ThresholdSide.BELOW, 1e-3, points=2048)
    assert rep.argmin_x < 1.0
    # below 1 the hyperbolic upper bound only breaks at exponentially large x
    rep = verify_sharpness(SharpnessFamily.SINHC_UPPER, ThresholdSide.BELOW, 1e-3, points=2048)
    assert rep.verdict is Verdict.FAILS
    assert all(v.x > 100.0 for v in rep.violations)


def _iv_value(name, p, x):
    """core.<name> at the exact doubles p and x in mpmath.iv, sinh and cosh
    from iv.exp."""
    from mpmath import iv
    x = iv.mpf(x)
    if name == "sinc":
        return iv.sin(x) / x
    if name == "sinhc":
        return (iv.exp(x) - iv.exp(-x)) / (2 * x)
    p = iv.mpf(p)
    w = 1 / (3 * p * p)
    even = iv.cos(p * x) if name == "cos_bound" else (iv.exp(p * x) + iv.exp(-p * x)) / 2
    return w * even + 1 - w


def test_every_fails_witness_is_certified():
    # lhs - rhs > 0 in 110-bit interval arithmetic at the first violation of
    # each FAILS report proves that the inequality fails at that parameter;
    # the scaled-gap witness of sinhc_upper is checked as sinhc - cosh_bound
    from mpmath import iv
    cases, witnesses = {}, []
    for family, (bound, target, _, edge) in verifier._SHARP_EDGES.items():
        lhs, rhs = (bound, target) if family in verifier._LOWER else (target, bound)
        for side in ThresholdSide:
            for offset in (1e-3, 1e-5, 1e-7, 1e-9):
                rep = verify_sharpness(family, side, offset)
                if rep.verdict is Verdict.FAILS:
                    step = offset if side is ThresholdSide.ABOVE else -offset
                    cases[rep.case_id] = lhs, rhs, getattr(constants, edge)().value + step
                    witnesses.append((rep.case_id, rep.violations[0].x))
    witnesses += [(r.report.case_id, r.report.violations[0].x) for r in corpus.run_suite("all")
                  if r.report is not None and r.report.verdict is Verdict.FAILS]
    assert len(witnesses) == 14  # 10 cells and 4 corpus lines
    prec, iv.prec = iv.prec, 110
    try:
        for case_id, x in witnesses:
            lhs, rhs, param = cases[case_id]
            gap = _iv_value(lhs, param, x) - _iv_value(rhs, param, x)
            assert gap.a > 0, (case_id, x, gap)
    finally:
        iv.prec = prec


def test_sharpness_offset_validation():
    # the SINC_LOWER edge has certified radius 1e-12
    with pytest.raises(ValueError, match="10x the threshold's certified radius"):
        verify_sharpness(SharpnessFamily.SINC_LOWER, ThresholdSide.ABOVE, 1e-12)


@pytest.mark.parametrize("family, side, offset", [
    (SharpnessFamily.SINC_UPPER, ThresholdSide.ABOVE, 0.5),   # q = 1.27 > 1
    (SharpnessFamily.SINC_LOWER, ThresholdSide.BELOW, 0.9),   # p < 0
    (SharpnessFamily.SINC_LOWER, ThresholdSide.ABOVE, math.inf),
])
def test_sharpness_rejects_an_offset_outside_the_family(family, side, offset, monkeypatch):
    grids = []
    monkeypatch.setattr(verifier, "verify", lambda *args, **kw: grids.append(args))
    with pytest.raises(ValueError, match="parameter must"):
        verify_sharpness(family, side, offset)
    assert grids == []  # raised before any grid ran


def test_leibniz_ratio():
    rep = verify_leibniz_ratio(UPPER_EDGE, 30)
    assert rep.verdict is Verdict.HOLDS
    bound = 11.0 * math.pi ** 2 / 360.0
    assert bound < 1.0
    assert rep.min_margin > 0.0
    worst = bound - rep.min_margin
    assert worst < bound
    rep2 = verify_leibniz_ratio(0.1, 12)
    assert rep2.verdict is Verdict.HOLDS


# ------------------------------------------- verify against its sorting form

def _reference_verify(case, points=4096, refine_rounds=2):
    """verify as it was written before it reduced each round on its own:
    every round concatenated, refinement centres from a stable sort of all
    margins, and the report read off all points in stable x order."""
    if points < 64:
        raise ValueError("points must be >= 64")
    lo, hi = case.domain
    xs = np.linspace(lo, hi, points + 2)[1:-1]
    spacing = (hi - lo) / (points + 1)
    got_x, got_l, got_r = [], [], []
    try:
        for round_no in range(refine_rounds + 1):
            lv = np.broadcast_to(np.asarray(case.lhs(xs), dtype=float), xs.shape).copy()
            rv = np.broadcast_to(np.asarray(case.rhs(xs), dtype=float), xs.shape).copy()
            got_x.append(xs)
            got_l.append(lv)
            got_r.append(rv)
            if round_no == refine_rounds:
                break
            all_x = np.concatenate(got_x)
            all_m = np.concatenate(got_r) - np.concatenate(got_l)
            spacing /= 3.0
            centres = all_x[np.argsort(all_m, kind="stable")[:5]]
            fresh = np.concatenate([np.linspace(c - spacing, c + spacing, 13) for c in centres])
            xs = fresh[(fresh > lo) & (fresh < hi)]
            if xs.size == 0:
                break
    except (ArithmeticError, ValueError) as exc:
        return VerificationReport(case.id, sum(g.size for g in got_x), math.nan, math.nan, [],
                                  Verdict.INCONCLUSIVE, diagnostic=f"evaluation failed: {exc!r}")
    x = np.concatenate(got_x)
    lv = np.concatenate(got_l)
    rv = np.concatenate(got_r)
    order = np.argsort(x, kind="stable")
    x, lv, rv = x[order], lv[order], rv[order]
    margin = rv - lv
    floor = FLOOR_ULPS * _EPS * np.maximum(1.0, np.maximum(np.abs(lv), np.abs(rv)))
    bad = (margin < -floor) | np.isneginf(margin)
    good = (margin > floor) | np.isposinf(margin)
    imin = int(np.argmin(margin))
    violations = [Violation(float(x[i]), float(lv[i]), float(rv[i]))
                  for i in np.nonzero(bad)[0][:50]]
    if bad.any():
        verdict = Verdict.FAILS
    elif good.any():
        verdict = Verdict.HOLDS
    else:
        verdict = Verdict.INCONCLUSIVE
    return VerificationReport(case.id, int(x.size), float(margin[imin]), float(x[imin]),
                              violations, verdict, n_violations=int(bad.sum()))


def _same_float(a, b):
    # NaN equals NaN; a zero keeps its sign
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _assert_same_report(got, want):
    assert (got.case_id, got.grid_points, got.verdict, got.n_violations, got.diagnostic) == \
        (want.case_id, want.grid_points, want.verdict, want.n_violations, want.diagnostic)
    assert _same_float(got.min_margin, want.min_margin), (got.min_margin, want.min_margin)
    assert _same_float(got.argmin_x, want.argmin_x), (got.argmin_x, want.argmin_x)
    assert len(got.violations) == len(want.violations)
    for u, v in zip(got.violations, want.violations):
        assert all(_same_float(a, b) for a, b in zip((u.x, u.lhs, u.rhs), (v.x, v.lhs, v.rhs)))


@pytest.mark.parametrize("points", [64, 256, 4096])
def test_verify_matches_reference_on_corpus_and_sharpness(points, monkeypatch):
    real = verifier._verify_cases
    seen = []

    def checked(cases, points, refine_rounds):
        got = real(cases, points, refine_rounds)
        for case, report in zip(cases, got, strict=True):
            _assert_same_report(report, _reference_verify(case, points, refine_rounds))
            seen.append(case.id)
        return got

    monkeypatch.setattr(verifier, "_verify_cases", checked)
    monkeypatch.setattr(corpus, "_verify_cases", checked)
    corpus.run_suite("all", points=points)
    for fam in SharpnessFamily:
        for side in ThresholdSide:
            for offset in (1e-3, 1e-5, 1e-7, 1e-9):
                verify_sharpness(fam, side, offset, points=points)
    assert len(seen) == 99  # 55 corpus cases, 32 cells and 12 scaled-gap scans


def _masked(values, where, fill):
    return lambda x: np.where(where(x), fill, values(x))


_ZERO = np.zeros_like
_EDGE_CASES = [
    # tied margins: all zero, and steps of a few levels
    ("all zero", _ZERO, _ZERO, (0.0, 1.0)),
    # equal non-zero sides: lhs <= rhs holds, lhs < rhs has no evidence
    ("all zero, not strict", lambda x: 1.0 + x, lambda x: 1.0 + x, (0.0, 1.0)),
    ("steps", lambda x: np.floor(8.0 * x) / 8.0, lambda x: np.floor(8.0 * x + 0.5) / 8.0,
     (0.0, 1.0)),
    ("falling steps", _ZERO, lambda x: np.floor(4.0 * (1.0 - x)) - 1.0, (0.0, 1.0)),
    # a negative zero margin ahead of or behind positive zeros
    ("signed zeros", _ZERO, lambda x: np.where(x > 0.5, -0.0, 0.0), (0.0, 1.0)),
    ("signed zeros first", _ZERO, lambda x: np.where(x < 0.5, -0.0, 0.0), (0.0, 1.0)),
    # NaN at some points and at every point
    ("some NaN", sinc, _masked(lambda x: 1.0 + x, lambda x: (x > 0.3) & (x < 0.35), np.nan),
     (0.0, 1.0)),
    ("NaN with violations", _masked(sinc, lambda x: x > 0.9, np.nan), lambda x: 0.9 + 0 * x,
     (0.0, 1.0)),
    ("all NaN", lambda x: np.full_like(x, np.nan), sinc, (0.0, 1.0)),
    # infinite margins of both signs
    ("+inf margins", _ZERO, _masked(lambda x: x, lambda x: x > 0.7, np.inf), (0.0, 1.0)),
    ("-inf margins", _masked(_ZERO, lambda x: x < 0.2, np.inf), lambda x: 1.0 + x,
     (0.0, 1.0)),
    ("inf - inf", lambda x: np.full_like(x, np.inf), lambda x: np.full_like(x, np.inf),
     (0.0, 1.0)),
    # values that depend on the position in the array, not on x alone, so
    # that the order of points with equal x shows in the report
    ("by position", _ZERO, lambda x: (np.arange(x.size) % 5) - 2.0, (0.0, 1.0)),
    ("by position, ulp domain", lambda x: np.arange(x.size) % 3 - 1.0, _ZERO,
     (1.0, 1.0 + 8 * _EPS)),
    ("by position, falling centres", lambda x: np.arange(x.size) % 40.0, _ZERO,
     (1.0, 1.0 + 8 * _EPS)),
    # a scalar-returning side
    ("scalar lhs", lambda x: 0.5, sinc, (0.0, 2.0)),
    # smallest margins at both domain ends; on a domain a few ulps wide grid
    # points fall on its ends, and the windows around them are clipped
    ("both ends", _ZERO, lambda x: x * (1.0 - x), (0.0, 1.0)),
    ("both ends, failing", lambda x: 1e-3 + 0 * x, lambda x: x * (1.0 - x), (0.0, 1.0)),
    ("clipped at lo", _ZERO, lambda x: x - 1.0, (1.0, 1.0 + 8 * _EPS)),
    ("clipped at hi", _ZERO, lambda x: (1.0 + 8 * _EPS) - x, (1.0, 1.0 + 8 * _EPS)),
    # windows whose linspace step underflows to zero
    ("subnormal domain", _ZERO, lambda x: x * 1e300, (0.0, 1e-320)),
    # more than 50 violations on the base grid and among the refinement points
    ("many violations", lambda x: np.cos(3.0 * x), sinc, (0.0, 3.0)),
    ("everywhere violated", lambda x: 2.0 + x, sinc, (0.0, 1.0)),
    ("lower edge", lambda x: cos_bound(LOWER_EDGE + 1e-3, x), sinc, (0.0, HALF_PI)),
    ("upper edge", sinc, lambda x: cos_bound(UPPER_EDGE - 1e-3, x), (0.0, HALF_PI)),
    ("sinhc overflow", lambda x: 1.0 + 0 * x, sinhc, (0.0, 1000.0)),
    # float32 endpoints, read as floats: the base grid and the windows are
    # both float64, as the reference's are
    ("float32 domain", _ZERO, sinc, (np.float32(0.0), np.float32(1.5))),
]


@pytest.mark.parametrize("refine_rounds", [0, 1, 2, 3])
@pytest.mark.parametrize("points", [64, 1000])
@pytest.mark.parametrize("name,lhs,rhs,domain", _EDGE_CASES, ids=[c[0] for c in _EDGE_CASES])
def test_verify_matches_reference_on_edge_cases(name, lhs, rhs, domain, points, refine_rounds):
    case = InequalityCase(name, lhs, rhs, domain)
    with np.errstate(invalid="ignore", over="ignore"):
        got = verify(case, points=points, refine_rounds=refine_rounds)
        want = _reference_verify(case, points=points, refine_rounds=refine_rounds)
    _assert_same_report(got, want)


def test_verify_edge_cases_reach_their_conditions():
    # the cases above do what their names say
    def report(name, points=1000, refine_rounds=2):
        case = InequalityCase(*next(c for c in _EDGE_CASES if c[0] == name))
        with np.errstate(invalid="ignore", over="ignore"):
            return verify(case, points=points, refine_rounds=refine_rounds)

    assert math.copysign(1.0, report("signed zeros").min_margin) == 1.0
    assert math.copysign(1.0, report("signed zeros first").min_margin) == -1.0
    assert math.isnan(report("some NaN").min_margin)
    assert report("all NaN").verdict is Verdict.INCONCLUSIVE
    assert report("all zero").verdict is report("all zero, not strict").verdict is \
        Verdict.INCONCLUSIVE
    assert report("-inf margins").min_margin == -math.inf
    assert report("+inf margins").verdict is Verdict.HOLDS
    for name in ("clipped at lo", "clipped at hi"):
        assert report(name, refine_rounds=1).grid_points < 1000 + 5 * 13
    every = report("everywhere violated")
    assert every.n_violations == every.grid_points > 1000 + 50
    assert len(every.violations) == len(report("many violations").violations) == 50
    assert report("sinhc overflow").verdict is Verdict.INCONCLUSIVE


@pytest.mark.parametrize("centre,spacing", [
    (0.7853981633974483, 1e-3), (1.0, 1e-20), (0.0, 1e-320), (1e-310, 3e-310),
    (-2.5, 0.1), (1e300, 1e290), (3.0, 5e-324), (0.0, 1e-323),
])
def test_refine_windows_equal_linspace(centre, spacing):
    centres = np.array([centre, -centre, centre + spacing, centre, 2.0 * centre])
    want = np.concatenate([np.linspace(c - spacing, c + spacing, 13) for c in centres])
    assert np.array_equal(_refine_windows(centres, spacing, -math.inf, math.inf), want)
    lo, hi = centre - spacing / 2.0, centre + spacing
    assert np.array_equal(_refine_windows(centres, spacing, lo, hi),
                          want[(want > lo) & (want < hi)])


# ----------------------------------------------------------- verify in blocks

def _in_blocks(f, n):
    """f evaluated on consecutive n-point slices of its argument, as verify
    calls it; the same values as f for an elementwise f."""
    def blocked(x):
        return np.concatenate([np.broadcast_to(np.asarray(f(x[i:i + n]), dtype=float),
                                               x[i:i + n].shape) for i in range(0, x.size, n)])
    return blocked


_BLOCK_EDGE_CASES = _EDGE_CASES + [
    # at 1000 points in blocks of 64: 15 full blocks and a short one of 40
    ("tied minima in two blocks", _ZERO,
     lambda x: np.where(np.floor(10.0 * x) % 5.0 == 1.0, -1.0, 1.0), (0.0, 1.0)),
    ("NaN in a later block only", _ZERO, _masked(lambda x: 1.0 + x, lambda x: x > 0.8, np.nan),
     (0.0, 1.0)),
    ("NaN in the last block only", _ZERO, _masked(lambda x: 1.0 + x, lambda x: x > 0.97, np.nan),
     (0.0, 1.0)),
    ("sparse violations in every block", lambda x: np.where(np.sin(150.0 * x) > 0.95, 2.0, 0.0),
     lambda x: 1.0 + 0 * x, (0.0, 1.0)),
    ("minimum in the last, short block", _ZERO, lambda x: 1.0 - x, (0.0, 1.0)),
    ("scalar rhs", lambda x: -x, lambda x: -0.5, (0.0, 1.0)),
]


@pytest.mark.parametrize("refine_rounds", [0, 1, 2])
@pytest.mark.parametrize("points", [64, 1000])
@pytest.mark.parametrize("name,lhs,rhs,domain", _BLOCK_EDGE_CASES,
                         ids=[c[0] for c in _BLOCK_EDGE_CASES])
def test_verify_in_small_blocks_matches_reference(name, lhs, rhs, domain, points, refine_rounds,
                                                  monkeypatch):
    # every round of more than 64 points spans several blocks; the "by
    # position" cases are not elementwise, so the reference sees them in
    # the same slices
    monkeypatch.setattr(verifier, "_BLOCK", 64)
    case = InequalityCase(name, lhs, rhs, domain)
    sliced = InequalityCase(name, _in_blocks(lhs, 64), _in_blocks(rhs, 64), domain)
    with np.errstate(invalid="ignore", over="ignore"):
        got = verify(case, points=points, refine_rounds=refine_rounds)
        want = _reference_verify(sliced, points=points, refine_rounds=refine_rounds)
    _assert_same_report(got, want)


def test_small_block_cases_reach_their_conditions(monkeypatch):
    monkeypatch.setattr(verifier, "_BLOCK", 64)

    def report(name, refine_rounds=2):
        case = InequalityCase(*next(c for c in _BLOCK_EDGE_CASES if c[0] == name))
        with np.errstate(invalid="ignore"):
            return verify(case, points=1000, refine_rounds=refine_rounds)

    tied = report("tied minima in two blocks")
    assert tied.min_margin == -1.0 and 0.1 < tied.argmin_x < 0.2
    assert all(v.x < 0.2 for v in tied.violations)  # the first 50 of the two bands
    assert tied.n_violations > 2 * 64
    assert math.isnan(report("NaN in a later block only").min_margin)
    assert report("NaN in the last block only").argmin_x > 0.97
    sparse = report("sparse violations in every block", refine_rounds=0)
    assert sparse.n_violations > 50 and len(sparse.violations) == 50
    assert sparse.violations[0].x < 64 / 1001 < 0.3 < sparse.violations[-1].x
    assert report("minimum in the last, short block").argmin_x > 1.0 - 40 / 1001


def test_verify_in_blocks_reports_the_first_exception(monkeypatch):
    # rhs fails in the first block, lhs only in a later one; lhs is called
    # before rhs on each block, so the first exception depends on the blocks
    def lhs(x):
        if np.any(x > 0.9):
            raise ValueError(f"lhs beyond 0.9 on {x.size} points")
        return 0 * x

    def rhs(x):
        if np.any(x < 0.05):
            raise FloatingPointError(f"rhs below 0.05 on {x.size} points")
        return 1.0 + x

    def rhs_left_of_grid(x):
        # the first grid point is 1/1001; only refinement reaches below it
        if np.any(x < 0.00099):
            raise FloatingPointError(f"rhs left of the grid on {x.size} points")
        return 1.0 + x

    case = InequalityCase("failing sides", lhs, rhs, (0.0, 1.0))
    late = InequalityCase("failing refinement", _ZERO, rhs_left_of_grid, (0.0, 1.0))
    # the first refinement round has 65 points: a block of 64, then one
    first = {64: ("FloatingPointError('rhs below 0.05 on 64 points')",
                  "FloatingPointError('rhs left of the grid on 64 points')"),
             verifier._BLOCK: ("ValueError('lhs beyond 0.9 on 1000 points')",
                               "FloatingPointError('rhs left of the grid on 65 points')")}
    for block, (exc, late_exc) in first.items():
        monkeypatch.setattr(verifier, "_BLOCK", block)
        got = verify(case, points=1000)
        assert got.diagnostic == f"evaluation failed: {exc}"
        assert got.verdict is Verdict.INCONCLUSIVE and got.grid_points == 0
        assert math.isnan(got.min_margin) and math.isnan(got.argmin_x) and not got.violations
        # a failure in a refinement round counts only the rounds before it
        got = verify(late, points=1000)
        assert got.diagnostic == f"evaluation failed: {late_exc}"
        assert got.verdict is Verdict.INCONCLUSIVE and got.grid_points == 1000
    # one block holds each whole round: the reports are the unblocked ones
    for c in (case, late):
        _assert_same_report(verify(c, points=1000), _reference_verify(c, points=1000))


@pytest.mark.parametrize("points", [3 * verifier._BLOCK + 1, 65536])
def test_verify_in_blocks_matches_reference_on_corpus_and_sharpness(points, monkeypatch):
    test_verify_matches_reference_on_corpus_and_sharpness(points, monkeypatch)


@pytest.mark.parametrize("seed", range(20))
def test_smallest5_equals_stable_argsort(seed):
    rng = np.random.default_rng(seed)
    pool = np.array([-np.inf, -1.0, -0.0, 0.0, 0.5, 1.0, np.inf, np.nan])
    for size in (0, 1, 3, 4, 5, 6, 7, 12, 100, verifier._SMALL + 1, 1000):
        for m in (rng.choice(pool, size), rng.choice(pool[2:4], size),
                  rng.choice(pool[5:], size), rng.standard_normal(size)):
            assert np.array_equal(verifier._smallest5(m), np.argsort(m, kind="stable")[:5]), m


# ------------------------------------------ blocks settled from their extremes

_D = FLOOR_ULPS * _EPS  # the smallest floor


def _band(lo, hi, inside, outside=1.0):
    return lambda x: np.where((x > lo) & (x < hi), inside, outside)


_BOUND_CASES = [
    # a margin exactly at -floor is no violation; one a step below it is
    ("margin at -floor", _ZERO, _band(0.6, 0.62, -_D), (0.0, 1.0)),
    ("margin a step below -floor", _ZERO, _band(0.6, 0.62, np.nextafter(-_D, -1.0)),
     (0.0, 1.0)),
    # positive margins under the block's largest floor, a hold only where
    # the floor is small: the bound cannot settle the block, the floors can
    ("holds under the largest floor", lambda x: np.where(x < 0.5, 1e6, 0.0),
     lambda x: np.where(x < 0.5, 1e6, 0.0) + np.where((x > 0.5) & (x < 0.51), 1e-12, 0.0),
     (0.0, 1.0)),
    # positive margins that stay in the deadband of a large magnitude
    ("deadband of a large magnitude", lambda x: 1e6 + 0.0 * x, lambda x: 1e6 + 2.3e-10 + 0.0 * x,
     (0.0, 1.0)),
    ("violations in a later block only", _ZERO, _band(0.6, 0.62, -1.0), (0.0, 1.0)),
    ("NaN after violations", _ZERO,
     lambda x: np.where(x > 0.9, np.nan, np.where((x > 0.3) & (x < 0.32), -1.0, 1.0)),
     (0.0, 1.0)),
    # levels 1..8 in bands of 1/40: the 5 smallest, all 1, come first and
    # every later 1 ties with kth
    ("ties at kth across blocks", _ZERO, lambda x: np.floor(40.0 * x) % 8.0 + 1.0,
     (0.0, 1.0)),
    ("ties at kth, falling", _ZERO, lambda x: np.floor(8.0 * (1.0 - x)) + 1.0, (0.0, 1.0)),
    # the refinement points around the first 5 zeros are zeros too: they tie
    # with kth from the previous centres, which stay the centres
    ("kth from the previous centres", _ZERO, lambda x: np.where(x < 0.01, 0.0, 1.0),
     (0.0, 1.0)),
    # refinement points below kth of the previous centres
    ("refinement below kth", _ZERO, lambda x: np.abs(x - 0.3) + 0.5 * np.abs(x - 0.7),
     (0.0, 1.0)),
    ("NaN centres", _ZERO, _band(0.0, 0.003, np.nan), (0.0, 1.0)),
]


@pytest.mark.parametrize("refine_rounds", [0, 1, 2])
@pytest.mark.parametrize("points", [64, 1000])
@pytest.mark.parametrize("block", [64, verifier._BLOCK])
@pytest.mark.parametrize("name,lhs,rhs,domain", _BOUND_CASES,
                         ids=[c[0] for c in _BOUND_CASES])
def test_verify_bounds_match_reference(name, lhs, rhs, domain, block, points, refine_rounds,
                                       monkeypatch):
    monkeypatch.setattr(verifier, "_BLOCK", block)
    case = InequalityCase(name, lhs, rhs, domain)
    with np.errstate(invalid="ignore"):
        got = verify(case, points=points, refine_rounds=refine_rounds)
        want = _reference_verify(case, points=points, refine_rounds=refine_rounds)
    _assert_same_report(got, want)


@pytest.mark.parametrize("block", [64, verifier._BLOCK])
def test_bound_cases_reach_their_conditions(block, monkeypatch):
    monkeypatch.setattr(verifier, "_BLOCK", block)

    def report(name, refine_rounds=2):
        case = InequalityCase(*next(c for c in _BOUND_CASES if c[0] == name))
        with np.errstate(invalid="ignore"):
            return verify(case, points=1000, refine_rounds=refine_rounds)

    at = report("margin at -floor")
    assert at.min_margin == -_D and at.n_violations == 0 and at.verdict is Verdict.HOLDS
    below = report("margin a step below -floor", refine_rounds=0)
    assert below.min_margin < -_D and below.n_violations == 20  # x = 601/1001 .. 620/1001
    assert report("holds under the largest floor").verdict is Verdict.HOLDS
    assert report("deadband of a large magnitude").verdict is Verdict.INCONCLUSIVE
    assert report("violations in a later block only").violations[0].x > 0.6
    late = report("NaN after violations", refine_rounds=0)
    assert math.isnan(late.min_margin) and late.n_violations == 20
    # refinement around the first 5 grid points, all of margin 0, finds
    # only more zeros, which tie with kth: the second round refines around
    # the same 5 centres, so the first zero is 1/1001 - 1/3003, not 1/9009
    # left of the first window of the first round
    inherited = report("kth from the previous centres")
    assert inherited.grid_points == 1000 + 2 * 5 * 13
    assert inherited.argmin_x == pytest.approx(2.0 / 3003.0, rel=1e-12)
    assert report("refinement below kth").argmin_x == pytest.approx(0.3, abs=1e-4)


def _centres_by_sort(blocks, cx, cm):
    x = np.concatenate([cx] + [b[0] for b in blocks])
    m = np.concatenate([cm] + [b[1] for b in blocks])
    keep = np.argsort(m, kind="stable")[:5]
    return x[keep], m[keep]


@pytest.mark.parametrize("seed", range(20))
def test_take5_equals_stable_argsort_of_all_blocks(seed):
    rng = np.random.default_rng(seed)
    pool = np.array([-np.inf, -1.0, -0.0, 0.0, 0.5, 1.0, np.inf, np.nan])
    for held in (0, 3, 5):
        cm0 = np.sort(rng.choice(pool, held))  # NaN sorts last, as held centres do
        cx0 = rng.standard_normal(held)
        blocks = []
        for size in rng.integers(1, 40, 6):
            m = rng.choice(pool, size) if rng.random() < 0.7 else rng.standard_normal(size)
            blocks.append((rng.standard_normal(size), m))
        cx, cm = cx0, cm0
        for bx, bm in blocks:
            cx, cm = verifier._take5(cx, cm, bx, bm, bm[np.argmin(bm)])
        wx, wm = _centres_by_sort(blocks, cx0, cm0)
        assert np.array_equal(cx, wx) and np.array_equal(cm, wm, equal_nan=True)
        assert np.array_equal(np.signbit(cm), np.signbit(wm))


def test_corpus_takes_both_block_paths(monkeypatch):
    # blocks settled by the bounds, and blocks that take the per-point
    # floors; a report takes the floors on its picks only when it lists
    # violations, or counts them itself (verify_param_monotone)
    counts = {"blocks": 0, "block floors": 0}
    reports = []  # [n_bad given to a report, floors it took]
    add, definite, report = verifier._Fold.add, verifier._definite, verifier._report
    where = ["report"]

    def counted_add(*args):
        counts["blocks"] += 1  # one case's block
        where[0] = "block"
        try:
            return add(*args)
        finally:
            where[0] = "report"

    def counted_definite(*args):
        if where[0] == "block":
            counts["block floors"] += 1
        else:
            reports[-1][1] += 1
        return definite(*args)

    def counted_report(*args):
        reports.append([args[5] if len(args) > 5 else None, 0])
        return report(*args)

    monkeypatch.setattr(verifier._Fold, "add", counted_add)
    monkeypatch.setattr(verifier, "_definite", counted_definite)
    monkeypatch.setattr(verifier, "_report", counted_report)
    corpus.run_suite("all", points=4096)
    assert 0 < counts["block floors"] < counts["blocks"] // 2, counts
    assert [floors for _, floors in reports] == \
        [int(n_bad is None or n_bad > 0) for n_bad, _ in reports], reports
    # some reports list violations, and verify_param_monotone counts its own
    assert any(n_bad for n_bad, _ in reports) and any(n_bad is None for n_bad, _ in reports)


@pytest.mark.parametrize("block", [64, verifier._BLOCK])
@pytest.mark.parametrize("domain", [
    (0.0, HALF_PI), (0.0, 50.0), (1.0, 1e12), (-3.0, 2.5), (0, 1),
    (1.0, 1.0 + 4 * _EPS),        # a few ulps wide: grid points repeat
    (0.0, 1e-320),                # the step underflows to zero
    (-1e308, 1e308),              # the width overflows
    (np.float32(0.0), np.float32(1.5)),  # float32 endpoints: the float64 grid of their values
    (np.array(0.0), np.array(1.5)),      # 0-d endpoints, likewise
])
@pytest.mark.parametrize("points", [64, 1000, 8193])
def test_base_grid_blocks_equal_linspace(domain, points, block, monkeypatch):
    monkeypatch.setattr(verifier, "_BLOCK", block)
    seen = []

    def lhs(x):
        seen.append(x.copy())
        return np.zeros_like(x)

    with np.errstate(invalid="ignore", over="ignore"):
        verify(InequalityCase("grid", lhs, _ZERO, domain), points=points, refine_rounds=0)
        want = np.linspace(float(domain[0]), float(domain[1]), points + 2)[1:-1]
    got = np.concatenate(seen)
    assert got.dtype == want.dtype == np.float64 and got.tobytes() == want.tobytes()
    assert len(seen) == -(-points // block)


def test_verify_memory_stays_below_one_round():
    # the 65536-point grid takes 0.5 MiB; its blocks' temporaries stay small,
    # where arrays of a whole round came to about 3 MiB.  A warm call reads
    # every base-grid block, 8 a domain, from the grid cache, so a warm
    # sharpness cell (with its scaled-gap scan) stays below one grid
    case = InequalityCase("memory", lambda x: cos_bound(0.7, x), sinc, (0.0, HALF_PI))
    cell = (SharpnessFamily.SINHC_UPPER, ThresholdSide.BELOW, 1e-3)
    for check, limit, blocks in ((lambda: verify(case, points=65536), 1.5 * 2 ** 20, 8),
                                 (lambda: verify_sharpness(*cell, points=65536), 2 ** 19, 16)):
        check()
        before = verifier._grid.cache_info()
        tracemalloc.start()
        try:
            check()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        after = verifier._grid.cache_info()
        assert peak < limit, (peak, limit)
        assert (after.hits - before.hits, after.misses - before.misses) == (blocks, 0)


def test_sides_read_x_read_only():
    # a side that wrote into its x would move the points of every other case
    # of its block: every x a side sees, base-grid block or refinement
    # window, is read-only, and such a side's case is inconclusive
    seen = []

    def halving(x):
        seen.append(x.flags.writeable)
        x *= 0.5
        return np.zeros_like(x)

    def watched(x):
        seen.append(x.flags.writeable)
        return sinc(x)

    other = InequalityCase("cos_bound(0.5) < sinc", lambda x: cos_bound(0.5, x), watched, (0.0, 1.5))
    alone = verify(other)
    mutating, got = verifier._verify_cases([InequalityCase("halving", halving, sinc, (0.0, 1.5)), other],
                                           4096, 2)
    assert (mutating.verdict, mutating.diagnostic) == \
        (Verdict.INCONCLUSIVE, "evaluation failed: ValueError('output array is read-only')")
    _assert_same_report(got, alone)
    assert len(seen) == 7 and not any(seen)  # 3 rounds alone, 3 beside, 1 halving


# ------------------------------------ base-grid values of sinc and sinhc kept

@pytest.fixture
def kept():
    """verifier._kept, empty at the start and at the end of the test."""
    verifier._kept.cache_clear()
    yield verifier._kept
    verifier._kept.cache_clear()


def _counts(kept):
    info = kept.cache_info()
    return info.hits, info.misses


def _delta(kept, before):
    return tuple(now - then for now, then in zip(_counts(kept), before))


def _kept_block(f, domain, points, start, stop):
    """The kept block of f on the base grid of domain, under today's error state."""
    return verifier._kept(f, *domain, points, tuple(np.geterr().values()), start, stop)


@pytest.mark.parametrize("points", [64, 4096])
def test_cold_and_warm_reports_are_the_same(points, kept, monkeypatch):
    real = verifier._verify_cases
    calls = [0]
    served = []
    reports = []

    def counted(f):
        def target(x):
            calls[0] += 1
            return f(x)
        return target

    def checked(cases, points, refine_rounds):
        kept.cache_clear()
        before = calls[0]
        cold = real(cases, points, refine_rounds)
        between, counts = calls[0], _counts(kept)
        for warm, report in zip(real(cases, points, refine_rounds), cold, strict=True):
            _assert_same_report(warm, report)
        # the warm run skips the one base-grid block of each target on each
        # domain, which the cold run evaluated once for all its cases
        targets = {(f, case.domain) for case in cases for f in (case.lhs, case.rhs)
                   if f is core.sinc or f is core.sinhc}
        assert (between - before) - (calls[0] - between) == len(targets), [c.id for c in cases]
        assert counts == (0, len(targets)) and _delta(kept, counts) == (len(targets), 0)
        served.append(len(targets))
        reports.extend(cold)
        return cold

    # the targets are the module's counting wrappers, each kept as itself
    monkeypatch.setattr(core, "sinc", counted(core.sinc))
    monkeypatch.setattr(core, "sinhc", counted(core.sinhc))
    monkeypatch.setattr(verifier, "_verify_cases", checked)
    monkeypatch.setattr(corpus, "_verify_cases", checked)
    corpus.run_suite("all", points=points)
    for fam in SharpnessFamily:
        for side in ThresholdSide:
            for offset in (1e-3, 1e-5, 1e-7, 1e-9):
                verify_sharpness(fam, side, offset, points=points)
    # 99 reports from 51 calls; 65 served blocks when each case was its own call
    assert (len(reports), len(served), sum(served)) == (99, 51, 42)


def test_kept_blocks_follow_the_block_size(kept, monkeypatch):
    # the key holds each block's extent: blocks of 8192 points kept warm are
    # never served for blocks of 64, or the other way round
    cases = [edge_case(SharpnessFamily.SINC_LOWER, 0.7), edge_case(SharpnessFamily.SINHC_UPPER, 1.2),
             InequalityCase("short blocks", lambda x: 0.5 + 0 * x, sinc, (0.0, 2.0))]
    for case in cases:
        want = _reference_verify(case, points=8193)
        deltas = []
        for block in (verifier._BLOCK, 64, verifier._BLOCK):
            monkeypatch.setattr(verifier, "_BLOCK", block)
            before = _counts(kept)
            _assert_same_report(verify(case, points=8193), want)
            deltas.append(_delta(kept, before))
        # (hits, misses): 2 blocks, then 129 blocks of 64 (the final one, of
        # one point, evicted by the other 128), then 2 blocks again, of which
        # only that final one is still kept
        assert deltas == [(0, 2), (0, 129), (1, 1)]


def test_only_the_module_targets_are_kept(kept, monkeypatch):
    # a wrapper of sinc is never served core.sinc's values, nor core.sinc
    # a wrapper's: a case's function is kept only as the module's own
    real = core.sinc

    def shifted(x):
        return real(x) + 1.0

    def check(rhs):
        case = InequalityCase("shifted", lambda x: 1.5 + 0 * x, rhs, (0.0, HALF_PI))
        got = verify(case, points=1000)
        _assert_same_report(got, _reference_verify(case, points=1000))
        return got

    base = check(real)
    assert base.verdict is Verdict.FAILS
    assert check(shifted).verdict is Verdict.HOLDS  # shifted is not core.sinc: not kept
    assert (kept.cache_info().currsize, _counts(kept)) == (1, (0, 1))
    monkeypatch.setattr(core, "sinc", shifted)
    assert check(core.member("sinc")[1]).verdict is Verdict.HOLDS  # kept as itself
    assert (kept.cache_info().currsize, _counts(kept)) == (2, (0, 2))
    monkeypatch.setattr(core, "sinc", real)
    _assert_same_report(check(real), base)
    assert _counts(kept) == (1, 2)


def test_a_failed_evaluation_is_not_kept(kept):
    # near the largest double sinc underflows, which an errstate may raise;
    # the values kept under one errstate are not served under another
    case = InequalityCase("underflow", lambda x: -1.0 + 0 * x, sinc, (1e307, 1.7e308))
    diagnostic = "evaluation failed: FloatingPointError('underflow encountered in divide')"
    for n in (1, 2):
        with np.errstate(under="raise"):
            got = verify(case, points=64)
        assert (got.verdict, got.diagnostic) == (Verdict.INCONCLUSIVE, diagnostic)
        assert (kept.cache_info().currsize, _counts(kept)) == (0, (0, n))
    assert verify(case, points=64).verdict is Verdict.HOLDS
    assert (kept.cache_info().currsize, _counts(kept)) == (1, (0, 3))
    with np.errstate(under="raise"):
        assert verify(case, points=64).diagnostic == diagnostic
    assert (kept.cache_info().currsize, _counts(kept)) == (1, (0, 4))


def test_only_float64_grids_are_kept(kept, monkeypatch):
    # every endpoint is read as a float: a float32, int or 0-d endpoint
    # gives the float64 grid of its value, is served that grid's kept
    # blocks and gives its report
    calls = [0]
    real = core.sinc

    def counted(x):
        calls[0] += 1
        return real(x)

    monkeypatch.setattr(core, "sinc", counted)  # kept as itself
    cold = verify(InequalityCase("grid", _ZERO, counted, (0.0, 1.5)), points=1000)
    assert calls[0] == 3  # the base grid's one block, then the two refinement rounds
    for domain in ((np.float32(0.0), np.float32(1.5)), (0, np.float64(1.5)),
                   (np.array(0.0), np.array(1.5)), (np.int64(0), np.array(1.5, dtype=np.float32))):
        case = InequalityCase("grid", _ZERO, counted, domain)
        assert case.domain == (0.0, 1.5) and [type(v) for v in case.domain] == [float, float]
        before = calls[0]
        _assert_same_report(verify(case, points=1000), cold)
        assert calls[0] - before == 2  # the base grid's block was kept
    assert (kept.cache_info().currsize, _counts(kept)) == (1, (4, 1))
    assert _kept_block(counted, (0.0, 1.5), 1000, 0, 1000).dtype == np.float64


def test_kept_values_are_read_only_and_within_budget(kept, monkeypatch):
    # a dense-size cycle: the four grid suites and the 32 sharpness cells
    def cycle():
        for suite in ("theorem1", "theorem2", "chains", "remarks"):
            corpus.run_suite(suite, points=65536)
        for fam in SharpnessFamily:
            for side in ThresholdSide:
                for offset in (1e-3, 1e-5, 1e-7, 1e-9):
                    verify_sharpness(fam, side, offset, points=65536)

    cycle()
    # 8 blocks each of sinc on (0, pi/2), and of sinhc on (0, 50) and (0, 20)
    assert kept.cache_info().currsize == 24
    before = _counts(kept)
    cycle()
    hits, misses = _delta(kept, before)
    assert hits > 0 and misses == 0
    before = _counts(kept)
    blocks = [_kept_block(f, domain, 65536, s, s + verifier._BLOCK)
              for f, domain in ((sinc, (0.0, HALF_PI)), (sinhc, (0.0, 50.0)), (sinhc, (0.0, 20.0)))
              for s in range(0, 65536, verifier._BLOCK)]
    assert _delta(kept, before) == (24, 0)
    assert kept.cache_parameters()["maxsize"] == 32
    assert sum(v.nbytes for v in blocks) <= 32 * verifier._BLOCK * 8 == 2 * 2 ** 20
    for v in blocks:
        assert v.dtype == np.float64 and not v.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            v[0] = 0.0
    # past the budget the least recently used block goes first
    monkeypatch.setattr(verifier, "_BLOCK", 64)
    before = _counts(kept)
    verify(edge_case(SharpnessFamily.SINC_LOWER, 0.7), points=4096)
    assert _delta(kept, before) == (0, 64) and kept.cache_info().currsize == 32
    # the last 32 blocks are kept; (2048, 2112) is the least recently used
    # once (4032, 4096) is read, so the block of 1984 evicts it
    before = _counts(kept)
    for start, hit in ((4032, True), (1984, False), (2112, True), (2048, False)):
        _kept_block(sinc, (0.0, HALF_PI), 4096, start, start + 64)
        assert _delta(kept, before) == (hit, not hit), start
        before = _counts(kept)
    assert kept.cache_info().currsize == 32


@pytest.mark.parametrize("suite, members", [("chains", 17), ("remarks", 26)])
def test_each_core_member_is_evaluated_once_per_base_grid_block(suite, members, kept, monkeypatch):
    # adjacent chain links and each remarks pair share a member: its values
    # on a base-grid block are handed on, not evaluated twice
    seen = []

    def counted(name):
        real = getattr(core, name)

        def member(*args):
            x = args[-1]
            if x.size > 65:  # a base-grid block: a refinement round has at most 5 windows of 13
                seen.append((name, args[:-1], x[0], x.size))
            return real(*args)
        return member

    for name in ("sinc", "sinhc", "cos_bound", "cosh_bound", "cos_power_bound", "cosh_power_bound"):
        monkeypatch.setattr(core, name, counted(name))
    corpus.run_suite(suite, points=2 * verifier._BLOCK + 100)
    assert len(seen) == len(set(seen)) == 3 * members, len(seen)  # 2 full blocks and one of 100
    assert len({key[:2] for key in seen}) == members


# ------------------------------------------- several cases in one pass

class _Unhashable:
    """A side that cannot be a dict key, as a case's side need not be."""

    __hash__ = None

    def __call__(self, x):
        return 2.0 + 0 * x


@pytest.mark.parametrize("block", [64, verifier._BLOCK])
def test_verify_cases_equals_verify_of_each_case(block, monkeypatch):
    # two interleaved domains; a partial and a lambda each shared by two
    # cases, one callable on both sides, and an unhashable side
    monkeypatch.setattr(verifier, "_BLOCK", block)
    bound = core.member("cos_bound", 0.7)[1]
    level = lambda x: 0.5 + 0 * x  # noqa: E731
    odd = _Unhashable()
    trig, wide = (0.0, HALF_PI), (0.0, 3.0)
    cases = [InequalityCase("bound < sinc", bound, sinc, trig),
             InequalityCase("level < bound", level, bound, wide),
             InequalityCase("bound < odd", bound, odd, trig),
             InequalityCase("sinc < level", sinc, level, wide),
             InequalityCase("sinc < sinc", sinc, sinc, trig),
             InequalityCase("odd < level", odd, level, wide)]
    got = verifier._verify_cases(cases, 1000, 2)
    assert [r.verdict for r in got] == [Verdict.HOLDS, Verdict.FAILS, Verdict.HOLDS,
                                        Verdict.FAILS, Verdict.INCONCLUSIVE, Verdict.FAILS]
    for case, report in zip(cases, got, strict=True):
        _assert_same_report(report, verify(case, points=1000))
        _assert_same_report(report, _reference_verify(case, points=1000))
    assert verifier._verify_cases([], 1000, 2) == []


def test_verify_cases_share_a_failing_side(monkeypatch):
    # late raises on the 13th of 16 blocks: each case that reads it gets
    # verify's own report of it, and the other cases' reports do not move
    monkeypatch.setattr(verifier, "_BLOCK", 64)
    calls = []

    def late(x):
        if np.any(x > 0.8):
            raise FloatingPointError(f"late side on {x.size} points")
        calls.append((x[0], x.size))
        return 2.0 + 0 * x

    def early(x):
        if np.any(x > 0.5):
            raise ValueError("early side")
        return 0 * x

    unit = (0.0, 1.0)
    cases = [InequalityCase("late on the right", _ZERO, late, unit),
             InequalityCase("no late", _ZERO, lambda x: 1.0 + x, unit),
             InequalityCase("late on the left", late, lambda x: 3.0 + x, unit),
             InequalityCase("late on a short domain", _ZERO, late, (0.0, 0.5)),
             InequalityCase("early before late", early, late, unit)]
    got = verifier._verify_cases(cases, 1000, 2)
    assert len(calls) == len(set(calls))  # each block it evaluates, once for all its cases
    for case, report in zip(cases, got, strict=True):
        _assert_same_report(report, verify(case, points=1000))
    diagnostics = ["evaluation failed: FloatingPointError('late side on 64 points')", "",
                   "evaluation failed: FloatingPointError('late side on 64 points')", "",
                   "evaluation failed: ValueError('early side')"]
    assert [r.diagnostic for r in got] == diagnostics
    assert [r.grid_points for r in got] == [0, 1000 + 2 * 65, 0, 1000 + 2 * 65, 0]
    assert [r.verdict for r in got] == [Verdict.INCONCLUSIVE, Verdict.HOLDS, Verdict.INCONCLUSIVE,
                                        Verdict.HOLDS, Verdict.INCONCLUSIVE]


# ------------------------------------------------- monotone mean family rows

def _stacked_rows(p_grid, a, b):
    """mean_family evaluated once per p, as verify_param_monotone once did."""
    return half_log_ratio((a, b)), np.array([mean_family(p, (a, b)) for p in p_grid])


@pytest.mark.parametrize("p_grid", [np.linspace(0.0, 3.0, 21), [0.0, 1e-9, 0.5],
                                    np.linspace(-2.0, -0.5, 5)])
@pytest.mark.parametrize("seed", [0, 5, 20250810])
def test_param_monotone_mean_rows_match_per_p_stack(p_grid, seed, monkeypatch):
    a, b = random_pairs(1000, seed)
    b[::9] = a[::9]  # equal pairs
    got_h, got_rows = means._mean_family_rows(p_grid, a, b)
    want_h, want_rows = _stacked_rows(p_grid, a, b)
    assert np.array_equal(got_h, want_h) and np.array_equal(got_rows, want_rows)
    got = verify_param_monotone(p_grid, (a, b))
    monkeypatch.setattr(means, "_mean_family_rows", _stacked_rows)
    assert got == verify_param_monotone(p_grid, (a, b))


def _column_floor_report(coords, values):
    """verify_param_monotone's reduction as it was before it took
    _report's floor: 64 ulps of max(1, the largest |value| of the column)."""
    diffs = values[1:] - values[:-1]
    floor = FLOOR_ULPS * _EPS * np.maximum(1.0, np.abs(values).max(axis=0))
    bad, good = diffs < -floor, diffs > floor
    row, col = np.unravel_index(int(np.argmin(diffs)), diffs.shape)
    violations = [Violation(float(coords[c]), float(values[r][c]), float(values[r + 1][c]))
                  for r, c in list(zip(*np.nonzero(bad)))[:50]]
    verdict = Verdict.FAILS if bad.any() else Verdict.HOLDS if good.any() else Verdict.INCONCLUSIVE
    return VerificationReport("monotone:means", int(values.size), float(diffs[row, col]),
                              float(coords[col]), violations, verdict, int(bad.sum()))


@pytest.mark.parametrize("p_grid", [np.linspace(0.0, 3.0, 21), np.linspace(-2.0, -0.5, 5)],
                         ids=["corpus", "decreasing"])
def test_param_monotone_matches_the_column_floor_reduction(p_grid, monkeypatch):
    mean_family_rows = means._mean_family_rows
    for seed in range(1, 301):
        a, b = random_pairs(1000, seed + 1)
        rows = mean_family_rows(p_grid, a, b)
        monkeypatch.setattr(means, "_mean_family_rows", lambda *args: rows)  # made once
        assert verify_param_monotone(p_grid, (a, b)) == _column_floor_report(*rows), seed


@pytest.mark.parametrize("wrap", [float, lambda v: np.array([v, v])], ids=["number", "array"])
@pytest.mark.parametrize("lhs, rhs, ok", [
    (1.0, 1.0, True),
    (1.0 + _EPS, 1.0, True),              # 1 ulp past
    (1.0 + 65 * _EPS, 1.0, False),        # 65 ulps past
    (-(1.0 + 65 * _EPS), -1.0, True),     # below by 65 ulps
    (278.2257133349147, 278.22571333491464, True),  # the seed-807 sb pair, 1 ulp past
    (math.inf, math.inf, False),
    (1.0, math.inf, False),
    (-math.inf, 1.0, False),
    (math.nan, 1.0, False),
    (1.0, math.nan, False),
    (1e308, -1e308, False),               # the difference overflows
])
def test_at_most_allows_64_ulps_of_the_larger_magnitude(wrap, lhs, rhs, ok):
    got = verifier._at_most(wrap(lhs), wrap(rhs))
    assert np.array_equal(got, np.full(np.shape(got), ok))


def test_seeded_propositions_checks_hold_over_many_seeds():
    # the sb rule, the log-mean sandwich and the monotone family draw their
    # pairs from the seed; seed 807 once failed the sb check by 0.92 ulp
    seeded = ("sb_lower_bound <= sb_mean", "log_mean_sandwich contains L", "monotone:means")
    for seed in [*range(100), 807]:
        results = corpus.run_suite("propositions", points=64, seed=seed)
        assert all(r.ok for r in results if r.id.startswith(seeded)), seed
        assert sum(r.id.startswith(seeded) for r in results) == 3


def test_leibniz_ratio_margin_is_taken_at_half_pi():
    import mpmath as mp
    for p, n_max in ((UPPER_EDGE, 30), (0.1, 12), (0.5, 40)):
        with mp.workprec(113):
            c = mp.mpf(p) ** 2
            coeff = [3 - (2 * n + 1) * c ** (n - 1) for n in range(n_max + 2)]
            worst = max(mp.mpf(2 * n - 2) / ((2 * n - 4) * (2 * n + 2) * (2 * n + 3))
                        * coeff[n + 1] / coeff[n] * (mp.pi / 2) ** 2
                        for n in range(3, n_max + 1))
            want = 11 * mp.pi ** 2 / 360 - worst
        rep = verify_leibniz_ratio(p, n_max)
        assert abs(rep.min_margin - want) <= 4 * math.ulp(constants.LEIBNIZ_RATIO_BOUND), p
        assert (rep.grid_points, rep.argmin_x, rep.n_violations) == (n_max - 2, HALF_PI, 0)
    # at p = sqrt(15)/5 the supremum is 11 pi^2/720, which a grid inside
    # (0, pi/2) never reaches
    rep = verify_leibniz_ratio(UPPER_EDGE, 30)
    assert constants.LEIBNIZ_RATIO_BOUND - rep.min_margin == pytest.approx(
        11 * math.pi ** 2 / 720, rel=1e-12)


def test_propositions_take_one_si_panel_per_t(monkeypatch):
    calls = []
    si_reference = corpus.integrals.si_reference
    monkeypatch.setattr(corpus.integrals, "si_reference", lambda t: calls.append(t) or si_reference(t))
    results = corpus.run_suite("propositions", points=64)
    assert sorted(calls) == [0.3, 0.8, 1.2, HALF_PI]
    assert sum(r.id.startswith("si_enclosure") for r in results) == 16
