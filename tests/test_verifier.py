import math
import tracemalloc

import numpy as np
import pytest

from sincbounds import constants, corpus, means, verifier
from sincbounds.constants import solve_sinc_lower_edge
from sincbounds.core import cos_bound, cos_power_bound, sinc, sinhc
from sincbounds.corpus import cos_chain_members, cosh_chain_members
from sincbounds.means import _random_pair_arrays, half_log_ratio, mean_family
from sincbounds.verifier import (
    FLOOR_ULPS,
    InequalityCase,
    SharpnessFamily,
    ThresholdSide,
    Verdict,
    VerificationReport,
    Violation,
    _EPS,
    _interior_grid,
    _refine_windows,
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
    with pytest.raises(ValueError, match="refine_rounds must be >= 0"):
        verify(case, points=64, refine_rounds=-1)
    assert verify(case, points=64, refine_rounds=0).grid_points == 64


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


def test_full_chains_hold():
    for rep in verify_chain(cos_chain_members(), (0.0, HALF_PI), points=1024):
        assert rep.verdict is Verdict.HOLDS, rep
    for rep in verify_chain(cosh_chain_members(), (0.0, 20.0), points=1024):
        assert rep.verdict is Verdict.HOLDS, rep


def test_param_monotone_families():
    pairs = _random_pair_arrays(200, seed=5)
    rep = verify_param_monotone(np.linspace(0.0, 3.0, 11), pairs)
    assert rep.verdict is Verdict.HOLDS


def test_param_monotone_detects_decrease():
    # the mean family is even in p, hence decreasing on negative orders
    pairs = _random_pair_arrays(50, seed=5)
    rep = verify_param_monotone(np.linspace(-2.0, -0.5, 5), pairs)
    assert rep.verdict is Verdict.FAILS
    with pytest.raises(ValueError):
        verify_param_monotone([0.5, 0.5], pairs)


@pytest.mark.parametrize("p_grid", [[0.5], []], ids=["one", "none"])
def test_param_monotone_needs_two_orders(p_grid):
    with pytest.raises(ValueError, match="p_grid needs at least 2 values"):
        verify_param_monotone(p_grid, _random_pair_arrays(5, seed=5))


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
    for family, (lhs, rhs, _, edge) in verifier._SHARP_EDGES.items():
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
    with pytest.raises(ValueError):
        verify_leibniz_ratio(0.9, 10)  # p^2 beyond 3/5
    with pytest.raises(ValueError):
        verify_leibniz_ratio(0.5, 3)


# ------------------------------------------- verify against its sorting form

def _reference_verify(case, points=4096, refine_rounds=2):
    """verify as it was written before it reduced each round on its own:
    every round concatenated, refinement centres from a stable sort of all
    margins, and the report read off all points in stable x order."""
    if points < 64:
        raise ValueError("points must be >= 64")
    lo, hi = case.domain
    xs = _interior_grid(lo, hi, points)
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
    real = verifier.verify
    seen = []

    def checked(case, points=4096, refine_rounds=2):
        got = real(case, points, refine_rounds)
        _assert_same_report(got, _reference_verify(case, points, refine_rounds))
        seen.append(case.id)
        return got

    monkeypatch.setattr(verifier, "verify", checked)
    monkeypatch.setattr(corpus, "verify", checked)
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
    # floors: each verify call takes the floors once more, on its picks
    counts = {"sides": 0, "floors": 0, "calls": 0}
    side, definite, real = verifier._side, verifier._definite, verifier.verify

    def counted_side(*args):
        counts["sides"] += 1  # twice per block, lhs and rhs
        return side(*args)

    def counted_definite(*args):
        counts["floors"] += 1
        return definite(*args)

    def counted_verify(*args, **kwargs):
        counts["calls"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(verifier, "_side", counted_side)
    monkeypatch.setattr(verifier, "_definite", counted_definite)
    monkeypatch.setattr(verifier, "verify", counted_verify)
    monkeypatch.setattr(corpus, "verify", counted_verify)
    corpus.run_suite("all", points=4096)
    exact = counts["floors"] - counts["calls"]
    assert 0 < exact < counts["sides"] // 4, counts


@pytest.mark.parametrize("block", [64, verifier._BLOCK])
@pytest.mark.parametrize("domain", [
    (0.0, HALF_PI), (0.0, 50.0), (1.0, 1e12), (-3.0, 2.5), (0, 1),
    (1.0, 1.0 + 4 * _EPS),        # a few ulps wide: grid points repeat
    (0.0, 1e-320),                # the step underflows to zero
    (-1e308, 1e308),              # the width overflows
    (np.float32(0.0), np.float32(1.5)),  # a float32 grid
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
        want = np.linspace(domain[0], domain[1], points + 2)[1:-1]
    got = np.concatenate(seen)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert len(seen) == -(-points // block)


def test_verify_memory_stays_below_one_round():
    # the 65536-point grid takes 0.5 MiB; its blocks' temporaries stay small,
    # where arrays of a whole round came to about 3 MiB
    case = InequalityCase("memory", lambda x: cos_bound(0.7, x), sinc, (0.0, HALF_PI))
    verify(case, points=65536)
    tracemalloc.start()
    try:
        verify(case, points=65536)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2 ** 20, peak


# ------------------------------------------------- monotone mean family rows

def _stacked_rows(p_grid, a, b):
    """mean_family evaluated once per p, as verify_param_monotone once did."""
    return half_log_ratio((a, b)), np.array([mean_family(p, (a, b)) for p in p_grid])


@pytest.mark.parametrize("p_grid", [np.linspace(0.0, 3.0, 21), [0.0, 1e-9, 0.5],
                                    np.linspace(-2.0, -0.5, 5)])
@pytest.mark.parametrize("seed", [0, 5, 20250810])
def test_param_monotone_mean_rows_match_per_p_stack(p_grid, seed, monkeypatch):
    a, b = _random_pair_arrays(1000, seed)
    b[::9] = a[::9]  # equal pairs
    got_h, got_rows = means._mean_family_rows(p_grid, a, b)
    want_h, want_rows = _stacked_rows(p_grid, a, b)
    assert np.array_equal(got_h, want_h) and np.array_equal(got_rows, want_rows)
    got = verify_param_monotone(p_grid, (a, b))
    monkeypatch.setattr(means, "_mean_family_rows", _stacked_rows)
    assert got == verify_param_monotone(p_grid, (a, b))
