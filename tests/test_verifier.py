import math
import tracemalloc

import numpy as np
import pytest

from sincbounds import corpus, means, verifier
from sincbounds.constants import solve_sinc_lower_edge
from sincbounds.core import cos_bound, cos_power_bound, sinc, sinhc
from sincbounds.corpus import cos_chain_members, cosh_chain_members
from sincbounds.means import _random_pair_arrays, half_log_ratio, mean_family, random_pairs
from sincbounds.verifier import (
    FLOOR_ULPS,
    InequalityCase,
    MonotoneFamily,
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
    relaxed = InequalityCase("self<=", sinc, sinc, (0.1, 1.0), strict=False)
    assert verify(relaxed, points=128).verdict is Verdict.HOLDS


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
    xs = np.linspace(0.0, HALF_PI, 130)[1:-1]
    rep = verify_param_monotone(MonotoneFamily.COS_FAMILY, np.linspace(0.0, 1.0, 6), x_grid=xs)
    assert rep.verdict is Verdict.HOLDS
    xh = np.linspace(0.0, 10.0, 130)[1:-1]
    rep = verify_param_monotone(MonotoneFamily.COSH_FAMILY, np.linspace(0.0, 3.0, 7), x_grid=xh)
    assert rep.verdict is Verdict.HOLDS
    pairs = random_pairs(200, seed=5)
    rep = verify_param_monotone(MonotoneFamily.MEAN_FAMILY, np.linspace(0.0, 3.0, 11), pairs=pairs)
    assert rep.verdict is Verdict.HOLDS


def test_param_monotone_detects_decrease():
    # the mean family is even in p, hence decreasing on negative orders
    pairs = random_pairs(50, seed=5)
    rep = verify_param_monotone(MonotoneFamily.MEAN_FAMILY, np.linspace(-2.0, -0.5, 5), pairs=pairs)
    assert rep.verdict is Verdict.FAILS
    with pytest.raises(ValueError):
        verify_param_monotone(MonotoneFamily.COS_FAMILY, [0.5, 0.5], x_grid=[0.3])


def test_param_monotone_mean_pairs_are_read_one_by_one():
    # every element of pairs is one (a, b) pair, whatever its type; two arrays
    # are two pairs, not an (a-array, b-array) pair
    grid = np.linspace(0.0, 3.0, 7)
    ref = verify_param_monotone(MonotoneFamily.MEAN_FAMILY, grid, pairs=[(1.0, 2.0), (3.0, 4.0)])
    arrays = verify_param_monotone(MonotoneFamily.MEAN_FAMILY, grid,
                                   pairs=(np.array([1.0, 2.0]), np.array([3.0, 4.0])))
    assert arrays == ref
    scalar = [[mean_family(p, m) for m in [(1.0, 2.0), (3.0, 4.0)]] for p in grid]
    assert ref.min_margin == float(np.min(np.diff(scalar, axis=0)))
    with pytest.raises(ValueError):
        verify_param_monotone(MonotoneFamily.MEAN_FAMILY, grid, pairs=[(1.0, 2.0, 3.0)])


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


def test_sharpness_offset_validation():
    thr = solve_sinc_lower_edge(1e-6)
    with pytest.raises(ValueError):
        verify_sharpness(SharpnessFamily.SINC_LOWER, ThresholdSide.ABOVE, 1e-6, threshold=thr)


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
    elif good.any() or not case.strict:
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
    ("all zero", _ZERO, _ZERO, (0.0, 1.0), True),
    ("all zero, not strict", _ZERO, _ZERO, (0.0, 1.0), False),
    ("steps", lambda x: np.floor(8.0 * x) / 8.0, lambda x: np.floor(8.0 * x + 0.5) / 8.0,
     (0.0, 1.0), True),
    ("falling steps", _ZERO, lambda x: np.floor(4.0 * (1.0 - x)) - 1.0, (0.0, 1.0), True),
    # a negative zero margin ahead of or behind positive zeros
    ("signed zeros", _ZERO, lambda x: np.where(x > 0.5, -0.0, 0.0), (0.0, 1.0), True),
    ("signed zeros first", _ZERO, lambda x: np.where(x < 0.5, -0.0, 0.0), (0.0, 1.0), True),
    # NaN at some points and at every point
    ("some NaN", sinc, _masked(lambda x: 1.0 + x, lambda x: (x > 0.3) & (x < 0.35), np.nan),
     (0.0, 1.0), True),
    ("NaN with violations", _masked(sinc, lambda x: x > 0.9, np.nan), lambda x: 0.9 + 0 * x,
     (0.0, 1.0), True),
    ("all NaN", lambda x: np.full_like(x, np.nan), sinc, (0.0, 1.0), True),
    # infinite margins of both signs
    ("+inf margins", _ZERO, _masked(lambda x: x, lambda x: x > 0.7, np.inf), (0.0, 1.0), True),
    ("-inf margins", _masked(_ZERO, lambda x: x < 0.2, np.inf), lambda x: 1.0 + x,
     (0.0, 1.0), True),
    ("inf - inf", lambda x: np.full_like(x, np.inf), lambda x: np.full_like(x, np.inf),
     (0.0, 1.0), True),
    # values that depend on the position in the array, not on x alone, so
    # that the order of points with equal x shows in the report
    ("by position", _ZERO, lambda x: (np.arange(x.size) % 5) - 2.0, (0.0, 1.0), True),
    ("by position, ulp domain", lambda x: np.arange(x.size) % 3 - 1.0, _ZERO,
     (1.0, 1.0 + 8 * _EPS), True),
    ("by position, falling centres", lambda x: np.arange(x.size) % 40.0, _ZERO,
     (1.0, 1.0 + 8 * _EPS), True),
    # a scalar-returning side
    ("scalar lhs", lambda x: 0.5, sinc, (0.0, 2.0), True),
    # smallest margins at both domain ends; on a domain a few ulps wide grid
    # points fall on its ends, and the windows around them are clipped
    ("both ends", _ZERO, lambda x: x * (1.0 - x), (0.0, 1.0), True),
    ("both ends, failing", lambda x: 1e-3 + 0 * x, lambda x: x * (1.0 - x), (0.0, 1.0), True),
    ("clipped at lo", _ZERO, lambda x: x - 1.0, (1.0, 1.0 + 8 * _EPS), True),
    ("clipped at hi", _ZERO, lambda x: (1.0 + 8 * _EPS) - x, (1.0, 1.0 + 8 * _EPS), True),
    # windows whose linspace step underflows to zero
    ("subnormal domain", _ZERO, lambda x: x * 1e300, (0.0, 1e-320), True),
    # more than 50 violations on the base grid and among the refinement points
    ("many violations", lambda x: np.cos(3.0 * x), sinc, (0.0, 3.0), True),
    ("everywhere violated", lambda x: 2.0 + x, sinc, (0.0, 1.0), True),
    ("lower edge", lambda x: cos_bound(LOWER_EDGE + 1e-3, x), sinc, (0.0, HALF_PI), True),
    ("upper edge", sinc, lambda x: cos_bound(UPPER_EDGE - 1e-3, x), (0.0, HALF_PI), False),
    ("sinhc overflow", lambda x: 1.0 + 0 * x, sinhc, (0.0, 1000.0), True),
]


@pytest.mark.parametrize("refine_rounds", [0, 1, 2, 3])
@pytest.mark.parametrize("points", [64, 1000])
@pytest.mark.parametrize("name,lhs,rhs,domain,strict", _EDGE_CASES, ids=[c[0] for c in _EDGE_CASES])
def test_verify_matches_reference_on_edge_cases(name, lhs, rhs, domain, strict, points,
                                                refine_rounds):
    case = InequalityCase(name, lhs, rhs, domain, strict=strict)
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
     lambda x: np.where(np.floor(10.0 * x) % 5.0 == 1.0, -1.0, 1.0), (0.0, 1.0), True),
    ("NaN in a later block only", _ZERO, _masked(lambda x: 1.0 + x, lambda x: x > 0.8, np.nan),
     (0.0, 1.0), True),
    ("NaN in the last block only", _ZERO, _masked(lambda x: 1.0 + x, lambda x: x > 0.97, np.nan),
     (0.0, 1.0), True),
    ("sparse violations in every block", lambda x: np.where(np.sin(150.0 * x) > 0.95, 2.0, 0.0),
     lambda x: 1.0 + 0 * x, (0.0, 1.0), True),
    ("minimum in the last, short block", _ZERO, lambda x: 1.0 - x, (0.0, 1.0), True),
    ("scalar rhs", lambda x: -x, lambda x: -0.5, (0.0, 1.0), True),
]


@pytest.mark.parametrize("refine_rounds", [0, 1, 2])
@pytest.mark.parametrize("points", [64, 1000])
@pytest.mark.parametrize("name,lhs,rhs,domain,strict", _BLOCK_EDGE_CASES,
                         ids=[c[0] for c in _BLOCK_EDGE_CASES])
def test_verify_in_small_blocks_matches_reference(name, lhs, rhs, domain, strict, points,
                                                  refine_rounds, monkeypatch):
    # every round of more than 64 points spans several blocks; the "by
    # position" cases are not elementwise, so the reference sees them in
    # the same slices
    monkeypatch.setattr(verifier, "_BLOCK", 64)
    case = InequalityCase(name, lhs, rhs, domain, strict=strict)
    sliced = InequalityCase(name, _in_blocks(lhs, 64), _in_blocks(rhs, 64), domain, strict=strict)
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


def test_verify_in_blocks_raises_what_the_round_raises(monkeypatch):
    # rhs fails in the first block, lhs only in a later one; the round,
    # evaluated whole with lhs first, fails on lhs
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
    for block in (64, verifier._BLOCK):
        monkeypatch.setattr(verifier, "_BLOCK", block)
        got = verify(case, points=1000)
        _assert_same_report(got, _reference_verify(case, points=1000))
        assert got.diagnostic == "evaluation failed: ValueError('lhs beyond 0.9 on 1000 points')"
        assert got.grid_points == 0
        # a failure in a refinement round counts only the rounds before it
        got = verify(late, points=1000)
        _assert_same_report(got, _reference_verify(late, points=1000))
        assert got.diagnostic == \
            "evaluation failed: FloatingPointError('rhs left of the grid on 65 points')"
        assert got.grid_points == 1000


@pytest.mark.parametrize("points", [3 * verifier._BLOCK + 1, 65536])
def test_verify_in_blocks_matches_reference_on_corpus_and_sharpness(points, monkeypatch):
    test_verify_matches_reference_on_corpus_and_sharpness(points, monkeypatch)


@pytest.mark.parametrize("seed", range(20))
def test_smallest5_equals_stable_argsort(seed):
    rng = np.random.default_rng(seed)
    pool = np.array([-np.inf, -1.0, -0.0, 0.0, 0.5, 1.0, np.inf, np.nan])
    for size in (0, 1, 3, 4, 5, 6, 7, 12, 100):
        for m in (rng.choice(pool, size), rng.choice(pool[2:4], size),
                  rng.choice(pool[5:], size), rng.standard_normal(size)):
            assert np.array_equal(verifier._smallest5(m), np.argsort(m, kind="stable")[:5]), m


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
    pairs = np.column_stack((a, b))
    got_h, got_rows = means._mean_family_rows(p_grid, a, b)
    want_h, want_rows = _stacked_rows(p_grid, a, b)
    assert np.array_equal(got_h, want_h) and np.array_equal(got_rows, want_rows)
    got = verify_param_monotone(MonotoneFamily.MEAN_FAMILY, p_grid, pairs=pairs)
    monkeypatch.setattr(means, "_mean_family_rows", _stacked_rows)
    assert got == verify_param_monotone(MonotoneFamily.MEAN_FAMILY, p_grid, pairs=pairs)
