import math

import numpy as np
import pytest

from sincbounds.constants import solve_sinc_lower_edge
from sincbounds.core import cos_bound, cos_power_bound, sinc
from sincbounds.corpus import cos_chain_members, cosh_chain_members
from sincbounds.means import mean_family, random_pairs
from sincbounds.verifier import (
    InequalityCase,
    MonotoneFamily,
    SharpnessFamily,
    ThresholdSide,
    Verdict,
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
