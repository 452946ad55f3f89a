import math
import time

import mpmath as mp
import numpy as np
import pytest
from mpmath import iv

from sincbounds.constants import (
    Side,
    quartic_bound_eval,
    quartic_constants,
    sinc_gap_at_half_pi,
    sinc_upper_edge,
    sinhc_upper_edge,
    solve_sinc_lower_edge,
)
from sincbounds.core import cos_bound, sinc

# independent high-precision bisection oracle, frozen:
#   root of 2/pi - 1 + (2/(3p^2)) sin(p pi/4)^2 on (1/2, 1) at 40 digits
LOWER_EDGE_40DPS = 0.7708607411268670163182403


def _mp_lower_edge():
    mp.mp.dps = 40
    return float(mp.findroot(
        lambda p: 2 / mp.pi - 1 + (2 / (3 * p ** 2)) * mp.sin(p * mp.pi / 4) ** 2,
        mp.mpf("0.77")))


def test_lower_edge_matches_high_precision_oracle():
    assert _mp_lower_edge() == pytest.approx(LOWER_EDGE_40DPS, abs=1e-15)
    got = solve_sinc_lower_edge(1e-9)
    assert got.certified_radius <= 1e-9
    assert got.value == pytest.approx(LOWER_EDGE_40DPS, abs=1e-9)
    assert round(got.value, 5) == 0.77086


def test_lower_edge_literal_is_proven_within_3_ulps_of_the_root():
    # Interval arithmetic at 30 digits (Moore, Interval Analysis, 1966): the
    # gap at pi/2 is positive at v - 3 ulp(v) and negative at v + 3 ulp(v),
    # and strictly decreasing on that box, so the box holds exactly one root.
    v = solve_sinc_lower_edge().value
    r = 3.0 * math.ulp(v)  # 3.3e-16, below every admissible radius (>= 1e-15)
    dps, iv.dps = iv.dps, 30
    try:
        def gap(p):
            return 2 / iv.pi - 1 + (2 / (3 * p * p)) * iv.sin(p * iv.pi / 4) ** 2

        lo, hi = iv.mpf(v) - iv.mpf(r), iv.mpf(v) + iv.mpf(r)
        assert gap(lo).a > 0 and gap(hi).b < 0
        # d gap/dp = -(2 - 2 cos u - u sin u) / (3 p^3), u = p pi/2
        u = iv.mpf([lo.a, hi.b]) * iv.pi / 2
        assert (2 - 2 * iv.cos(u) - u * iv.sin(u)).a > 0
    finally:
        iv.dps = dps
    assert r < 1e-15


@pytest.mark.parametrize("tol", [1e-15, 3e-15, 1e-14, 1e-13, 1e-12, 1e-9, 1e-3])
def test_lower_edge_is_one_literal_at_every_tolerance(tol):
    got = solve_sinc_lower_edge(tol)
    assert got.value == 0.7708607411268668
    assert got.certified_radius == tol


def test_lower_edge_certificate_signs():
    for tol in (1e-6, 1e-9, 1e-12):
        got = solve_sinc_lower_edge(tol)
        assert got.certified_radius <= tol
        assert sinc_gap_at_half_pi(got.value - got.certified_radius) > 0.0
        assert sinc_gap_at_half_pi(got.value + got.certified_radius) < 0.0


def test_lower_edge_bracket_endpoint_signs():
    assert sinc_gap_at_half_pi(0.5) == pytest.approx(
        2.0 / math.pi - 2.0 * math.sqrt(2.0) / 3.0 + 1.0 / 3.0, rel=1e-14)
    assert sinc_gap_at_half_pi(0.5) > 0.0
    assert sinc_gap_at_half_pi(1.0) == pytest.approx(2.0 / math.pi - 2.0 / 3.0, rel=1e-14)
    assert sinc_gap_at_half_pi(1.0) < 0.0


@pytest.mark.parametrize("p", [math.nan, math.inf, -1.0, 2.0])
def test_gap_at_half_pi_rejects_a_parameter_outside_the_trig_family(p):
    with pytest.raises(ValueError, match="parameter"):
        sinc_gap_at_half_pi(p)


def test_lower_edge_tolerance_validation_and_speed():
    t0 = time.perf_counter()
    solve_sinc_lower_edge(1e-12)
    assert time.perf_counter() - t0 < 0.01


def test_upper_edge():
    e = sinc_upper_edge()
    assert f"{e.value:.10f}" == "0.7745966692"
    assert e.value ** 2 == pytest.approx(0.6, rel=1e-15)
    assert e.certified_radius <= math.ulp(e.value)
    assert e.value > solve_sinc_lower_edge(1e-9).value
    assert sinhc_upper_edge().value == 1.0


def test_quartic_constants_at_edges():
    upper = quartic_constants(sinc_upper_edge().value)
    assert abs(upper.c_hi) < 1e-16
    assert upper.c_lo == pytest.approx(-7.261826225159997e-05, rel=1e-10)
    lower = quartic_constants(solve_sinc_lower_edge(1e-12).value)
    assert abs(lower.c_lo) < 1e-12  # vanishes at the root, to solver tolerance
    assert lower.c_hi == pytest.approx(8.019052485191e-05, rel=1e-9)


def test_quartic_constants_limit_family():
    q = quartic_constants(0.0)
    assert q.c_hi == pytest.approx(1.0 / 120.0, rel=1e-15)
    expect = (math.pi / 2.0) ** -4 * (2.0 / math.pi - 1.0 + math.pi ** 2 / 24.0)
    assert q.c_lo == pytest.approx(expect, rel=1e-14)
    # smooth approach from above
    assert quartic_constants(1e-9).c_lo == pytest.approx(expect, rel=1e-12)


def test_quartic_constants_range_check():
    # sqrt(15)/5 itself must be admissible despite rounding of its square
    quartic_constants(math.sqrt(15.0) / 5.0)


def test_quartic_ordering():
    for p in (0.1, 0.4, 0.7, math.sqrt(15.0) / 5.0):
        q = quartic_constants(p)
        assert q.c_lo <= q.c_hi


def test_quartic_bound_eval_sandwich():
    p = math.sqrt(15.0) / 5.0
    q = quartic_constants(p)
    xs = np.linspace(0.0, math.pi / 2, 10_002)[1:-1]
    lower = quartic_bound_eval(q, xs, Side.LOWER)
    upper = quartic_bound_eval(q, xs, Side.UPPER)
    s = sinc(xs)
    assert float(np.min(s - lower)) >= -1e-12
    assert float(np.min(upper - s)) >= -1e-12
    # sharpness: the uncorrected family touches sinc at 0, the corrected
    # lower bound touches it at pi/2
    assert float(np.max(s - upper)) <= 1e-12
    assert float(np.max(s - lower)) >= -1e-12


def test_quartic_lower_bound_at_right_end_equals_family():
    edge = solve_sinc_lower_edge(1e-12)
    q = quartic_constants(edge.value)
    x = math.pi / 2
    lower = quartic_bound_eval(q, x, Side.LOWER)
    assert lower == pytest.approx(cos_bound(edge.value, x), abs=1e-12)
    assert lower == pytest.approx(2.0 / math.pi, abs=1e-11)


def test_quartic_bound_eval_near_zero():
    q = quartic_constants(0.5)
    for side in (Side.LOWER, Side.UPPER):
        assert quartic_bound_eval(q, 1e-9, side) == pytest.approx(1.0, abs=1e-12)
