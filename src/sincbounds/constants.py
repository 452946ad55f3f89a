"""Sharp parameter thresholds and the best quartic correction constants.

The trig family bounds sinc from below exactly for parameters up to a
threshold p* ~ 0.77086 (the unique root of gap(pi/2) = 0, stored as a
literal that the tests prove in interval arithmetic) and from above
exactly from sqrt(15)/5 ~ 0.77460 on (the root of the quartic gap
coefficient).  Adding c * x^4 to the family tightens it into a two-sided
sandwich whose best constants are computed here.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import core as _core
from .core import _HALF_PI, quartic_gap_coeff

LEIBNIZ_RATIO_BOUND = 11.0 * math.pi ** 2 / 360.0


class SharpConstant(NamedTuple):
    value: float
    certified_radius: float


def sinc_gap_at_half_pi(p: float) -> float:
    """sinc(pi/2) - cos_bound(p, pi/2) in closed form, stable down to p = 0.

    Strictly decreasing in p; positive at p = 1/2, negative at p = 1.
    """
    p = _core._check(float(p), True)
    if p <= _core._LIMIT_FAMILY_CUTOFF:
        return 2.0 / math.pi - 1.0 + math.pi * math.pi / 24.0
    s = math.sin(p * math.pi / 4.0)
    return 2.0 / math.pi - 1.0 + (2.0 / (3.0 * p * p)) * s * s


def solve_sinc_lower_edge(tolerance: float = 1e-12) -> SharpConstant:
    """The root of gap(pi/2) = 0 on [1/2, 1], certified to radius tolerance.

    The value is a literal, 2.35 ulps below the root.  The tests prove in
    interval arithmetic that the root lies within 3 ulps (3.3e-16) of it, so
    the gap is positive at value - tolerance and negative at value +
    tolerance for every admissible tolerance (>= 1e-15).
    """
    tolerance = float(tolerance)
    if not tolerance >= 1e-15:
        raise ValueError("tolerance must be >= 1e-15")
    return SharpConstant(0.7708607411268668, tolerance)


def sinc_upper_edge() -> SharpConstant:
    """sqrt(15)/5: root of the quartic gap coefficient, exact to rounding;
    also the largest p with cosh_bound(p, .) < sinhc on (0, inf)."""
    return SharpConstant(_core._UPPER_EDGE, math.ulp(_core._UPPER_EDGE))


def sinhc_upper_edge() -> SharpConstant:
    """1: smallest parameter bounding sinhc from above for all x > 0."""
    return SharpConstant(1.0, 0.0)


class QuarticBound(NamedTuple):
    """Best x^4 correction constants for one trig family member.

    cos_bound(p, x) + c_lo x^4  <  sinc(x)  <  cos_bound(p, x) + c_hi x^4
    on (0, pi/2), for p^2 in (0, 3/5] (p = 0 means the quadratic limit).
    """

    p: float
    c_lo: float
    c_hi: float


def quartic_constants(p) -> QuarticBound:
    """c_lo = (pi/2)^-4 * gap(pi/2), c_hi = (3 - 5 p^2)/360."""
    p = float(p)
    if not (math.isfinite(p) and 0.0 <= p and p * p <= _core._C_MAX):
        raise ValueError(f"parameter outside the certified range [0, sqrt(3/5)]: {p!r}")
    c_lo = _HALF_PI ** -4 * sinc_gap_at_half_pi(p)
    return QuarticBound(p, c_lo, quartic_gap_coeff(p))

