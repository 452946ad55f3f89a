"""Closed-form enclosures for the sine integral, int x/sinh x, the trigamma
value at 1/2, and Catalan's constant, each paired with an independent
quadrature or series oracle.

Every enclosure comes from integrating a two-sided family bound, so the
endpoints are elementary closed forms; the oracles are one 21-point
Gauss-Kronrod panel (QUADPACK's qk21, here in pure Python), at most 21 terms
of the Cohen-Rodriguez Villegas-Zagier sum for Catalan's constant (error at
most 2G/(3+sqrt8)^n after n terms), or, for the x/sinh x integral beyond
t = 4, its exponential tail series below the closed form pi^2/4.  The
x/sinh x ends are forms that do not cancel, widened outward by 4 ulps.

Nothing here imports scipy or numpy: the panel repeats qk21's nodes, weights
and order of operations, so it gives the doubles scipy's quad gives wherever
quad accepts its first panel, and raises wherever quad would bisect.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .constants import quartic_constants
from .core import _HALF_PI, _UPPER_EDGE, _count

_SQRT3 = math.sqrt(3.0)
_SQRT15 = math.sqrt(15.0)
_PI2_OVER_4 = math.pi ** 2 / 4.0  # within 2 ulps of pi^2/4

# QUADPACK's qk21 (Piessens et al., 1983): the 21-point Kronrod abscissae on
# [0, 1) with their weights, the centre's weight last, and the weights of the
# embedded 10-point Gauss rule, whose abscissae are _XGK[1::2]
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077208745109033, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)
_EPMACH = sys.float_info.epsilon
_UFLOW = sys.float_info.min
_TOL = 1e-13  # epsabs and epsrel of every panel


class QuadratureBudgetError(RuntimeError):
    """Raised when one Gauss-Kronrod panel cannot meet the tolerance."""


@dataclass(frozen=True)
class Enclosure:
    """Closed interval [lo, hi] certifying lo <= value <= hi.

    contains(value, slack) tests value against [lo - slack, hi + slack]; a
    negative slack narrows the interval.  lo and hi may also be equal-shape
    arrays, one interval per element (as means.log_mean_sandwich returns
    for an array pair); contains then returns a boolean array.
    """

    lo: float
    hi: float

    def __post_init__(self):
        ordered = self.lo <= self.hi
        if not (ordered.all() if hasattr(ordered, "all") else ordered):
            raise ValueError(f"empty enclosure: [{self.lo!r}, {self.hi!r}]")

    def contains(self, value: float, slack: float = 0.0) -> bool:
        return (self.lo - slack <= value) & (value <= self.hi + slack)


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int


def _quad(f, a: float, b: float) -> QuadratureResult:
    """One qk21 panel on [a, b], returned only where QUADPACK's qags would
    accept it as its answer.

    Raises QuadratureBudgetError where qags would bisect instead: when the
    error estimate exceeds max(_TOL, _TOL * |value|) or equals resabs.
    """
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    fc = f(centr)
    resg = 0.0
    resk = _WGK[10] * fc
    resabs = abs(resk)
    fv = [None] * 10
    for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):  # the Gauss abscissae first, as qk21
        absc = hlgth * _XGK[j]
        f1, f2 = f(centr - absc), f(centr + absc)
        fv[j] = f1, f2
        if j % 2:
            resg += _WG[j // 2] * (f1 + f2)
        resk += _WGK[j] * (f1 + f2)
        resabs += _WGK[j] * (abs(f1) + abs(f2))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for j in range(10):
        f1, f2 = fv[j]
        resasc += _WGK[j] * (abs(f1 - reskh) + abs(f2 - reskh))
    result = resk * hlgth
    resabs *= abs(hlgth)
    resasc *= abs(hlgth)
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    accepted = abserr <= max(_TOL, _TOL * abs(result)) and abserr != resabs
    if not (accepted or abserr == 0.0):
        raise QuadratureBudgetError(
            f"qk21 error estimate {abserr!r} on [{a!r}, {b!r}] above tolerance for {result!r}"
        )
    return QuadratureResult(result, abserr, 21)


def si_reference(t: float) -> QuadratureResult:
    """Si(t) = integral of sin(x)/x over [0, t] by one qk21 panel."""
    t = float(t)
    if not 0.0 <= t <= 10.0:
        raise ValueError(f"t must lie in [0, 10], got {t!r}")
    if t == 0.0:
        return QuadratureResult(0.0, 0.0, 0)
    return _quad(lambda x: math.sin(x) / x if x != 0.0 else 1.0, 0.0, t)


def sh_reference(t: float) -> QuadratureResult:
    """integral of x/sinh(x) over [0, t]: one qk21 panel up to t = 4, and
    pi^2/4 less the tail beyond t for 4 < t <= 50.

    With 1/sinh x = 2 sum_k e^{-(2k+1)x}, the tail is
        2 sum_k e^{-mt} (t/m + 1/m^2),  m = 2k+1,
    and the terms past m = 9 sum to below 1e-19 for t > 4. The error
    estimate bounds rounding: 2 ulps for pi^2/4, under 1/2 for the tail
    (below 0.092), 1/2 for the subtraction; the series evaluates no
    integrand. t = inf gives pi^2/4, half of trigamma(1/2), with the 2 ulps
    of pi^2/4.
    """
    t = float(t)
    if t == math.inf:
        return QuadratureResult(_PI2_OVER_4, 2.0 * math.ulp(_PI2_OVER_4), 0)
    if not 0.0 <= t <= 50.0:
        raise ValueError(f"t must lie in [0, 50], got {t!r}")
    if t == 0.0:
        return QuadratureResult(0.0, 0.0, 0)
    if t <= 4.0:
        return _quad(lambda x: x / math.sinh(x) if x != 0.0 else 1.0, 0.0, t)
    return _sh_series(t)


def _sh_series(t: float) -> QuadratureResult:
    tail = 0.0
    for m in (9.0, 7.0, 5.0, 3.0, 1.0):  # smallest first
        tail += math.exp(-m * t) * (t / m + 1.0 / (m * m))
    value = _PI2_OVER_4 - 2.0 * tail
    return QuadratureResult(value, 3.0 * math.ulp(value) + 1e-19, 0)


def _sin_defect_over_cube(u: float) -> float:
    """(u - sin u)/u^3 with the 1/6 limit; alternating series below u = 1/2."""
    if u >= 0.5:
        return (u - math.sin(u)) / u ** 3
    total = 0.0
    term = 1.0 / 6.0  # u^{2k}/(2k+3)! at k = 0
    u2 = u * u
    k = 0
    while abs(term) > 1e-18:
        total += term
        term *= -u2 / ((2 * k + 4) * (2 * k + 5))
        k += 1
    return total


def _cos_bound_integral(p: float, t: float) -> float:
    # integral of the trig bound family over [0, t]:
    #   t - (pt - sin pt)/(3 p^3)  ==  t - t^3 * defect(pt)/3
    if p == 0.0:
        return t - t ** 3 / 18.0
    return t - t ** 3 * _sin_defect_over_cube(p * t) / 3.0


def si_enclosure(t: float, p) -> Enclosure:
    """Two-sided closed form for Si(t) on 0 < t <= pi/2.

    Integrates the quartic-corrected sandwich; p = 0 selects the quadratic
    limit family t - t^3/18 + c t^5/5.
    """
    t = float(t)
    if not 0.0 < t <= _HALF_PI:
        raise ValueError(f"t must lie in (0, pi/2], got {t!r}")
    q = quartic_constants(p)  # validates p in [0, sqrt(3/5)]
    base = _cos_bound_integral(q.p, t)
    t5 = t ** 5 / 5.0
    return Enclosure(base + q.c_lo * t5, base + q.c_hi * t5)


def sh_enclosure(t: float) -> Enclosure:
    """Two-sided closed form for integral of x/sinh x over [0, t], t > 0.

    lo = sqrt3 log((r + e^-t)/(1 + r e^-t)), r = 2 + sqrt3, is taken as
    sqrt3 log1p((r - 1) d/(1 + r(1 - d))), d = -expm1(-t), and hi =
    2 sqrt15 (atan((5 e^{at} + 4)/3) - atan 3), a = sqrt(15)/5, as
    2 sqrt15 atan(tanh(at/2)/3).  Each is within 3 ulps of its exact value
    for t from 1e-300 to inf and is widened outward by 4 ulps.  t = inf gives
    half of trigamma(1/2).
    """
    t = float(t)
    if not t > 0.0:
        raise ValueError(f"t must be positive, got {t!r}")
    r = 2.0 + _SQRT3
    d = -math.expm1(-t)
    lo = _SQRT3 * math.log1p((r - 1.0) * d / (1.0 + r * (1.0 - d)))
    hi = 2.0 * _SQRT15 * math.atan(math.tanh(0.5 * _UPPER_EDGE * t) / 3.0)
    return Enclosure(lo - 4.0 * math.ulp(lo), hi + 4.0 * math.ulp(hi))


def trigamma_half_enclosure() -> Enclosure:
    """Encloses trigamma(1/2) = pi^2/2 between two elementary closed forms."""
    lo = 2.0 * _SQRT3 * math.log(2.0 + _SQRT3)
    hi = 2.0 * _SQRT15 * math.pi - 4.0 * _SQRT15 * math.atan(3.0)
    return Enclosure(lo, hi)


def catalan_enclosure() -> Enclosure:
    """Encloses Catalan's constant via half-integrals of x/sin x bounds."""
    th = _SQRT15 * math.pi / 10.0
    ct, st = math.cos(th), math.sin(th)
    lo = _SQRT15 / 4.0 * math.log((4.0 * ct + 3.0 * st + 5.0) / (4.0 * ct - 3.0 * st + 5.0))
    r2 = math.sqrt(2.0)
    a = 11.0 * math.sqrt(2.0 - r2)
    b = 3.0 * _SQRT15 * math.sqrt(r2 + 2.0)
    hi = _UPPER_EDGE * math.log((a + b + 32.0) / (a - b + 32.0))
    return Enclosure(lo, hi)


def bound_reciprocal_integrals() -> tuple[float, float]:
    """The two closed-form integrals of 1/bound over [0, pi/2] (lo, hi).

    These are exactly twice the Catalan enclosure endpoints and serve as
    cross-checks against direct quadrature.
    """
    e = catalan_enclosure()
    return 2.0 * e.lo, 2.0 * e.hi


def catalan_reference(terms: int) -> float:
    """Catalan's constant G = sum (-1)^k/(2k+1)^2 from n = min(terms, 21) terms
    of Algorithm 1 of Cohen, Rodriguez Villegas and Zagier (Experimental
    Math. 9, 2000).  1/(2k+1)^2 is the k-th moment of the positive weight
    -x^(-1/2) log(x)/4 on [0, 1], so the truncation error is at most
    2G/(3+sqrt8)^n, 1.5e-16 at n = 21; rounding adds at most 4 ulps, checked
    against mpmath for each n.  _catalan_error states the sum of the two.
    Every terms >= 21 gives the same double.
    """
    n = min(_count(terms, "terms", 1), 21)
    d = (3.0 + math.sqrt(8.0)) ** n
    d = (d + 1.0 / d) / 2.0
    b, c, s = -1.0, -d, 0.0
    for k in range(n):
        c = b - c
        s += c / (2 * k + 1) ** 2
        b = (k + n) * (k - n) * b / ((k + 0.5) * (k + 1))
    return s / d


def _catalan_error(terms: int, value: float) -> float:
    """The proven bound on |G - value|, value = catalan_reference(terms):
    2/(3+sqrt8)^n with n = min(terms, 21), as G < 1, plus 4 ulps of value."""
    return 2.0 / (3.0 + math.sqrt(8.0)) ** min(terms, 21) + 4.0 * math.ulp(value)
