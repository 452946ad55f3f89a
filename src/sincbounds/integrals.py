"""Closed-form enclosures for the sine integral, int x/sinh x, the trigamma
value at 1/2, and Catalan's constant, each paired with an independent
quadrature or series oracle.

Every enclosure comes from integrating a two-sided family bound, so the
endpoints are elementary closed forms; the oracles are adaptive quadrature
(Gauss-Kronrod via scipy), an accelerated alternating series, or, for the
x/sinh x integral to infinity, the closed form pi^2/4.

scipy is imported only when a quadrature oracle runs: si_reference,
sh_reference, the propositions suite of the corpus, and the CLI's
`special --name si|sh`. Every other entry point leaves it unloaded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import quartic_constants

_HALF_PI = math.pi / 2.0
_SQRT3 = math.sqrt(3.0)
_SQRT15 = math.sqrt(15.0)
_UPPER_EDGE = _SQRT15 / 5.0

ERROR_BUDGET = 1e-12


class QuadratureBudgetError(RuntimeError):
    """Raised when adaptive quadrature cannot meet the error budget."""


@dataclass(frozen=True)
class Enclosure:
    """Closed interval [lo, hi] certifying lo <= value <= hi.

    lo and hi may also be equal-shape arrays, one interval per element (as
    means.log_mean_sandwich returns for an array pair); contains then
    returns a boolean array.
    """

    lo: float
    hi: float

    def __post_init__(self):
        ordered = self.lo <= self.hi
        if not (ordered.all() if isinstance(ordered, np.ndarray) else ordered):
            raise ValueError(f"empty enclosure: [{self.lo!r}, {self.hi!r}]")

    def contains(self, value: float, slack: float = 0.0) -> bool:
        return (self.lo - slack <= value) & (value <= self.hi + slack)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int


def _quad(f, a: float, b: float) -> QuadratureResult:
    # Imported per call (a sys.modules lookup once loaded), so scipy costs
    # nothing to processes that never integrate, and a quad patched onto
    # scipy.integrate after this module loaded is still the one called.
    from scipy.integrate import quad

    out = quad(f, a, b, epsabs=1e-13, epsrel=1e-13, full_output=1)
    value, abserr, info = out[0], out[1], out[2]
    if len(out) > 3 or abserr > ERROR_BUDGET:
        raise QuadratureBudgetError(
            f"quadrature error estimate {abserr!r} above budget {ERROR_BUDGET!r}"
        )
    return QuadratureResult(value, abserr, info["neval"])


def si_reference(t: float) -> QuadratureResult:
    """Si(t) = integral of sin(x)/x over [0, t] by adaptive quadrature."""
    t = float(t)
    if not 0.0 <= t <= 10.0:
        raise ValueError(f"t must lie in [0, 10], got {t!r}")
    if t == 0.0:
        return QuadratureResult(0.0, 0.0, 0)
    return _quad(lambda x: math.sin(x) / x if x != 0.0 else 1.0, 0.0, t)


def sh_reference(t: float) -> QuadratureResult:
    """integral of x/sinh(x) over [0, t] by adaptive quadrature.

    t = inf gives the closed form pi^2/4, half of trigamma(1/2), with no
    evaluations; its error estimate of 2 ulps bounds the rounding of pi^2/4.
    """
    t = float(t)
    if t == math.inf:
        value = math.pi ** 2 / 4.0
        return QuadratureResult(value, 2.0 * math.ulp(value), 0)
    if not 0.0 <= t <= 50.0:
        raise ValueError(f"t must lie in [0, 50], got {t!r}")
    if t == 0.0:
        return QuadratureResult(0.0, 0.0, 0)
    return _quad(lambda x: x / math.sinh(x) if x != 0.0 else 1.0, 0.0, t)


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

    t = inf is allowed and gives the analytic limits; the value there is
    half of trigamma(1/2).
    """
    t = float(t)
    if not t > 0.0:
        raise ValueError(f"t must be positive, got {t!r}")
    # lower: sqrt(3) * [log(2+sqrt3) + log1p((2-sqrt3) e^-t) - log1p((2+sqrt3) e^-t)]
    et = math.exp(-t) if t != math.inf else 0.0
    lo = _SQRT3 * (
        math.log(2.0 + _SQRT3)
        + math.log1p((2.0 - _SQRT3) * et)
        - math.log1p((2.0 + _SQRT3) * et)
    )
    # upper: 2 sqrt(15) * [atan((5 e^{at} + 4)/3) - atan 3], a = sqrt(15)/5
    at = _UPPER_EDGE * t
    if at > 500.0:  # atan argument beyond any double resolution of pi/2
        lead = _HALF_PI
    else:
        lead = math.atan((5.0 * math.exp(at) + 4.0) / 3.0)
    hi = 2.0 * _SQRT15 * (lead - math.atan(3.0))
    return Enclosure(lo, hi)


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
    hi = _SQRT15 / 5.0 * math.log((a + b + 32.0) / (a - b + 32.0))
    return Enclosure(lo, hi)


def bound_reciprocal_integrals() -> tuple[float, float]:
    """The two closed-form integrals of 1/bound over [0, pi/2] (lo, hi).

    These are exactly twice the Catalan enclosure endpoints and serve as
    cross-checks against direct quadrature.
    """
    e = catalan_enclosure()
    return 2.0 * e.lo, 2.0 * e.hi


def _alternating_terms(start: int, stop: int) -> np.ndarray:
    """(-1)^k / (2k+1)^2 for start <= k < stop.

    Negating every odd term after the division equals dividing -1 by the
    square bit for bit, since rounding is symmetric in sign; it avoids an
    elementwise float pow.
    """
    k = np.arange(start, stop, dtype=float)
    t = 1.0 / (2.0 * k + 1.0) ** 2
    t[(start + 1) % 2::2] *= -1.0  # the odd k
    return t


def catalan_reference(terms: int) -> float:
    """Partial sum of sum (-1)^n / (2n+1)^2 with iterated averaging.

    Before acceleration the alternating-series remainder is below
    1/(2*terms)^2; the averaging of the last partial sums pushes this to
    ~1e-15 once a few dozen terms are available.
    """
    terms = int(terms)
    if terms < 1:
        raise ValueError("terms must be >= 1")
    if terms <= 2:
        return sum((-1.0) ** k / (2 * k + 1) ** 2 for k in range(terms))
    window = min(terms, 48)
    base = terms - window
    head = float(np.sum(_alternating_terms(0, base)))
    tail_terms = _alternating_terms(base, terms)
    partials = head + np.cumsum(tail_terms)
    while partials.size > 1:
        partials = 0.5 * (partials[:-1] + partials[1:])
    return float(partials[0])
