"""Parametric cosine/cosh bound families for sin(x)/x and sinh(x)/x.

The two families are

    trig:       (1/(3p^2)) cos(px)  + 1 - 1/(3p^2),   p in [0, 1]
    hyperbolic: (1/(3p^2)) cosh(px) + 1 - 1/(3p^2),   p >= 0

with the quadratic limits 1 -+ x^2/6 at p = 0.  The gap functions
sinc - bound and sinhc - bound vanish to fourth order at the origin, so
this module evaluates them through their even power series near 0 (with
a certified truncation bound) and directly elsewhere.

x is a number or an array, and each call converts it once, before any
branch and at the p -> 0 limits too: a number to a float, anything else
to a float64 array.  _cos_family and _cosh_family are the only
expressions of the two families; a number runs them with math and never
imports numpy, an array with numpy, which the array branches import for
themselves.  Overflow is signalled, not returned as inf: a result that
overflows at a finite x raises OverflowError for a number and
FloatingPointError for an array.  sinhc_gap_scaled keeps its documented
+inf.
"""

from __future__ import annotations

import enum
import math
from contextlib import nullcontext
from dataclasses import dataclass
from typing import NamedTuple

_EPS = math.ulp(1.0)

# Series/direct switch for the gap functions.  Below this |x| the direct
# subtraction loses ~4 digits (gap = O(x^4) against operands of size 1).
SERIES_SWITCH = 0.5

_SERIES_MAX_TERMS = 80

_HALF_PI = math.pi / 2.0

# sqrt(15)/5, the root of quartic_gap_coeff and the sharp edge of both families
_UPPER_EDGE = math.sqrt(15.0) / 5.0

# the certified range p^2 <= 3/5, with a small slack: squaring _UPPER_EDGE
# in doubles lands just above 3/5
_C_MAX = 0.6 * (1.0 + 1e-12)

# (n, 2n+1, n(2n+1), (2n+2)(2n+3)) for the series terms n = 2.._SERIES_MAX_TERMS;
# the integers are exact as floats, so each product rounds as with ints
_SERIES_STEPS = tuple((n, float(2 * n + 1), float(n * (2 * n + 1)), float((2 * n + 2) * (2 * n + 3)))
                      for n in range(2, _SERIES_MAX_TERMS + 1))


def _check(v: float, trig: bool) -> float:
    """v if it is a valid parameter of the trig (or hyperbolic) family."""
    if not math.isfinite(v) or v < 0.0:
        raise ValueError(f"parameter must be finite and >= 0, got {v!r}")
    if trig and v > 1.0:
        raise ValueError(f"trig family parameter must lie in [0, 1], got {v!r}")
    return v


class GapMethod(enum.Enum):
    SERIES = "series"
    DIRECT = "direct"


_SERIES, _DIRECT = GapMethod.SERIES, GapMethod.DIRECT


class GapEvaluation(NamedTuple):
    """One gap evaluation; for the series path |true - value| <= tail_bound."""

    x: float
    value: float
    method: GapMethod
    tail_bound: float = 0.0


def _zero_dim(x) -> bool:
    """Whether x, which is not a float or int, still takes the scalar path:
    np.ndim(x) == 0, reading x.ndim first as np.ndim itself does."""
    try:
        return x.ndim == 0
    except AttributeError:
        import numpy as np
        return np.ndim(x) == 0


def _no_overflow(v, x, name: str):
    """v, the scalar value of name at x; OverflowError if it overflowed."""
    if math.isinf(v) and math.isfinite(x):
        raise OverflowError(f"{name} overflows the double range at x={x!r}")
    return v


def sinc(x):
    """sin(x)/x with the removable singularity filled in (1 at x = 0)."""
    if isinstance(x, (float, int)) or _zero_dim(x):
        x = float(x)
        return math.sin(x) / x if x != 0.0 else 1.0
    import numpy as np
    x = np.asarray(x, dtype=float)
    return np.divide(np.sin(x), x, out=np.ones_like(x), where=x != 0.0)


def sinhc(x):
    """sinh(x)/x, 1 at x = 0.  Overflow is signalled, not silently inf."""
    if isinstance(x, (float, int)) or _zero_dim(x):
        x = float(x)
        return math.sinh(x) / x if x != 0.0 else 1.0
    import numpy as np
    x = np.asarray(x, dtype=float)
    with np.errstate(over="raise"):
        return np.divide(np.sinh(x), x, out=np.ones_like(x), where=x != 0.0)


# below this the family is indistinguishable from its quadratic limit in
# doubles (difference <= p^2 x^4 / 72) and p*p starts to underflow
_LIMIT_FAMILY_CUTOFF = 1e-8


def _cos_family(p: float, x, sin=math.sin):
    """cos_bound(p, x) for a validated p and a float x (or, with sin=np.sin,
    a float64 array x); may overflow to -inf.

    Written as 1 - (2/(3p^2)) sin^2(px/2): no cancellation for small px and
    the p -> 0 limit is reached smoothly.
    """
    if p <= _LIMIT_FAMILY_CUTOFF:
        return 1.0 - x * x / 6.0
    s = sin(0.5 * p * x)
    return 1.0 - 2.0 / (3.0 * p * p) * s * s


def _cosh_family(p: float, x, sinh=math.sinh):
    """cosh_bound(p, x) for a validated p and a float x (or, with an
    elementwise sinh, a float64 array x); may overflow to inf."""
    if p <= _LIMIT_FAMILY_CUTOFF:
        return 1.0 + x * x / 6.0
    s = sinh(0.5 * p * x)
    return 1.0 + 2.0 / (3.0 * p * p) * s * s


def cos_bound(p, x):
    """Trig bound family (1/(3p^2)) cos(px) + 1 - 1/(3p^2); 1 - x^2/6 at p = 0."""
    p = _check(float(p), True)
    if isinstance(x, (float, int)) or _zero_dim(x):
        return _no_overflow(_cos_family(p, float(x)), x, "cos_bound")
    import numpy as np
    x = np.asarray(x, dtype=float)
    with np.errstate(over="raise"):
        return _cos_family(p, x, np.sin)


def cosh_bound(p, x):
    """Hyperbolic bound family (1/(3p^2)) cosh(px) + 1 - 1/(3p^2); 1 + x^2/6 at p = 0."""
    p = _check(float(p), False)
    if isinstance(x, (float, int)) or _zero_dim(x):
        return _no_overflow(_cosh_family(p, float(x)), x, "cosh_bound")
    import numpy as np
    x = np.asarray(x, dtype=float)
    with np.errstate(over="raise"):
        return _cosh_family(p, x, np.sinh)


def gap_series_coeff(n: int, c: float) -> float:
    """Coefficient 3 - (2n+1) c^(n-1) of the gap series, c = p^2 (n >= 1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if c < 0.0:
        raise ValueError("c must be >= 0")
    return 3.0 - (2 * n + 1) * c ** (n - 1)


@dataclass(frozen=True)
class CoefficientSeq:
    """Gap-series coefficients for fixed c in (0, 3/5].

    On that range every term is nonnegative and for n >= 3 the consecutive
    ratio lies in (1, 11/5].
    """

    c: float

    def __post_init__(self):
        if not 0.0 < self.c <= _C_MAX:
            raise ValueError(f"c must lie in (0, 3/5], got {self.c!r}")

    def term(self, n: int) -> float:
        return gap_series_coeff(n, self.c)

    def ratio_excess(self, n: int) -> float:
        """term(n+1)/term(n) - 1 for n >= 3, computed without cancellation."""
        if n < 3:
            raise ValueError("ratio bracket only claimed for n >= 3")
        num = self.c ** (n - 1) * ((2 * n + 1) - (2 * n + 3) * self.c)
        return num / self.term(n)

    def __iter__(self):
        n = 1
        while True:
            yield self.term(n)
            n += 1


def _gap_series(p: float, x: float, hyperbolic: bool):
    """Even power series of the gap at |x| <= SERIES_SWITCH.

    Returns (value, tail_bound).  tail_bound covers both the truncated tail
    (geometric majorant, consecutive majorants shrink by far more than 1/2
    here) and the accumulated rounding of coefficients and summation.
    """
    c = p * p
    x2 = x * x
    m = x2 * x2 / 360.0  # x^{2n} / (3 (2n+1)!) at n = 2
    cp = c               # c^{n-1} at n = 2
    total = 0.0
    sign = 1.0
    round_acc = 0.0
    for n, k, nk, d in _SERIES_STEPS:
        majorant = m * (3.0 + k * cp)  # >= |a_n(c)| x^{2n}/(3(2n+1)!)
        if n >= 6 and majorant < 1e-20 * max(1.0, abs(total)):
            tail = 2.0 * majorant + 4.0 * _EPS * round_acc
            return total, tail
        term = (3.0 - k * cp) * m
        total += term if hyperbolic else sign * term
        round_acc += m * (3.0 + nk * cp)
        sign = -sign
        m *= x2 / d
        cp *= c
    raise RuntimeError("gap series did not converge (x outside the series range?)")


def sinc_gap(p, x) -> GapEvaluation:
    """Gap sinc(x) - cos_bound(p, x), series path for |x| <= SERIES_SWITCH.

    Even in x; evaluated at |x|.
    """
    p = _check(float(p), True)
    x = float(x)
    ax = abs(x)
    if ax <= SERIES_SWITCH:
        value, tail = _gap_series(p, ax, hyperbolic=False)
        return GapEvaluation(x, value, _SERIES, tail)
    if not math.isfinite(ax):  # nan and inf both miss the series branch
        raise ValueError(f"x must be finite, got {x!r}")
    value = math.sin(ax) / ax - _cos_family(p, ax)
    return GapEvaluation(x, _no_overflow(value, x, "sinc_gap"), _DIRECT)


def sinhc_gap(p, x) -> GapEvaluation:
    """Gap sinhc(x) - cosh_bound(p, x), series path for |x| <= SERIES_SWITCH."""
    p = _check(float(p), False)
    x = float(x)
    ax = abs(x)
    if ax <= SERIES_SWITCH:
        value, tail = _gap_series(p, ax, hyperbolic=True)
        return GapEvaluation(x, value, _SERIES, tail)
    if not math.isfinite(ax):  # nan and inf both miss the series branch
        raise ValueError(f"x must be finite, got {x!r}")
    value = math.sinh(ax) / ax - _cosh_family(p, ax)
    return GapEvaluation(x, _no_overflow(value, x, "sinhc_gap"), _DIRECT)


def quartic_gap_coeff(p) -> float:
    """Limit of gap(x)/x^4 at 0 for either family: (3 - 5 p^2)/360.

    Vanishes at p = sqrt(15)/5, which is what makes that parameter the
    sharp edge on both sides.
    """
    p = _check(float(p), False)
    return (3.0 - 5.0 * p * p) / 360.0


def _converted(x):
    """x converted once, with the namespace of its formulas: a float and
    math for a number, a float64 array and numpy otherwise."""
    if isinstance(x, (float, int)) or _zero_dim(x):
        return float(x), math
    import numpy as np
    return np.asarray(x, dtype=float), np


def cos_power_bound(p: float, x):
    """Power-form trig bound (cos px)^(1/(3p^2)) for p in (0, 1], cos(px) > 0."""
    p = float(p)
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must lie in (0, 1], got {p!r}")
    x, xp = _converted(x)
    if p <= _LIMIT_FAMILY_CUTOFF:  # p -> 0 limit is exp(-x^2/6)
        return xp.exp(-x * x / 6.0)
    cx = xp.cos(p * x)
    if xp is math and cx <= 0.0:
        raise ValueError(f"cos(p*x) must be positive, got {cx!r} at x={x!r}")
    if xp is not math and xp.any(cx <= 0.0):
        raise ValueError("cos(p*x) must be positive on the whole grid")
    return cx ** (1.0 / (3.0 * p * p))


def cosh_power_bound(p: float, x):
    """Power-form hyperbolic bound (cosh px)^(1/(3p^2)) for p > 0."""
    p = _check(float(p), False)
    if p <= 0.0:
        raise ValueError(f"p must be positive, got {p!r}")
    x, xp = _converted(x)
    with nullcontext() if xp is math else xp.errstate(over="raise"):
        if p <= _LIMIT_FAMILY_CUTOFF:  # p -> 0 limit is exp(x^2/6)
            v = xp.exp(x * x / 6.0)
        else:
            v = xp.cosh(p * x) ** (1.0 / (3.0 * p * p))
    return _no_overflow(v, x, "cosh_power_bound") if xp is math else v


def sinhc_gap_scaled(p, x):
    """exp(-px) * (sinhc(x) - cosh_bound(p, x)), stable for arbitrarily large x.

    Expanded so no term overflows until (1-p) x does:

        e^{(1-p)x} (1 - e^{-2x})/(2x) - (1 + e^{-2px})/(6p^2) - (1 - 1/(3p^2)) e^{-px}

    Limits at x -> inf: -1/(6p^2) for p > 1, -1/6 at p = 1, +inf for 0 < p < 1;
    x = inf gives the limit and a NaN x gives nan.  Returns +inf instead of
    overflowing when the first term exceeds double range.
    """
    p = _check(float(p), False)
    if p <= _LIMIT_FAMILY_CUTOFF:
        raise ValueError("scaled gap needs p well above 0")
    x, xp = _converted(x)
    if (x <= 0.0) if xp is math else xp.any(x <= 0.0):
        raise ValueError("x must be positive")
    if p == 1.0:  # (1-p)x is 0 * inf = nan at x = inf, where the limit is -1/6
        t = 0.0 if xp is math else xp.zeros_like(x)
    else:
        t = (1.0 - p) * x
    if xp is math:
        if t > 700.0:
            return math.inf
    else:
        # only the kept points are computed: on the far grids of the
        # sharpness scan most points lie past the cut; a NaN x is kept
        out = xp.full_like(x, xp.inf)
        kept = ~(t > 700.0)
        x, t = x[kept], t[kept]
    w = 1.0 / (6.0 * p * p)
    grow = xp.exp(t) * -xp.expm1(-2.0 * x) / (2.0 * x)
    v = grow - w * (1.0 + xp.exp(-2.0 * p * x)) - (1.0 - 2.0 * w) * xp.exp(-p * x)
    if xp is math:
        return v
    out[kept] = v
    return out
