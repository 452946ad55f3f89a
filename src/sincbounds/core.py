"""Parametric cosine/cosh bound families for sin(x)/x and sinh(x)/x.

The two families are

    trig:       (1/(3p^2)) cos(px)  + 1 - 1/(3p^2),   p in [0, 1]
    hyperbolic: (1/(3p^2)) cosh(px) + 1 - 1/(3p^2),   p >= 0

with the quadratic limits 1 -+ x^2/6 at p = 0.  The gap functions
sinc - bound and sinhc - bound vanish to fourth order at the origin, so
this module evaluates them through their even power series near 0 (with
a certified truncation bound) and directly elsewhere.

x is a number or an array, as _is_number tells, and each call converts it
once, before any branch and at the p -> 0 limits too: a number to a float,
anything else to a float64 array.  _converted does it, save in the hot
scalar paths of cos_bound and cosh_bound, which read x inline: 439 ns a
call against 492 ns through _converted (2-core Xeon).  _cos_family and
_cosh_family are the only expressions of the two families; a number runs
them with math and never imports numpy, an array with numpy, which the
array branches import for themselves.  Overflow is signalled, not returned
as inf: a result that overflows at a finite x raises OverflowError for a
number, whose message names the function and x also where math.sinh,
math.cosh or a power overflows inside it, and FloatingPointError for an
array; an infinite x where the result has no limit raises ValueError or
FloatingPointError.  sinhc_gap_scaled keeps its documented +inf.  Below
p = 0.45 the power forms take the half-angle form (see cos_power_bound).
A count (a series order, a number of terms) is an integer, a numpy one
too, with a least value; _count checks it for every function that takes one.
"""

from __future__ import annotations

import enum
import importlib
import math
import numbers
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

_EPS = math.ulp(1.0)
_LN2 = math.log(2.0)

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


def _count(n, name: str, least: int) -> int:
    """int(n) for an integer n (numpy's too) >= least, else a ValueError naming it."""
    if not (isinstance(n, numbers.Integral) and n >= least):
        raise ValueError(f"{name} must be an integer >= {least}, got {n!r}")
    return int(n)


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


def _is_number(x) -> bool:
    """The number-or-array rule: a float, an int or a 0-d value (x.ndim read
    first, as np.ndim does) is a number; anything else is an array."""
    if isinstance(x, (float, int)):
        return True
    try:
        return x.ndim == 0
    except AttributeError:
        import numpy as np
        return np.ndim(x) == 0


def _converted(x):
    """x converted once, with the namespace of its formulas: a float and
    math for a number, a float64 array and numpy otherwise."""
    if _is_number(x):
        return float(x), math
    import numpy as np
    return np.asarray(x, dtype=float), np


def _no_overflow(v, x, name: str, arg: str = "x"):
    """v, the scalar value of name at x (or at the argument arg); OverflowError if it overflowed."""
    if math.isinf(v) and math.isfinite(x):
        raise OverflowError(f"{name} overflows the double range at {arg}={x!r}")
    return v


def sinc(x):
    """sin(x)/x with the removable singularity filled in (1 at x = 0)."""
    x, xp = _converted(x)
    if xp is math:
        try:
            return math.sin(x) / x if x != 0.0 else 1.0
        except ValueError:  # math.sin at x = +-inf
            raise ValueError(f"sinc needs a finite x, got {x!r}") from None
    with xp.errstate(invalid="raise"):
        return xp.divide(xp.sin(x), x, out=xp.ones_like(x), where=x != 0.0)


def sinhc(x):
    """sinh(x)/x, 1 at x = 0.  Overflow is signalled, not silently inf."""
    x, xp = _converted(x)
    if xp is math:
        if math.isinf(x):
            raise ValueError(f"sinhc needs a finite x, got {x!r}")
        try:
            return math.sinh(x) / x if x != 0.0 else 1.0
        except OverflowError:  # math.sinh beyond the double range
            return _no_overflow(math.inf, x, "sinhc")
    with xp.errstate(over="raise", invalid="raise"):
        return xp.divide(xp.sinh(x), x, out=xp.ones_like(x), where=x != 0.0)


# below this the family is indistinguishable from its quadratic limit in
# doubles (difference <= p^2 x^4 / 72) and p*p starts to underflow
_LIMIT_FAMILY_CUTOFF = 1e-8

# below this p the power forms take the half-angle form; see cos_power_bound
_HALF_ANGLE_POWER = 0.45


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
    w = 2.0 / (3.0 * p * p)
    if w == 0.0:  # 3p^2 overflows (p above 7.7e153): 0 * s * s would lose s, or be nan at inf.
        # sinh(px/2)/p is (s/p)(2s), s = sinh(|px|/4), as sinh(2v) = 2 sinh(v)^2 in
        # doubles from v = 20, and finite where sinh(px/2) overflows; below, the sum is 1
        s = sinh(0.25 * abs(p * x))
        return 1.0 + 2.0 / 3.0 * (s / p * (2.0 * s)) ** 2
    s = sinh(0.5 * p * x)
    return 1.0 + w * s * s


def cos_bound(p, x):
    """Trig bound family (1/(3p^2)) cos(px) + 1 - 1/(3p^2); 1 - x^2/6 at p = 0."""
    p = _check(float(p), True)
    if _is_number(x):
        v = float(x)
        try:
            return _no_overflow(_cos_family(p, v), v, "cos_bound")
        except ValueError:  # math.sin at x = +-inf
            raise ValueError(f"cos_bound needs a finite x, got {v!r}") from None
    import numpy as np
    x = np.asarray(x, dtype=float)
    with np.errstate(over="raise", invalid="raise"):
        return _cos_family(p, x, np.sin)


def cosh_bound(p, x):
    """Hyperbolic bound family (1/(3p^2)) cosh(px) + 1 - 1/(3p^2); 1 + x^2/6 at p = 0."""
    p = _check(float(p), False)
    if _is_number(x):
        x = float(x)
        try:
            v = _cosh_family(p, x)
        except OverflowError:  # math.sinh beyond the double range
            v = math.inf
        return _no_overflow(v, x, "cosh_bound")
    import numpy as np
    x = np.asarray(x, dtype=float)
    with np.errstate(over="raise"):
        return _cosh_family(p, x, np.sinh)


def gap_series_coeff(n: int, c: float) -> float:
    """Coefficient 3 - (2n+1) c^(n-1) of the gap series, c = p^2 (n >= 1)."""
    n, c = _count(n, "n", 1), float(c)
    if not 0.0 <= c < math.inf:  # nan too
        raise ValueError(f"c must be >= 0 and finite, got {c!r}")
    try:
        v = 3.0 - (2 * n + 1) * c ** (n - 1)
    except OverflowError:  # c^(n-1), or an n beyond the floats
        v = -math.inf
    return _no_overflow(v, c, "gap_series_coeff", "c")


@dataclass(frozen=True)
class CoefficientSeq:
    """Gap-series coefficients for fixed c in (0, 3/5].

    On that range every term is nonnegative and for n >= 3 the consecutive
    ratio lies in (1, 11/5].
    """

    c: float

    def __post_init__(self):
        object.__setattr__(self, "c", float(self.c))  # a number, as MeanPoint holds floats
        if not 0.0 < self.c <= _C_MAX:
            raise ValueError(f"c must lie in (0, 3/5], got {self.c!r}")

    def term(self, n: int) -> float:
        return gap_series_coeff(n, self.c)

    def ratio_excess(self, n: int) -> float:
        """term(n+1)/term(n) - 1 for n >= 3, computed without cancellation."""
        n = _count(n, "n", 3)  # the ratio bracket is only claimed there
        num = self.c ** (n - 1) * ((2 * n + 1) - (2 * n + 3) * self.c)
        return num / self.term(n)


def _gap_series(p: float, x: float, hyperbolic: bool):
    """Even power series of the gap at |x| <= SERIES_SWITCH and p|x| <= 2.

    Returns (value, tail_bound).  tail_bound covers both the truncated tail
    (geometric majorant, consecutive majorants shrink by far more than 1/2
    here) and the accumulated rounding of coefficients and summation.

    The n-th term is (a - (2n+1) b) m: a = 3, b = c^(n-1), c = p^2 and
    m = x^(2n)/(3 (2n+1)!) up to p = 4; above, where c^(n-1) and c overflow,
    m = c^(n-1) x^(2n)/(3 (2n+1)!), steps by (px)^2, a = 3/c^(n-1), b = 1.
    """
    x2 = x * x
    if p <= 4.0:
        c = p * p
        m, a, b = x2 * x2 / 360.0, 3.0, c  # at n = 2
        m_step, a_step, b_step = x2, 1.0, c
    else:
        u2 = (p * x) ** 2
        inv_c = 1.0 / p / p  # 0 once p^2 overflows
        m, a, b = u2 * x2 / 360.0, 3.0 * inv_c, 1.0
        m_step, a_step, b_step = u2, inv_c, 1.0
    total = 0.0
    sign = 1.0
    round_acc = 0.0
    for n, k, nk, d in _SERIES_STEPS:
        majorant = m * (a + k * b)  # >= |a_n(c)| x^{2n}/(3(2n+1)!)
        if n >= 6 and majorant < 1e-20 * max(1.0, abs(total)):
            tail = 2.0 * majorant + 4.0 * _EPS * round_acc
            return total, tail
        term = (a - k * b) * m
        total += term if hyperbolic else sign * term
        round_acc += m * (a + nk * b)
        sign = -sign
        m *= m_step / d
        a *= a_step
        b *= b_step
    raise RuntimeError("gap series did not converge (x outside the series range?)")


def _gap(p: float, x, hyperbolic: bool, name: str) -> GapEvaluation:
    """sinc_gap or sinhc_gap at a validated p: even in x, evaluated at |x|,
    by the series where |x| <= SERIES_SWITCH and p|x| <= 2, else directly."""
    x = float(x)
    ax = abs(x)
    if ax <= SERIES_SWITCH and p * ax <= 2.0:
        value, tail = _gap_series(p, ax, hyperbolic)
        return GapEvaluation(x, value, _SERIES, tail)
    if not math.isfinite(ax):  # nan and inf both miss the series branch
        raise ValueError(f"{name} needs a finite x, got {x!r}")
    try:
        if not hyperbolic:
            value = math.sin(ax) / ax - _cos_family(p, ax)
        elif p <= 4.0:
            value = math.sinh(ax) / ax - _cosh_family(p, ax)
        else:  # (sinhc(x) - 1) - (2/3)(sinh(px/2)/p)^2; at px > 2 the second term is
            # over 1.38 times the first, so the two cancel at most 3.6-fold
            h = ax * ax / 6.0 + _gap_series(0.0, ax, True)[0] if ax <= SERIES_SWITCH else \
                math.sinh(ax) / ax - 1.0  # sinhc(x) - 1, the series its x^4 tail
            u = 0.5 * p * ax
            if u <= 710.0:
                s = math.sinh(u) / p
            else:  # sinh(u) overflows: (s/p)(2s), s = sinh(u/2), as in _cosh_family
                s = math.sinh(0.5 * u)
                s = s / p * (2.0 * s)
            value = h - 2.0 / 3.0 * s ** 2
    except OverflowError:  # math.sinh or the square beyond the double range
        value = math.inf
    return GapEvaluation(x, _no_overflow(value, x, name), _DIRECT)


def sinc_gap(p, x) -> GapEvaluation:
    """Gap sinc(x) - cos_bound(p, x), series path for |x| <= SERIES_SWITCH.

    Even in x; evaluated at |x|.  x is a number: an array raises TypeError.
    """
    return _gap(_check(float(p), True), x, False, "sinc_gap")


def sinhc_gap(p, x) -> GapEvaluation:
    """Gap sinhc(x) - cosh_bound(p, x), series path for |x| <= SERIES_SWITCH
    and p|x| <= 2 (a larger p|x| takes the direct form)."""
    return _gap(_check(float(p), False), x, True, "sinhc_gap")


def quartic_gap_coeff(p) -> float:
    """Limit of gap(x)/x^4 at 0 for either family: (3 - 5 p^2)/360.

    Vanishes at p = sqrt(15)/5, which is what makes that parameter the
    sharp edge on both sides.
    """
    p = _check(float(p), False)
    v = (3.0 - 5.0 * p * p) / 360.0
    if v == -math.inf:  # 5p^2 overflows; the 3/360 is below the last bit there
        v = _no_overflow(-(p / 72.0) * p, p, "quartic_gap_coeff", "p")
    return v


def cos_power_bound(p: float, x):
    """Power-form trig bound (cos px)^(1/(3p^2)) for p in (0, 1], cos(px) > 0.

    The power multiplies the rounding error of cos(px) by 1/(3p^2), so below
    p = 0.45 this is exp(log1p(-2 s^2)/(3p^2)), s = sin(px/2), as in
    _cos_family (log(cos px) where cos(px) <= 1/2), and cosh_power_bound is
    exp(log1p(2 s^2)/(3p^2)), s = sinh(px/2).  From p = 0.45, where every
    corpus and golden p lies, both keep the plain power and its bytes; one
    form for all p would move the remarks suite's output.
    """
    p = _check(float(p), True)
    if p <= 0.0:
        raise ValueError(f"p must be positive, got {p!r}")
    x, xp = _converted(x)
    if p <= _LIMIT_FAMILY_CUTOFF:  # p -> 0 limit is exp(-x^2/6), 0 where x^2 overflows
        with nullcontext() if xp is math else xp.errstate(over="ignore"):
            return xp.exp(-x * x / 6.0)
    with nullcontext() if xp is math else xp.errstate(invalid="raise"):
        try:
            cx = xp.cos(p * x)
        except ValueError:  # math.cos at x = +-inf
            raise ValueError(f"cos_power_bound needs a finite x, got {x!r}") from None
    if xp is math and cx <= 0.0:
        raise ValueError(f"cos(p*x) must be positive, got {cx!r} at x={x!r}")
    if xp is not math and xp.any(cx <= 0.0):
        raise ValueError("cos(p*x) must be positive on the whole grid")
    if p >= _HALF_ANGLE_POWER:
        return cx ** (1.0 / (3.0 * p * p))
    if xp is math:
        s = math.sin(0.5 * p * x)
        log_cx = math.log1p(-2.0 * s * s) if cx > 0.5 else math.log(cx)
    else:
        log_cx = xp.log(cx)
        near = cx > 0.5
        s = xp.sin(0.5 * p * x[near])
        log_cx[near] = xp.log1p(-2.0 * s * s)
    return xp.exp(log_cx / (3.0 * p * p))


def cosh_power_bound(p: float, x):
    """Power-form hyperbolic bound (cosh px)^(1/(3p^2)) for p > 0; below
    p = 0.45 in the half-angle form, see cos_power_bound.  Where |px| > 710,
    so that cosh(px) = e^|px|/2 overflows or nearly, it is exp(|x|/(3p) -
    ln2/(3p^2)): finite where the bound is, p = 1 and x = 800 among them."""
    p = _check(float(p), False)
    if p <= 0.0:
        raise ValueError(f"p must be positive, got {p!r}")
    x, xp = _converted(x)
    with nullcontext() if xp is math else xp.errstate(over="raise"):
        try:
            if p <= _LIMIT_FAMILY_CUTOFF:  # p -> 0 limit is exp(x^2/6)
                v = xp.exp(x * x / 6.0)
            elif p < _HALF_ANGLE_POWER:
                s = xp.sinh(0.5 * p * x)
                v = xp.exp(xp.log1p(2.0 * s * s) / (3.0 * p * p))
            else:
                # a NaN x is not near: nan ** 0 is 1 where 3p^2 overflows
                near = abs(x) <= 710.0 / p
                if xp is math:
                    v = math.cosh(p * x) ** (1.0 / (3.0 * p * p)) if near else \
                        math.exp(abs(x) / 3.0 / p - _LN2 / (3.0 * p * p))
                else:
                    v = xp.cosh(p * xp.where(near, x, 0.0)) ** (1.0 / (3.0 * p * p))
                    v[~near] = xp.exp(abs(x[~near]) / 3.0 / p - _LN2 / (3.0 * p * p))
        except OverflowError:  # math.exp, sinh, cosh or the float power beyond the double range
            v = math.inf
    return _no_overflow(v, x, "cosh_power_bound") if xp is math else v


def sinhc_gap_scaled(p, x):
    """exp(-px) * (sinhc(x) - cosh_bound(p, x)), stable for arbitrarily large x.

    Expanded so no term overflows until (1-p) x does, and none cancels at small p:

        e^{(1-p)x} (1 - e^{-2x})/(2x) - (1 - e^{-px})^2/(6p^2) - e^{-px}

    Limits at x -> inf: -1/(6p^2) for p > 1, -1/6 at p = 1, +inf for 0 < p < 1;
    x = inf gives the limit and a NaN x gives nan.  Returns +inf instead of
    overflowing when the first term exceeds double range.  An array's product
    that overflows is inf without a warning, as a number's is.
    """
    p = _check(float(p), False)
    if p <= _LIMIT_FAMILY_CUTOFF:
        raise ValueError("scaled gap needs p well above 0")
    x, xp = _converted(x)
    if (x <= 0.0) if xp is math else xp.any(x <= 0.0):
        raise ValueError("x must be positive")
    with nullcontext() if xp is math else xp.errstate(over="ignore"):
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
        # = w (1 + e^{-2px}) + (1 - 2w) e^{-px}, without its cancelling w and -2w
        v = grow - w * xp.expm1(-p * x) ** 2 - xp.exp(-p * x)
    if xp is math:
        return v
    out[kept] = v
    return out


# The one map from a member name to its function: a function of core, or of
# means after "means.".  member looks it up when it builds a member, never at
# import, so a wrapper put on the module sees every call.
FUNCTIONS = {"sinc": "sinc", "sinhc": "sinhc", "cos_bound": "cos_bound", "cosh_bound": "cosh_bound",
             "cos_power": "cos_power_bound", "cosh_power": "cosh_power_bound", "sinc_gap": "sinc_gap",
             "sinhc_gap": "sinhc_gap", "scaled_gap": "sinhc_gap_scaled",
             "mean_family": "means.mean_family", "log_mean": "means.log_mean"}


def member(name: str, p=None, label=None):
    """(id, function) of a name of FUNCTIONS: (name, function), or with p
    (name(label), partial(function, p)), the label p to 9 digits by default."""
    module, _, attr = FUNCTIONS[name].rpartition(".")
    fn = getattr(importlib.import_module(f"{__package__}.{module or 'core'}"), attr)
    if p is None:
        return name, fn
    return f"{name}({format(p, '.9g') if label is None else label})", partial(fn, p)


# (label, p) rows shared by the chains: the five members up to sqrt(15)/5,
# and the two above sinhc and the log mean
_LOW = (("1/sqrt3", 1.0 / math.sqrt(3.0)), ("2/3", 2.0 / 3.0), ("1/sqrt2", 1.0 / math.sqrt(2.0)),
        ("3/4", 0.75), ("sqrt15/5", _UPPER_EDGE))
_HIGH = (("1", 1.0), ("2/sqrt3", 2.0 / math.sqrt(3.0)))


def _chain(family, rows, target, at: int) -> list[tuple[str, object]]:
    """The members member(family, p, label), one per (label, p) row in
    order, with the member target at index at."""
    members = [member(family, p, label) for label, p in rows]
    members.insert(at, member(target))
    return members


def cos_chain_members() -> list[tuple[str, object]]:
    """The nine-member trig chain on (0, pi/2), increasing order."""
    above = (("sqrt(2/3)", math.sqrt(2.0 / 3.0)), ("sqrt3/2", math.sqrt(3.0) / 2.0), ("1", 1.0))
    return _chain("cos_bound", _LOW + above, "sinc", 4)


def cosh_chain_members() -> list[tuple[str, object]]:
    """The eight-member hyperbolic chain, increasing order."""
    return _chain("cosh_bound", _LOW + _HIGH, "sinhc", 5)


def mean_chain_members() -> list[tuple[str, object]]:
    """Family members below the log mean, then the log mean, then the two above."""
    rows = tuple((f"{p:.6g}", p) for _, p in _LOW) + _HIGH
    return _chain("mean_family", rows, "log_mean", 5)


# the theorems' domains in x; only verify_sharpness(SINHC_UPPER) looks past
# HYP_DOMAIN, a margin below cosh's overflow, by a scan of the scaled gap
TRIG_DOMAIN = (0.0, _HALF_PI)
HYP_DOMAIN = (0.0, 50.0)

# the fixed-parameter chains in x: name -> (members, domain)
CHAINS = {"m1c": (cos_chain_members, TRIG_DOMAIN), "m2c": (cosh_chain_members, (0.0, 20.0))}
