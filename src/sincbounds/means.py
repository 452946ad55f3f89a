"""Bivariate means and the sharp inequalities between them.

Classical means (geometric, logarithmic, Schwab-Borchardt) plus the
one-parameter family

    M_p(a, b) = (1/(3p^2)) A_p^p G^{1-p} + (1 - 1/(3p^2)) G

which sandwiches the logarithmic mean between p = sqrt(15)/5 and p = 1.
The family equals G * cosh_bound(p, x) at x = (1/2) ln(a/b), which is how
it is evaluated here (stable at a ~ b, smooth at p = 0, even in p).  The
logarithmic mean is (a - b)/(2x) at the same x, so the half log ratio is
the one place that chooses how to take the log.  No mean takes a series
near a = b: its log1p and asin forms are accurate up to a = b itself.

The pair argument m is a MeanPoint, itself an (a, b) pair already
validated, or an (a, b) pair read by core's rule: two numbers (each a
float, an int or 0-d), or else two equal-length 1-D arrays, lists or
tuples, taken as float64 arrays.  For an array pair, geometric_mean,
half_log_ratio, log_mean, sb_mean, sb_lower_bound and mean_family return an
array of the values, one per element pair, and log_mean_sandwich returns
one Enclosure whose lo and hi are arrays.  Each call validates its input
once by the one pair rule, _pair_ok (finite and positive; a >= 0, b > 0 for
the Schwab-Borchardt pair), and then runs one kernel: the scalar kernel for
numbers, the array kernel for arrays.  A bad number pair or MeanPoint
raises _number_pair's "need finite and positive arguments, got (a, b)", and
an array pair the same for its first bad pair, with " at index i".  The two
kernels take the same branches; the array kernels run numpy's ufuncs where
the scalar kernels call the C library, so the two may differ in the last
bits.  The contract, in ulps of the scalar result:

- geometric_mean, half_log_ratio, log_mean, sb_mean and sb_lower_bound:
  within 4 ulps;
- mean_family(p, .) and both ends of log_mean_sandwich (p = sqrt(15)/5
  and p = 1): within 8 + 2|p|x ulps, x = |half_log_ratio|.  The family's
  condition in x, |p|x coth(|p|x/2) <= 2 + |p|x, carries the last-bit
  difference of x into the mean.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

from .core import (_EDGE_BELOW, _LIMIT_FAMILY_CUTOFF, _UPPER_EDGE, _check, _checked_make, _cosh_family,
                   _count, _is_number, _no_overflow, cosh_bound)
from .integrals import Enclosure

_INV_SQRT5 = 1.0 / math.sqrt(5.0)
_SB_SCALE = 8.0 * math.sqrt(2.0) / 27.0
_MIN_NORMAL = sys.float_info.min


def _pair_ok(a, b, sb: bool, xp=math):
    """The pair rule, a and b finite and positive (a >= 0 with sb=True): for
    two floats with xp=math, elementwise for two arrays with xp=np."""
    return xp.isfinite(a) & xp.isfinite(b) & (b > 0.0) & ((a >= 0.0) if sb else (a > 0.0))


def _number_pair(a, b, sb: bool = False, where: str = "") -> tuple[float, float]:
    """(a, b) as floats; ValueError if they break the pair rule."""
    a, b = float(a), float(b)
    if not _pair_ok(a, b, sb):
        need = "a >= 0 and b > 0" if sb else "finite and positive arguments"
        raise ValueError(f"need {need}, got ({a!r}, {b!r}){where}")
    return a, b


class MeanPoint(NamedTuple("MeanPoint", [("a", float), ("b", float)])):
    """A pair of positive reals, held as floats: an (a, b) pair already validated."""

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, a: float, b: float):
        return super().__new__(cls, *_number_pair(a, b))  # as _apply reads two numbers


def _array_pair(a, b, sb: bool) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) as float64 arrays; _number_pair's ValueError for the first bad pair, and its index."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError(f"an array pair needs two 1-D arrays of one length, "
                         f"got shapes {a.shape} and {b.shape}")
    ok = _pair_ok(a, b, sb, np)
    if not ok.all():
        i = int(np.argmin(ok))
        _number_pair(a[i], b[i], sb, f" at index {i}")  # raises
    return a, b


def _apply(m, scalar_kernel, array_kernel, *args, sb: bool = False):
    """Validate m once by the pair rule, then run the kernel of its form."""
    if isinstance(m, MeanPoint):  # validated on construction
        return scalar_kernel(m.a, m.b, *args)
    a, b = m
    if _is_number(a) and _is_number(b):  # core's rule
        return scalar_kernel(*_number_pair(a, b, sb), *args)
    a, b = _array_pair(a, b, sb)
    # overflow, inf/inf and the like give the same inf or nan as in the
    # scalar kernels; numpy would also warn about them
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return array_kernel(a, b, *args)


# ------------------------------------------------------------- scalar kernels

def _geo(a: float, b: float) -> float:
    ab = a * b
    if math.isfinite(ab) and ab >= _MIN_NORMAL:
        return math.sqrt(ab)
    # a*b overflowed, or underflowed into the subnormals and lost bits
    return math.sqrt(a) * math.sqrt(b)


def _half_log_ratio(a: float, b: float) -> float:
    q = a / b
    if 0.5 < q < 2.0:
        return 0.5 * math.log1p((a - b) / b)
    # log(q) where q is normal; ln a - ln b cancels at large a
    if _MIN_NORMAL <= q < math.inf:
        return 0.5 * math.log(q)
    return 0.5 * (math.log(a) - math.log(b))


def _log_mean(a: float, b: float) -> float:
    if a == b:
        return a
    # L = (a - b)/(2x) at x, the half log ratio, where the log is chosen; 2x is exact
    return (a - b) / (2.0 * _half_log_ratio(a, b))


def _sb_mean(a: float, b: float) -> float:
    if a == b:
        return b
    u = (b - a) / b
    if u > 0.0:
        # arccos(1-u) = 2 asin(sqrt(u/2)); libm acos itself drifts ~1e-13 near 1
        return b * math.sqrt(u * (2.0 - u)) / (2.0 * math.asin(math.sqrt(0.5 * u)))
    e = -u
    # arccosh(1+e) = log1p(e + sqrt(e(2+e))), exact for small e
    t = math.sqrt(e * (2.0 + e))
    v = b * t / math.log1p(e + t)
    return v if math.isfinite(v) else _sb_mean_far(a, b)


def _sb_mean_far(a, b, xp=math):
    """sb_mean for a > b where e = a/b - 1 or e(2+e) overflows (a/b above
    about 1.3e154): sqrt(a^2-b^2) = a s and arccosh(a/b) = ln a - ln b +
    log1p(s), s = sqrt(1 - (b/a)^2).  Floats with xp=math, arrays with
    xp=np."""
    r = b / a
    s = xp.sqrt(1.0 - r * r)
    return a * s / ((xp.log(a) - xp.log(b)) + xp.log1p(s))


def _sb_lower_bound(a: float, b: float) -> float:
    inner = (2.0 * a - b) * math.sqrt(0.5 * (a + b)) + b * math.sqrt(b)
    v = _SB_SCALE * math.sqrt(inner) * b ** 0.25 + 11.0 * b / 27.0
    return v if math.isfinite(v) and inner >= _MIN_NORMAL else _sb_lower_bound_scaled(a, b)


def _sb_lower_bound_scaled(a: float, b: float) -> float:
    """_sb_lower_bound where the inner term leaves the normal range.

    The inner term is homogeneous of degree 3/2, so it is taken on (a, b)
    2^(-4k), with max(a, b) 2^(-4k) in [1/2, 8), and its square root is
    scaled back by 2^(3k).  b^(1/4) and (11/27) b keep the unscaled b, which
    the scaling could push below the double range; 11 b would overflow.
    """
    k = math.frexp(max(a, b))[1] // 4
    x, y = math.ldexp(a, -4 * k), math.ldexp(b, -4 * k)
    inner = (2.0 * x - y) * math.sqrt(0.5 * (x + y)) + y * math.sqrt(y)
    return _SB_SCALE * math.ldexp(math.sqrt(inner), 3 * k) * b ** 0.25 + 11.0 / 27.0 * b


def _family_times(g: float, p: float, x: float) -> float:
    """g * _cosh_family(p, x), the family mean at G = g, kept in range.

    Where the product overflows but the mean does not (a tiny G, a far
    pair) it is G + (sqrt(G w) sinh(y))^2, w = 2/(3p^2), y = px/2, with
    sinh(y) = h (h/2), h = exp(y/2), where sinh(y) itself overflows.  A mean
    beyond the double range stays inf, or raises OverflowError where sinh(y)
    overflows, as the unscaled form does.  Uses core's kernel, not
    cosh_bound, which raises where the family factor alone overflows.
    """
    try:
        v = g * _cosh_family(p, x)
    except OverflowError:  # sinh(y) beyond the double range
        v = _scaled_family(g, p, x, True)
        if v == math.inf:
            raise
        return v
    if v == math.inf and p > _LIMIT_FAMILY_CUTOFF:
        v = _scaled_family(g, p, x, False)
    return v


def _scaled_family(g: float, p: float, x: float, sinh_overflows: bool) -> float:
    y = 0.5 * p * x
    if y == math.inf:  # p*x beyond the double range, where r below may underflow to 0
        return math.inf
    r = math.sqrt(g) * math.sqrt(2.0 / (3.0 * p * p))
    if sinh_overflows:
        h = math.exp(0.5 * y)  # sinh(y) = h * h / 2 in doubles once y > 19
        r = r * h * (0.5 * h)
    else:
        r *= math.sinh(y)
    return g + r * r


def _mean_family(a: float, b: float, p: float) -> float:
    return _family_times(_geo(a, b), p, abs(_half_log_ratio(a, b)))


def _log_mean_sandwich(a: float, b: float) -> Enclosure:
    if a == b:
        return Enclosure(a, a)
    g = _geo(a, b)
    x = abs(_half_log_ratio(a, b))
    lo = _family_times(g, _EDGE_BELOW, x)
    hi = _family_times(g, 1.0, x)
    return Enclosure(lo - 16.0 * math.ulp(lo), hi + 16.0 * math.ulp(hi))


# -------------------------------------------------------------- array kernels
# Each mirrors the scalar kernel above: one mask per branch, tested in the
# same order, and the same operations in the same order inside each branch,
# with numpy's ufuncs for the C library's functions.  The rare rescues
# (_family_times where the product overflows, _sb_lower_bound_scaled) run
# the scalar kernel on the elements that need them.

def _geo_arrays(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    ab = a * b
    out = np.sqrt(ab)
    wide = ~(np.isfinite(ab) & (ab >= _MIN_NORMAL))
    out[wide] = np.sqrt(a[wide]) * np.sqrt(b[wide])
    return out


def _half_log_ratio_arrays(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.empty_like(a)
    q = a / b
    near = (0.5 < q) & (q < 2.0)
    far = ~near
    wide = far & ~((_MIN_NORMAL <= q) & (q < np.inf))
    an, bn = a[near], b[near]
    out[near] = 0.5 * np.log1p((an - bn) / bn)
    out[far] = 0.5 * np.log(q[far])
    out[wide] = 0.5 * (np.log(a[wide]) - np.log(b[wide]))
    return out


def _log_mean_arrays(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # the whole pair, then a = b (0/0 there) overwritten; cheaper than a gather
    out = (a - b) / (2.0 * _half_log_ratio_arrays(a, b))
    eq = a == b
    out[eq] = a[eq]
    return out


def _sb_mean_arrays(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = b.copy()  # a = b, where u = 0
    u = (b - a) / b
    circ = u > 0.0
    hyp = u < 0.0
    uc = u[circ]
    out[circ] = b[circ] * np.sqrt(uc * (2.0 - uc)) / (2.0 * np.arcsin(np.sqrt(0.5 * uc)))
    e = -u[hyp]
    t = np.sqrt(e * (2.0 + e))
    out[hyp] = b[hyp] * t / np.log1p(e + t)
    far = ~np.isfinite(out)
    out[far] = _sb_mean_far(a[far], b[far], np)
    return out


def _sb_lower_bound_arrays(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    inner = (2.0 * a - b) * np.sqrt(0.5 * (a + b)) + b * np.sqrt(b)
    out = _SB_SCALE * np.sqrt(inner) * b ** 0.25 + 11.0 * b / 27.0
    odd = ~(np.isfinite(out) & (inner >= _MIN_NORMAL))
    out[odd] = [_sb_lower_bound_scaled(x, y) for x, y in zip(a[odd].tolist(), b[odd].tolist())]
    return out


def _family_times_arrays(g: np.ndarray, p: float, x: np.ndarray) -> np.ndarray:
    """_family_times of each element: the product, and the scalar kernel
    where that overflows (np.sinh gives inf where math.sinh raises)."""
    v = g * _cosh_family(p, x, np.sinh)
    over = np.isinf(v)
    v[over] = [_family_times(y, p, z) for y, z in zip(g[over].tolist(), x[over].tolist())]
    return v


def _mean_family_arrays(a: np.ndarray, b: np.ndarray, p: float) -> np.ndarray:
    return _family_times_arrays(_geo_arrays(a, b), p, np.abs(_half_log_ratio_arrays(a, b)))


def _log_mean_sandwich_arrays(a: np.ndarray, b: np.ndarray) -> Enclosure:
    g = _geo_arrays(a, b)
    x = np.abs(_half_log_ratio_arrays(a, b))
    lo = _family_times_arrays(g, _EDGE_BELOW, x)
    hi = _family_times_arrays(g, 1.0, x)
    # both ends lie in [G, max(a, b)], so their spacing is finite
    lo = lo - 16.0 * np.spacing(lo)
    hi = hi + 16.0 * np.spacing(hi)
    eq = a == b
    lo[eq] = hi[eq] = a[eq]
    return Enclosure(lo, hi)


# -------------------------------------------------------------------- the API

def geometric_mean(m):
    """sqrt(a b), kept accurate where a*b overflows or is subnormal."""
    return _apply(m, _geo, _geo_arrays)


def half_log_ratio(m):
    """0.5 * ln(a/b), via log1p when the pair is nearly equal."""
    return _apply(m, _half_log_ratio, _half_log_ratio_arrays)


def log_mean(m):
    """(a - b)/(ln a - ln b), a at a = b; (a - b)/(2 half_log_ratio) elsewhere."""
    return _apply(m, _log_mean, _log_mean_arrays)


def sb_mean(m):
    """Schwab-Borchardt mean: sqrt(b^2-a^2)/arccos(a/b) for a < b, a at a = b,
    sqrt(a^2-b^2)/arccosh(a/b) for a > b.  Not symmetric in (a, b); unlike
    the other means, a = 0 is admitted (value 2b/pi).

    With u = 1 - a/b, arccos(a/b) is taken as 2 asin(sqrt(u/2)) and
    arccosh(a/b) as log1p(-u + sqrt(-u(2-u))), both accurate up to a = b.
    """
    return _apply(m, _sb_mean, _sb_mean_arrays, sb=True)


def sb_lower_bound(m):
    """Closed-form lower bound for sb_mean, tight at a = b; same domain as
    sb_mean (a >= 0, b > 0).

    (8 sqrt2/27) ((2a-b) sqrt((a+b)/2) + b^{3/2})^{1/2} b^{1/4} + (11/27) b.
    The inner term is b^{3/2}(1 + cos(3x/2)) at x = arccos(a/b) (cosh for
    a > b), hence nonnegative; the signed factor (2a - b) is what keeps the
    half-angle reduction valid once b > 2a.  At b = 2a the bound collapses
    to (11 + 8 sqrt2)/27 * b.
    """
    return _apply(m, _sb_lower_bound, _sb_lower_bound_arrays, sb=True)


def mean_family(p: float, m):
    """(1/(3p^2)) A_p^p G^(1-p) + (1 - 1/(3p^2)) G; at p = 0 the limit
    G (1 + (ln b - ln a)^2 / 24).

    Evaluated as G * cosh_bound(p, half_log_ratio): even in p and increasing
    on p >= 0.  Where that product overflows but the mean does not, it is
    evaluated in a scaled form (see _family_times).
    """
    p = _check(abs(float(p)), False)
    try:
        return _apply(m, _mean_family, _mean_family_arrays, p)
    except OverflowError:  # sinh(y) or its scaled form beyond the double range
        raise OverflowError(f"mean_family overflows the double range at p={p!r}") from None


def _mean_family_rows(p_grid, a, b) -> tuple[np.ndarray, np.ndarray]:
    """half_log_ratio((a, b)) and the rows mean_family(p, (a, b)), p in
    p_grid, of an array pair: validated once, G and the half log ratio
    computed once."""
    a, b = _array_pair(a, b, sb=False)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        g = _geo_arrays(a, b)
        h = _half_log_ratio_arrays(a, b)
        x = np.abs(h)
        return h, np.array([_family_times_arrays(g, _check(abs(float(p)), False), x) for p in p_grid])


def log_mean_sandwich(m) -> Enclosure:
    """[mean_family(p), mean_family(1)], p the double below sqrt(15)/5, widened by a 16-ulp
    certification slack so it contains log_mean under double rounding.

    Degenerate pairs give the point enclosure [a, a].
    """
    return _apply(m, _log_mean_sandwich, _log_mean_sandwich_arrays)


def comparison_coeff(n: int) -> float:
    """The n-th odd-series coefficient d_n showing the additive family lower
    bound for the logarithmic mean dominates the power-form one.

    d_1 = d_2 = 0, d_3 = 64/45, positive afterwards.
    """
    n = _count(n, "n", 1)
    p, q = _UPPER_EDGE, _INV_SQRT5
    t = 2.0 * q / p
    try:
        return (
            (3.0 * p * q - 1.0) * (1.0 + t) ** (2 * n - 1)
            + (3.0 * p * q + 1.0) * (t - 1.0) ** (2 * n - 1)
            - 2.0 * (6.0 * q * q - 1.0)
        )
    except OverflowError:  # (1 + t)^(2n - 1) beyond the double range, from n = 463
        raise OverflowError(f"comparison_coeff overflows the double range at n={n}") from None


def _comparison_series_coeffs(n_max: int = 16) -> list[float]:
    # Even-series coefficients of cosh_bound(sqrt(15)/5, x) - cosh(x/sqrt5)^{5/3}
    # for x^{2n}, n = 3..n_max.  The x^0..x^4 parts cancel identically.
    q2 = 1.0 / 5.0
    cosh_coeffs = [q2 ** k / math.factorial(2 * k) for k in range(n_max + 1)]
    alpha = 5.0 / 3.0
    power = [1.0] + [0.0] * n_max
    for k in range(1, n_max + 1):  # J.C.P. Miller recurrence for C^alpha
        acc = 0.0
        for j in range(1, k + 1):
            acc += ((alpha + 1.0) * j - k) * cosh_coeffs[j] * power[k - j]
        power[k] = acc / k
    p2 = 3.0 / 5.0
    out = []
    for n in range(3, n_max + 1):
        out.append((5.0 / 9.0) * p2 ** n / math.factorial(2 * n) - power[n])
    return out


_COMPARISON_COEFFS = _comparison_series_coeffs()


def lower_bound_comparison(x: float) -> float:
    """D(x) = cosh_bound(sqrt(15)/5, x) - cosh(x/sqrt5)^{5/3}, nonnegative
    for x >= 0.

    Vanishes to sixth order at 0 (leading term x^6/40500), so small x goes
    through the cancelled series; direct evaluation elsewhere.  Its series
    coefficients alternate in sign from x^8 (-2.94e-8), so D >= 0 near 0
    does not follow from them: it rests on the d_n of comparison_coeff.
    The remarks suite samples D on [1e-3, 30] only.
    """
    x = float(x)
    if x < 0.0:
        raise ValueError(f"x must be >= 0, got {x!r}")
    if x <= 1.0:
        x2 = x * x
        xp = x2 ** 3
        total = 0.0
        for c in _COMPARISON_COEFFS:
            total += c * xp
            xp *= x2
        return total
    if not math.isfinite(x):
        raise ValueError(f"lower_bound_comparison needs a finite x, got {x!r}")
    try:
        return cosh_bound(_UPPER_EDGE, x) - math.cosh(x * _INV_SQRT5) ** (5.0 / 3.0)
    except OverflowError:  # either term beyond the double range
        return _no_overflow(math.inf, x, "lower_bound_comparison")


def random_pairs(n: int, seed: int, ratio_span=(1e-6, 1e6),
                 scale_span=(1e-3, 1e3)) -> tuple[np.ndarray, np.ndarray]:
    """Seeded (a, b) float64 array pair, a = ratio * b, with log-uniform
    ratios and scales b; exercises near-equal and extreme pairs alike."""
    n = _count(n, "n", 0)
    rng = np.random.default_rng(_count(seed, "seed", 0))
    lo_r, hi_r = math.log10(ratio_span[0]), math.log10(ratio_span[1])
    lo_s, hi_s = math.log10(scale_span[0]), math.log10(scale_span[1])
    ratios = 10.0 ** rng.uniform(lo_r, hi_r, n)
    scales = 10.0 ** rng.uniform(lo_s, hi_s, n)
    return ratios * scales, scales
