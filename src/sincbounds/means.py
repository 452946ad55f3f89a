"""Bivariate means and the sharp inequalities between them.

Classical means (geometric, logarithmic, Schwab-Borchardt) plus the
one-parameter family

    M_p(a, b) = (1/(3p^2)) A_p^p G^{1-p} + (1 - 1/(3p^2)) G

which sandwiches the logarithmic mean between p = sqrt(15)/5 and p = 1.
The family equals G * cosh_bound(p, x) at x = (1/2) ln(a/b), which is how
it is evaluated here (stable at a ~ b, smooth at p = 0, even in p).

The pair argument m is a MeanPoint, an (a, b) pair of numbers, or an
(a, b) pair of equal-length 1-D float64 arrays.  For an array pair,
geometric_mean, half_log_ratio, log_mean, sb_mean, sb_lower_bound and
mean_family return an array of the values, one per element pair, and
log_mean_sandwich returns one Enclosure whose lo and hi are arrays.  Each
call validates its input once (finite and positive; a >= 0, b > 0 for the
Schwab-Borchardt pair) and then runs one kernel: the scalar kernel for
numbers, the array kernel for arrays.  The two kernels take the same
branches and give the same results bit for bit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import partial
from itertools import repeat

import numpy as np

from .core import _LIMIT_FAMILY_CUTOFF, _UPPER_EDGE, _check, _cosh_family, cosh_bound
from .integrals import Enclosure

_INV_SQRT5 = 1.0 / math.sqrt(5.0)
_SB_SCALE = 8.0 * math.sqrt(2.0) / 27.0
_MIN_NORMAL = sys.float_info.min


def _check_positive(a: float, b: float) -> None:
    for v in (a, b):
        if not (math.isfinite(v) and v > 0.0):
            raise ValueError(f"mean arguments must be finite and positive, got {v!r}")


@dataclass(frozen=True)
class MeanPoint:
    """A pair of positive reals."""

    a: float
    b: float

    def __post_init__(self):
        _check_positive(self.a, self.b)


def _array_pair(a, b, sb: bool) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError(f"an array pair needs two 1-D arrays of one length, "
                         f"got shapes {a.shape} and {b.shape}")
    ok_b = np.isfinite(b) & (b > 0.0)
    ok_a = np.isfinite(a) & ((a >= 0.0) if sb else (a > 0.0))
    if not (ok_a.all() and ok_b.all()):
        i = int(np.argmin(ok_a & ok_b))
        need = "a >= 0 and b > 0" if sb else "finite and positive arguments"
        raise ValueError(f"need {need}, got ({a[i]!r}, {b[i]!r}) at index {i}")
    return a, b


def _apply(m, scalar_kernel, array_kernel, *args, sb: bool = False):
    """Validate m once (finite and positive; with sb=True, a >= 0 and
    b > 0), then run the kernel that matches its form."""
    if isinstance(m, MeanPoint):  # validated on construction
        return scalar_kernel(m.a, m.b, *args)
    a, b = m
    if (isinstance(a, np.ndarray) and a.ndim) or (isinstance(b, np.ndarray) and b.ndim):
        a, b = _array_pair(a, b, sb)
        # overflow, inf/inf and the like give the same inf or nan as in the
        # scalar kernels; numpy would also warn about them
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return array_kernel(a, b, *args)
    a, b = float(a), float(b)
    if sb:
        if not (math.isfinite(a) and a >= 0.0 and math.isfinite(b) and b > 0.0):
            raise ValueError(f"need a >= 0 and b > 0, got ({a!r}, {b!r})")
    else:
        _check_positive(a, b)
    return scalar_kernel(a, b, *args)


def _libm(fn, x: np.ndarray, *args) -> np.ndarray:
    """fn, a C-library routine from math (or pow), applied to each element.

    The array kernels must match the scalar kernels bit for bit: the CLI
    output of `verify --seed 3` includes monotone:means min_margin=1.622e-16,
    the difference of two mean_family values, which moves with the last
    bit.  numpy's vectorised sinh, log1p, arcsin, exp and power differ from
    the C library in the last bit on a few percent of inputs, so every
    transcendental function in an array kernel goes through here.  numpy
    is used only for sqrt, + - * /, comparisons and masks, which IEEE 754
    rounds correctly in both.
    """
    return np.fromiter(map(fn, x.tolist(), *args), float, x.size)


def _ulps(x: np.ndarray) -> np.ndarray:
    """math.ulp of each element."""
    u = np.spacing(np.abs(x))
    odd = ~np.isfinite(u)  # x = inf, nan, or the largest double
    if odd.any():
        u[odd] = _libm(math.ulp, x[odd])
    return u


# ------------------------------------------------------------- scalar kernels

def _geo(a: float, b: float) -> float:
    ab = a * b
    if math.isfinite(ab) and ab >= _MIN_NORMAL:
        return math.sqrt(ab)
    # a*b overflowed, or underflowed into the subnormals and lost bits
    return math.sqrt(a) * math.sqrt(b)


def _log_ratio(a: float, b: float, q: float) -> float:
    # ln(a/b): log(q), q = a/b, where q is normal; ln a - ln b cancels at large a
    if _MIN_NORMAL <= q < math.inf:
        return math.log(q)
    return math.log(a) - math.log(b)


def _half_log_ratio(a: float, b: float) -> float:
    if a == b:
        return 0.0
    q = a / b
    if 0.5 < q < 2.0:
        return 0.5 * math.log1p((a - b) / b)
    return 0.5 * _log_ratio(a, b, q)


def _log_mean(a: float, b: float) -> float:
    if a == b:
        return a
    r = (a - b) / b
    if abs(r) < 1e-4:
        # r/ln(1+r) = 1 + r/2 - r^2/12 + r^3/24 - O(r^4); next term ~19r^4/720
        return b * (1.0 + r * (0.5 + r * (-1.0 / 12.0 + r / 24.0)))
    q = a / b
    if 0.5 < q < 2.0:
        return (a - b) / math.log1p(r)
    return (a - b) / _log_ratio(a, b, q)


def _sb_mean(a: float, b: float) -> float:
    u = (b - a) / b
    if abs(u) < 1e-4:
        return b * (1.0 + u * (-1.0 / 3.0 + u * (-1.0 / 45.0 + u * (-1.0 / 189.0 - 23.0 * u / 14175.0))))
    if u > 0.0:
        # arccos(1-u) = 2 asin(sqrt(u/2)); libm acos itself drifts ~1e-13 near 1
        return b * math.sqrt(u * (2.0 - u)) / (2.0 * math.asin(math.sqrt(0.5 * u)))
    e = -u
    # arccosh(1+e) = log1p(e + sqrt(e(2+e))), exact for small e
    t = math.sqrt(e * (2.0 + e))
    v = b * t / math.log1p(e + t)
    return v if math.isfinite(v) else _sb_mean_far(a, b)


def _sb_mean_far(a: float, b: float) -> float:
    """sb_mean for a > b where e = a/b - 1 or e(2+e) overflows (a/b above
    about 1.3e154): sqrt(a^2-b^2) = a s and arccosh(a/b) = ln a - ln b +
    log1p(s), s = sqrt(1 - (b/a)^2)."""
    r = b / a
    s = math.sqrt(1.0 - r * r)
    return a * s / ((math.log(a) - math.log(b)) + math.log1p(s))


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
    lo = _family_times(g, _UPPER_EDGE, x)
    hi = _family_times(g, 1.0, x)
    return Enclosure(lo - 16.0 * math.ulp(lo), hi + 16.0 * math.ulp(hi))


# -------------------------------------------------------------- array kernels
# Each mirrors the scalar kernel above: one mask per branch, tested in the
# same order, and the same operations in the same order inside each branch.

def _geo_arrays(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    ab = a * b
    out = np.sqrt(ab)
    wide = ~(np.isfinite(ab) & (ab >= _MIN_NORMAL))
    out[wide] = np.sqrt(a[wide]) * np.sqrt(b[wide])
    return out


def _log_ratio_arrays(a: np.ndarray, b: np.ndarray, q: np.ndarray) -> np.ndarray:
    wide = ~((_MIN_NORMAL <= q) & (q < np.inf))
    out = _libm(math.log, np.where(wide, a, q))
    out[wide] -= _libm(math.log, b[wide])
    return out


def _half_log_ratio_arrays(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros_like(a)
    q = a / b
    ne = a != b
    near = ne & (0.5 < q) & (q < 2.0)
    far = ne & ~near
    an, bn = a[near], b[near]
    out[near] = 0.5 * _libm(math.log1p, (an - bn) / bn)
    out[far] = 0.5 * _log_ratio_arrays(a[far], b[far], q[far])
    return out


def _log_mean_arrays(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = a.copy()
    r = (a - b) / b
    q = a / b
    ne = a != b
    series = ne & (np.abs(r) < 1e-4)
    rest = ne & ~series
    near = rest & (0.5 < q) & (q < 2.0)
    far = rest & ~near
    rs = r[series]
    out[series] = b[series] * (1.0 + rs * (0.5 + rs * (-1.0 / 12.0 + rs / 24.0)))
    out[near] = (a[near] - b[near]) / _libm(math.log1p, r[near])
    out[far] = (a[far] - b[far]) / _log_ratio_arrays(a[far], b[far], q[far])
    return out


def _sb_mean_arrays(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.empty_like(a)
    u = (b - a) / b
    series = np.abs(u) < 1e-4
    circ = ~series & (u > 0.0)
    hyp = ~series & ~circ
    us = u[series]
    out[series] = b[series] * (1.0 + us * (-1.0 / 3.0 + us * (-1.0 / 45.0 + us * (
        -1.0 / 189.0 - 23.0 * us / 14175.0))))
    uc = u[circ]
    out[circ] = b[circ] * np.sqrt(uc * (2.0 - uc)) / (2.0 * _libm(math.asin, np.sqrt(0.5 * uc)))
    e = -u[hyp]
    t = np.sqrt(e * (2.0 + e))
    out[hyp] = b[hyp] * t / _libm(math.log1p, e + t)
    far = ~np.isfinite(out)
    if far.any():
        out[far] = _libm(_sb_mean_far, a[far], b[far].tolist())
    return out


def _sb_lower_bound_arrays(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    inner = (2.0 * a - b) * np.sqrt(0.5 * (a + b)) + b * np.sqrt(b)
    out = _SB_SCALE * np.sqrt(inner) * _libm(pow, b, repeat(0.25)) + 11.0 * b / 27.0
    odd = ~(np.isfinite(out) & (inner >= _MIN_NORMAL))
    if odd.any():
        out[odd] = _libm(_sb_lower_bound_scaled, a[odd], b[odd].tolist())
    return out


def _family_times_arrays(g: np.ndarray, p: float, x: np.ndarray) -> np.ndarray:
    """_family_times of each element: the product, and the scalar kernel
    where that overflows."""
    try:
        v = g * _cosh_family(p, x, partial(_libm, math.sinh))
    except OverflowError:  # sinh(px/2) beyond the double range somewhere
        return _libm(_family_times, g, repeat(p), x.tolist())
    over = np.isinf(v)
    if over.any():
        v[over] = _libm(_family_times, g[over], repeat(p), x[over].tolist())
    return v


def _mean_family_arrays(a: np.ndarray, b: np.ndarray, p: float) -> np.ndarray:
    return _family_times_arrays(_geo_arrays(a, b), p, np.abs(_half_log_ratio_arrays(a, b)))


def _log_mean_sandwich_arrays(a: np.ndarray, b: np.ndarray) -> Enclosure:
    g = _geo_arrays(a, b)
    x = np.abs(_half_log_ratio_arrays(a, b))
    lo = _family_times_arrays(g, _UPPER_EDGE, x)
    hi = _family_times_arrays(g, 1.0, x)
    lo = lo - 16.0 * _ulps(lo)
    hi = hi + 16.0 * _ulps(hi)
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
    """(a - b)/(ln a - ln b), a at a = b; series branch when a ~ b."""
    return _apply(m, _log_mean, _log_mean_arrays)


def sb_mean(m):
    """Schwab-Borchardt mean: sqrt(b^2-a^2)/arccos(a/b) for a < b, a at a = b,
    sqrt(a^2-b^2)/arccosh(a/b) for a > b.  Not symmetric in (a, b); unlike
    the other means, a = 0 is admitted (value 2b/pi).

    Near a = b both branches share the series b(1 - u/3 - u^2/45 - ...) in
    u = 1 - a/b, which is used below the crossover.
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
    return _apply(m, _mean_family, _mean_family_arrays, _check(abs(float(p)), False))


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
    """[mean_family(sqrt(15)/5), mean_family(1)], widened by a 16-ulp
    certification slack so it contains log_mean under double rounding.

    Degenerate pairs give the point enclosure [a, a].
    """
    return _apply(m, _log_mean_sandwich, _log_mean_sandwich_arrays)


def comparison_coeff(n: int) -> float:
    """The n-th odd-series coefficient d_n showing the additive family lower
    bound for the logarithmic mean dominates the power-form one.

    d_1 = d_2 = 0, d_3 = 64/45, positive afterwards.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    p, q = _UPPER_EDGE, _INV_SQRT5
    t = 2.0 * q / p
    return (
        (3.0 * p * q - 1.0) * (1.0 + t) ** (2 * n - 1)
        + (3.0 * p * q + 1.0) * (t - 1.0) ** (2 * n - 1)
        - 2.0 * (6.0 * q * q - 1.0)
    )


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
    through the cancelled series; direct evaluation elsewhere.
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
        raise ValueError(f"x must be finite, got {x!r}")
    return cosh_bound(_UPPER_EDGE, x) - math.cosh(x * _INV_SQRT5) ** (5.0 / 3.0)


def _random_pair_arrays(n: int, seed: int, ratio_span=(1e-6, 1e6),
                        scale_span=(1e-3, 1e3)) -> tuple[np.ndarray, np.ndarray]:
    """The (a, b) arrays behind random_pairs, for the array kernels."""
    rng = np.random.default_rng(seed)
    lo_r, hi_r = math.log10(ratio_span[0]), math.log10(ratio_span[1])
    lo_s, hi_s = math.log10(scale_span[0]), math.log10(scale_span[1])
    ratios = 10.0 ** rng.uniform(lo_r, hi_r, n)
    scales = 10.0 ** rng.uniform(lo_s, hi_s, n)
    return ratios * scales, scales


def random_pairs(n: int, seed: int, ratio_span=(1e-6, 1e6), scale_span=(1e-3, 1e3)) -> list[MeanPoint]:
    """Seeded pairs with log-uniform ratios; exercises near-equal and
    extreme pairs alike."""
    a, b = _random_pair_arrays(n, seed, ratio_span, scale_span)
    return [MeanPoint(x, y) for x, y in zip(a.tolist(), b.tolist())]
