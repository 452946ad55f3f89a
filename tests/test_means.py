import hashlib
import math
import re
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sincbounds import means
from sincbounds.core import cosh_bound, sinhc
from sincbounds.means import (
    MeanPoint,
    _COMPARISON_COEFFS,
    comparison_coeff,
    geometric_mean,
    half_log_ratio,
    log_mean,
    log_mean_sandwich,
    lower_bound_comparison,
    mean_family,
    random_pairs,
    sb_lower_bound,
    sb_mean,
)

UPPER_EDGE = math.sqrt(15.0) / 5.0

def _points(n, seed, **spans):
    """random_pairs as a list of MeanPoint, for the scalar kernels."""
    a, b = random_pairs(n, seed, **spans)
    return [MeanPoint(x, y) for x, y in zip(a.tolist(), b.tolist())]


pairs_strategy = st.tuples(
    st.floats(1e-3, 1e3), st.floats(-6.0, 6.0)
).map(lambda t: MeanPoint(t[0] * 10.0 ** t[1], t[0]))


# ------------------------------------------------------------ classical means

@pytest.mark.parametrize("a, b, sb", [
    (-1.0, 4.0, False), (0.0, 4.0, False), (2.0, math.nan, False), (math.inf, 1.0, False),
    (1.0, -0.0, False), (-1.0, 4.0, True), (2.0, 0.0, True), (math.nan, 1.0, True),
    (1.0, math.inf, True),
])
def test_a_bad_pair_has_one_wording(a, b, sb):
    # a number pair, a MeanPoint and an array pair; the array adds the index
    want = f"need {'a >= 0 and b > 0' if sb else 'finite and positive arguments'}, got ({a!r}, {b!r})"
    fns = (sb_mean, sb_lower_bound) if sb else (log_mean, geometric_mean, log_mean_sandwich)
    for fn in fns:
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            fn((a, b))
        with pytest.raises(ValueError, match=f"^{re.escape(want)} at index 1$"):
            fn((np.array([1.0, a]), np.array([1.0, b])))
    if not sb:
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            MeanPoint(a, b)
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            mean_family(0.5, (a, b))


def test_mean_point_holds_the_floats_of_a_pair():
    # an int MeanPoint is read as the number pair (a, b) is: through float()
    assert MeanPoint(2, 2) == MeanPoint(2.0, 2.0)
    got = log_mean(MeanPoint(2, 2))
    assert type(got) is float and got == log_mean((2, 2)) == 2.0
    enc = log_mean_sandwich(MeanPoint(2, 2))
    assert (type(enc.lo), type(enc.hi)) == (float, float) and enc == log_mean_sandwich((2, 2))
    big = 2 ** 600
    assert geometric_mean(MeanPoint(big, big)) == geometric_mean((big, big)) == 4.149515568880993e+180


@given(m=pairs_strategy, p=st.floats(-2.0, 3.0))
def test_means_agree_on_equal_pair(m, p):
    x = m.a
    eq = MeanPoint(x, x)
    for value in (geometric_mean(eq), log_mean(eq), sb_mean(eq), mean_family(p, eq)):
        assert value == pytest.approx(x, rel=1e-12)


def test_log_mean_values():
    assert log_mean(MeanPoint(math.e, math.e)) == math.e
    got = log_mean(MeanPoint(1.0, math.e ** 2))
    assert got == pytest.approx((math.e ** 2 - 1.0) / 2.0, rel=1e-14)


def test_log_mean_series_crossover():
    # no series switch: on both sides of the former 1e-4 one the mean is
    # the log1p form
    for b in (1.0, 37.5):
        for r in (9.99e-5, 1.001e-4, -9.99e-5, -1.001e-4):
            a = b * (1.0 + r)
            direct = (a - b) / math.log1p((a - b) / b)
            assert log_mean(MeanPoint(a, b)) == pytest.approx(direct, rel=1e-14)


@given(m=pairs_strategy)
def test_classical_mean_ordering(m):
    if abs(m.a / m.b - 1.0) < 1e-6:
        return  # true gaps ~ (ln ratio)^2/24 fall below double resolution
    g, l, a = geometric_mean(m), log_mean(m), (m.a + m.b) / 2.0
    assert g < l < a


# ------------------------------------------------------------------- SB mean

def test_sb_mean_branches():
    assert sb_mean(MeanPoint(3.0, 3.0)) == 3.0
    assert sb_mean((0.0, 2.0)) == pytest.approx(4.0 / math.pi, rel=1e-14)
    assert sb_mean(MeanPoint(5.0, 3.0)) == pytest.approx(4.0 / math.acosh(5.0 / 3.0), rel=1e-14)
    assert sb_mean(MeanPoint(1.0, 2.0)) == pytest.approx(math.sqrt(3.0) / math.acos(0.5), rel=1e-14)


def test_sb_mean_not_symmetric():
    assert sb_mean(MeanPoint(1.0, 2.0)) != pytest.approx(sb_mean(MeanPoint(2.0, 1.0)), rel=1e-3)


def test_sb_mean_series_crossover():
    # no series switch: both sides of the former 1e-4 one, and both
    # branches, against a 40-digit oracle
    mp.mp.dps = 40
    for b in (1.0, 3.0):
        for u in (9.9e-5, 1.01e-4):
            for sign in (1.0, -1.0):
                a = b * (1.0 - sign * u)
                am, bm = mp.mpf(a), mp.mpf(b)
                if a < b:
                    truth = mp.sqrt(bm ** 2 - am ** 2) / mp.acos(am / bm)
                else:
                    truth = mp.sqrt(am ** 2 - bm ** 2) / mp.acosh(am / bm)
                assert sb_mean(MeanPoint(a, b)) == pytest.approx(float(truth), rel=1e-14)


def test_sb_domain_admits_a_zero():
    # one domain, a >= 0 and b > 0, for the mean and its lower bound
    assert sb_mean((0.0, 1.0)) == pytest.approx(2.0 / math.pi, rel=1e-14)
    bound = sb_lower_bound((0.0, 1.0))
    assert bound == pytest.approx(0.6342, abs=1e-4)
    assert bound < 2.0 / math.pi
    assert sb_lower_bound((0.0, 3.0)) == pytest.approx(3.0 * bound, rel=1e-14)
    for bad in ((-1e-300, 1.0), (1.0, 0.0), (math.nan, 1.0), (1.0, math.inf)):
        for fn in (sb_mean, sb_lower_bound):
            with pytest.raises(ValueError):
                fn(bad)


def test_sb_lower_bound_at_double_point():
    for a in (0.5, 1.0, 7.0):
        b = 2.0 * a
        assert sb_lower_bound(MeanPoint(a, b)) == pytest.approx(
            (11.0 + 8.0 * math.sqrt(2.0)) / 27.0 * b, rel=1e-14)


def test_sb_lower_bound_is_chain_member_composed():
    # circular branch: the bound equals b * cos-family-member(arccos(a/b)) at p = 3/4;
    # hyperbolic branch: the cosh analogue.  This pins the closed form.
    from sincbounds.core import cos_bound, cosh_bound
    for a in (0.05, 0.3, 0.49, 0.51, 0.9):
        x = math.acos(a)
        assert sb_lower_bound(MeanPoint(a, 1.0)) == pytest.approx(cos_bound(0.75, x), rel=1e-13)
    for a in (1.5, 3.0, 20.0):
        x = math.acosh(a)
        assert sb_lower_bound(MeanPoint(a, 1.0)) == pytest.approx(cosh_bound(0.75, x), rel=1e-13)


def test_sb_lower_bound_below_mean_on_pairs():
    for m in _points(2000, seed=7):
        assert sb_lower_bound(m) <= sb_mean(m)


# pairs where a direct formula of sb_mean or sb_lower_bound leaves the
# double range (overflow, or an inner term below the smallest normal)
SB_EDGE_PAIRS = [(1e200, 1e-100), (1.0, 5e-324), (1e210, 1e210), (0.0, 1e308),
                 (1e308, 1.7e308), (1e300, 1e-300), (1e-300, 1e-300)]


@pytest.mark.parametrize("a, b", SB_EDGE_PAIRS)
def test_sb_edges_within_8_ulps_of_mpmath(a, b):
    with mp.workdps(50):
        am, bm = mp.mpf(a), mp.mpf(b)
        if a == b:
            mean = bm
        elif a < b:
            mean = mp.sqrt(bm ** 2 - am ** 2) / mp.acos(am / bm)
        else:
            mean = mp.sqrt(am ** 2 - bm ** 2) / mp.acosh(am / bm)
        inner = (2 * am - bm) * mp.sqrt((am + bm) / 2) + bm * mp.sqrt(bm)
        bound = 8 * mp.sqrt(2) / 27 * mp.sqrt(inner) * mp.root(bm, 4) + 11 * bm / 27
    for fn, truth in ((sb_mean, float(mean)), (sb_lower_bound, float(bound))):
        for got in (fn((a, b)), fn((np.array([a]), np.array([b])))[0]):
            assert math.isfinite(got) and abs(got - truth) <= 8.0 * math.ulp(truth), fn


# ln a - ln b cancelled where a/b is near 2 and a is large; a/b overflows or
# underflows in the last four
LOG_RATIO_PAIRS = [(2.03e100, 1e100), (5.2e29, 2.56e29), (1e100, 2.03e100), (3e250, 1e250),
                   (1e300, 1e-9), (1e-300, 1e8), (1.0, 5e-324), (1.7e308, 1e-300)]


def _near_pairs(n, seed):
    """Seeded pairs with |a/b - 1| log-uniform in [1e-16, 1e-3], either sign,
    and log-uniform scales b; the closest round to a = b."""
    rng = np.random.default_rng(seed)
    d = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-16.0, -3.0, n)
    b = 10.0 ** rng.uniform(-3.0, 3.0, n)
    return b * (1.0 + d), b


def _assert_within_4_ulps_of_mpmath(fn, a, b, truth):
    # truth(am, bm) at 50 digits; numbers and the array pair alike
    arr = fn((a, b))
    for x, y, got_arr in zip(a.tolist(), b.tolist(), arr.tolist()):
        with mp.workdps(50):
            want = float(truth(mp.mpf(x), mp.mpf(y)))
        for got in (fn((x, y)), got_arr):
            assert abs(got - want) <= 4.0 * math.ulp(want), (x, y)


@pytest.mark.parametrize("fn", [half_log_ratio, log_mean])
def test_log_ratio_means_within_4_ulps_of_mpmath(fn):
    a, b = 10.0 ** np.random.default_rng(12).uniform(-307.0, 308.0, (2, 1000))
    near_a, near_b = _near_pairs(1000, 12)
    a = np.concatenate([[x for x, _ in LOG_RATIO_PAIRS], a, near_a])
    b = np.concatenate([[y for _, y in LOG_RATIO_PAIRS], b, near_b])

    def truth(am, bm):
        if am == bm:
            return 0 if fn is half_log_ratio else am
        ln = mp.log(am / bm)
        return ln / 2 if fn is half_log_ratio else (am - bm) / ln
    _assert_within_4_ulps_of_mpmath(fn, a, b, truth)


def test_sb_mean_within_4_ulps_of_mpmath():
    a, b = random_pairs(1000, seed=12)
    near_a, near_b = _near_pairs(1000, 12)
    a = np.concatenate([[0.0], a, near_a])
    b = np.concatenate([[1.0], b, near_b])

    def truth(am, bm):
        if am == bm:
            return bm
        if am < bm:
            return mp.sqrt(bm ** 2 - am ** 2) / mp.acos(am / bm)
        return mp.sqrt(am ** 2 - bm ** 2) / mp.acosh(am / bm)
    _assert_within_4_ulps_of_mpmath(sb_mean, a, b, truth)


@given(m=pairs_strategy, lam=st.floats(1e-3, 1e3))
def test_sb_homogeneous(m, lam):
    scaled = MeanPoint(lam * m.a, lam * m.b)
    assert sb_mean(scaled) == pytest.approx(lam * sb_mean(m), rel=1e-11)
    assert sb_lower_bound(scaled) == pytest.approx(lam * sb_lower_bound(m), rel=1e-11)


@given(m=pairs_strategy)
def test_symmetric_means(m):
    swapped = MeanPoint(m.b, m.a)
    assert geometric_mean(swapped) == pytest.approx(geometric_mean(m), rel=1e-13)
    assert log_mean(swapped) == pytest.approx(log_mean(m), rel=1e-12)
    assert mean_family(0.7, swapped) == pytest.approx(mean_family(0.7, m), rel=1e-12)


# --------------------------------------------------------------- mean family

def _power_mean_mp(p: float, m: MeanPoint) -> float:
    """The power mean A_p = ((a^p + b^p)/2)^(1/p), p != 0, at 30 digits."""
    with mp.workdps(30):
        a, b, p = mp.mpf(m.a), mp.mpf(m.b), mp.mpf(p)
        return float(((a ** p + b ** p) / 2) ** (1 / p))


def test_mean_family_closed_forms():
    m = MeanPoint(2.0, 5.0)
    g, a = geometric_mean(m), _power_mean_mp(1.0, m)
    assert mean_family(1.0, m) == pytest.approx(a / 3.0 + 2.0 * g / 3.0, rel=1e-14)
    p = UPPER_EDGE
    literal = (5.0 / 9.0) * _power_mean_mp(p, m) ** p * g ** (1.0 - p) + (4.0 / 9.0) * g
    assert mean_family(p, m) == pytest.approx(literal, rel=1e-13)
    limit = g * (1.0 + (math.log(5.0) - math.log(2.0)) ** 2 / 24.0)
    assert mean_family(0.0, m) == pytest.approx(limit, rel=1e-14)


@given(m=pairs_strategy, p=st.floats(0.01, 3.0))
def test_mean_family_matches_literal_formula(m, p):
    g = geometric_mean(m)
    literal = (1.0 / (3 * p * p)) * _power_mean_mp(p, m) ** p * g ** (1.0 - p) \
        + (1.0 - 1.0 / (3 * p * p)) * g
    assert mean_family(p, m) == pytest.approx(literal, rel=1e-11)


def test_mean_family_even_in_p():
    # A_p^p G^{1-p} is invariant under p -> -p, so the family is even;
    # "increasing" can only hold on [0, inf)
    m = MeanPoint(2.0, 1.0)
    for p in (0.5, 1.0, 2.0):
        assert mean_family(-p, m) == pytest.approx(mean_family(p, m), rel=1e-15)
    values = [mean_family(p, m) for p in np.linspace(0.0, 3.0, 13)]
    assert all(b > a for a, b in zip(values, values[1:]))
    values_neg = [mean_family(p, m) for p in np.linspace(-2.0, 0.0, 9)]
    assert all(b < a for a, b in zip(values_neg, values_neg[1:]))


def test_mean_family_increasing_on_pairs():
    ps = np.linspace(0.0, 3.0, 21)
    for m in _points(300, seed=11):
        vals = [mean_family(float(p), m) for p in ps]
        assert all(b > a for a, b in zip(vals, vals[1:]))


# ----------------------------------------------------------------- sandwich

def test_log_mean_sandwich():
    m = MeanPoint(1.0, 4.0)
    enc = log_mean_sandwich(m)
    assert enc.contains(log_mean(m))
    assert enc.lo == pytest.approx(mean_family(UPPER_EDGE, m), rel=1e-12)
    assert enc.hi == pytest.approx(mean_family(1.0, m), rel=1e-12)
    point = log_mean_sandwich(MeanPoint(1.0, 1.0))
    assert point.lo == point.hi == 1.0


def test_log_mean_sandwich_on_pairs():
    for m in _points(3000, seed=13):
        assert log_mean_sandwich(m).contains(log_mean(m))


def test_log_mean_sandwich_near_equal_ratios():
    # ratios from 1 + 1e-6 up to 1e6 and their inverses
    for r in 1.0 + np.geomspace(1e-6, 1e6 - 1.0, 25):
        for m in (MeanPoint(r, 1.0), MeanPoint(1.0, r)):
            assert log_mean_sandwich(m).contains(log_mean(m))


def test_log_mean_sandwich_survives_factor_overflow():
    # G tiny, the factor at p = 1 huge: the upper end is mean_family(1), not inf
    m = (5e-324, 1e300)
    enc = log_mean_sandwich(m)
    hi = mean_family(1.0, m)
    assert hi == pytest.approx(1.6666666666666095e299, rel=1e-14)
    assert enc.hi == hi + 16.0 * math.ulp(hi)
    assert enc.lo == pytest.approx(mean_family(UPPER_EDGE, m), rel=1e-14)
    assert enc.contains(log_mean(m))
    arr = log_mean_sandwich((np.array([5e-324, 1.0]), np.array([1e300, 4.0])))
    assert _same_bits(arr.hi, [enc.hi, log_mean_sandwich((1.0, 4.0)).hi])
    assert _same_bits(arr.lo, [enc.lo, log_mean_sandwich((1.0, 4.0)).lo])


def test_log_mean_sandwich_unchanged_where_products_are_finite():
    # wherever G * family factor is finite, the ends are that product widened
    pairs = [(m.a, m.b) for m in _points(500, seed=3)] + _branch_edge_pairs()
    pairs += [(a, b) for _, a, b in _overflow_rescue_cases()]
    for a, b in pairs:
        if a == b:
            continue
        g = geometric_mean((a, b))
        x = abs(half_log_ratio((a, b)))
        enc = log_mean_sandwich((a, b))
        for end, p, sign in ((enc.lo, UPPER_EDGE, -1.0), (enc.hi, 1.0, 1.0)):
            v = g * means._cosh_family(p, x)
            if math.isfinite(v):
                assert end == v + sign * 16.0 * math.ulp(v), (a, b, p)


def _subnormal_product_pairs():
    """Pairs whose product a*b is subnormal but not zero, both orders, and
    pairs on both sides of the smallest normal product."""
    out = []
    for ea in range(-323, -5, 13):
        for frac in (0.031, 0.5, 0.97):
            a = 10.0 ** ea
            b = 2.0 ** -1030 * (1.0 + frac) / a  # a*b about 2^-1030
            if 0.0 < b < math.inf and 0.0 < a * b < 2.2250738585072014e-308:
                out += [(a, b), (b, a)]
    tiny = 2.0 ** -1022
    out += [(5.78e-320, 4.17), (tiny, 1.0), (tiny, 1.0 - 2.0 ** -53), (tiny, 0.5), (3.0, tiny)]
    return out


def test_geometric_mean_of_subnormal_products():
    pairs = _subnormal_product_pairs()
    assert len(pairs) > 40
    for a, b in pairs:
        got = geometric_mean((a, b))
        with mp.workdps(50):
            want = mp.sqrt(mp.mpf(a) * mp.mpf(b))
        assert abs(mp.mpf(got) - want) <= 1.5 * math.ulp(got), (a, b)
    # was sqrt(a*b) of the rounded subnormal product: off by 1.7e-6
    assert geometric_mean((5.78e-320, 4.17)) == pytest.approx(4.909471309744606e-160, rel=1e-15)


def test_subnormal_product_pairs_match_scalar_bits():
    pairs = _subnormal_product_pairs()
    a, b = np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])
    assert _same_bits(means._geo_arrays(a, b), [geometric_mean(p) for p in pairs])
    _assert_arrays_within_contract(a, b)


def test_geometric_mean_of_an_array_pair_matches_each_pair():
    # subnormal and overflowing products take the sqrt(a) * sqrt(b) branch
    pairs = _subnormal_product_pairs() + [(1e200, 1e200), (1e300, 1e10), (1.7e308, 4.0),
                                          (2.0, 8.0), (1e-170, 1e-170)]
    a, b = np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])
    got = geometric_mean((a, b))
    assert _same_bits(got, [geometric_mean(p) for p in pairs])
    assert _same_bits(got, [geometric_mean(MeanPoint(*p)) for p in pairs])
    assert got[-2] == 4.0 and got[-1] == 1e-170


def test_mean_chain_increasing_at_fixed_pair():
    m = MeanPoint(1.0, 4.0)
    ps = [1.0 / math.sqrt(3.0), 2.0 / 3.0, 1.0 / math.sqrt(2.0), 0.75,
          UPPER_EDGE, 1.0, 2.0 / math.sqrt(3.0)]
    vals = [mean_family(p, m) for p in ps]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[4] < log_mean(m) < vals[5]  # L sits between the edge members


@given(m=pairs_strategy)
def test_sinhc_bridge_identity(m):
    # sinhc(half log ratio) equals L/G
    if m.a == m.b:
        return
    x = half_log_ratio(m)
    assert sinhc(x) == pytest.approx(log_mean(m) / geometric_mean(m), rel=1e-12)


# ------------------------------------------------------ comparison machinery

def _exact_comparison_coeff(n):
    # exact arithmetic in Q[sqrt3]: pairs (r, s) meaning r + s*sqrt(3)
    def mul(u, v):
        return (u[0] * v[0] + 3 * u[1] * v[1], u[0] * v[1] + u[1] * v[0])

    def pow_(u, k):
        out = (Fraction(1), Fraction(0))
        for _ in range(k):
            out = mul(out, u)
        return out

    lead_minus = (Fraction(-1), Fraction(3, 5))   # 3 p q - 1 = (3/5) sqrt3 - 1
    lead_plus = (Fraction(1), Fraction(3, 5))     # 3 p q + 1
    t_plus = (Fraction(1), Fraction(2, 3))        # 1 + 2q/p = 1 + (2/3) sqrt3
    t_minus = (Fraction(-1), Fraction(2, 3))      # 2q/p - 1
    x = mul(lead_minus, pow_(t_plus, 2 * n - 1))
    y = mul(lead_plus, pow_(t_minus, 2 * n - 1))
    return (x[0] + y[0] - Fraction(2, 5), x[1] + y[1])


def test_comparison_coeff_exact_values():
    assert _exact_comparison_coeff(1) == (Fraction(0), Fraction(0))
    assert _exact_comparison_coeff(2) == (Fraction(0), Fraction(0))
    assert _exact_comparison_coeff(3) == (Fraction(64, 45), Fraction(0))
    assert abs(comparison_coeff(1)) < 1e-12
    assert abs(comparison_coeff(2)) < 1e-12
    assert comparison_coeff(3) == pytest.approx(64.0 / 45.0, rel=1e-13)


def test_comparison_coeff_positive_beyond_3():
    for n in range(3, 51):
        exact = _exact_comparison_coeff(n)
        assert exact[1] == 0  # rational after cancellation
        assert exact[0] > 0
        assert comparison_coeff(n) > 0.0


@pytest.mark.parametrize("n", [463, 500, 10 ** 6])
def test_comparison_coeff_names_itself_on_overflow(n):
    assert comparison_coeff(462) > 0.0  # the last n in the double range
    with pytest.raises(OverflowError) as info:
        comparison_coeff(n)
    assert str(info.value) == f"comparison_coeff overflows the double range at n={n}"


def test_lower_bound_comparison_nonnegative():
    for x in np.geomspace(1e-3, 30.0, 200):
        assert lower_bound_comparison(float(x)) >= 0.0
    assert lower_bound_comparison(0.0) == 0.0
    assert lower_bound_comparison(1.0) > 0.0
    assert lower_bound_comparison(25.0) > lower_bound_comparison(20.0) > 0.0


@pytest.mark.parametrize("x", [math.nan, math.inf])
def test_lower_bound_comparison_rejects_a_non_finite_x(x):
    with pytest.raises(ValueError) as info:
        lower_bound_comparison(x)
    assert str(info.value) == f"lower_bound_comparison needs a finite x, got {x!r}"


@pytest.mark.parametrize("x", [2000.0, 1e308])
def test_lower_bound_comparison_names_itself_on_overflow(x):
    # its cosh_bound term overflows first; the message names the function called
    with pytest.raises(OverflowError) as info:
        lower_bound_comparison(x)
    assert str(info.value) == f"lower_bound_comparison overflows the double range at x={x!r}"


def test_lower_bound_comparison_quartic_term_vanishes():
    # leading behaviour is x^6/40500, so D(x)/x^4 -> 0
    for x in (1e-3, 1e-2):
        assert lower_bound_comparison(x) / x ** 4 < 1e-6
    assert lower_bound_comparison(0.1) == pytest.approx(0.1 ** 6 / 40500.0, rel=1e-3)


def test_lower_bound_comparison_series_vs_direct():
    for x in (0.9, 0.999, 1.0):
        series = lower_bound_comparison(x)
        direct = (5.0 / 9.0) * math.cosh(UPPER_EDGE * x) + 4.0 / 9.0 \
            - math.cosh(x / math.sqrt(5.0)) ** (5.0 / 3.0)
        assert series == pytest.approx(direct, rel=1e-8)


def test_comparison_series_coeffs_frozen():
    # generated independently at 40 digits from the defining expression
    frozen = [
        2.4691358024691358e-5,
        -2.9394473838918283e-8,
        1.763668430335097e-8,
        -7.2941842489167592e-10,
        3.9882131788853325e-11,
        -2.2446771589432769e-12,
        1.3194797315477036e-13,
        -8.0202119300434656e-15,
        5.0104515479071763e-16,
        -3.2022494544307866e-17,
        2.0862282126434722e-18,
        -1.3815680691271762e-19,
    ]
    assert len(_COMPARISON_COEFFS) >= len(frozen)
    for got, want in zip(_COMPARISON_COEFFS, frozen):
        assert got == pytest.approx(want, rel=1e-13)
    assert _COMPARISON_COEFFS[0] == pytest.approx(1.0 / 40500.0, rel=1e-13)


def test_random_pairs_deterministic():
    a, b = random_pairs(50, seed=3)
    again = random_pairs(50, seed=3)
    assert _same_bits(again[0], a) and _same_bits(again[1], b)
    assert (a > b).any() and (a < b).any()


@pytest.mark.parametrize("n, seed, name", [(2.5, 1, "n"), (-1, 1, "n"), (3, -1, "seed"),
                                           (3, 1.0, "seed")])
def test_random_pairs_counts_are_integers(n, seed, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= 0, got "):
        random_pairs(n, seed)


def test_random_pairs_values_unchanged():
    # the reference random_pairs had when it built a list of MeanPoint
    for seed, spans in ((3, ((1e-6, 1e6), (1e-3, 1e3))), (8, ((1e-3, 1e3), (0.5, 2.0)))):
        rng = np.random.default_rng(seed)
        ratios = 10.0 ** rng.uniform(math.log10(spans[0][0]), math.log10(spans[0][1]), 40)
        scales = 10.0 ** rng.uniform(math.log10(spans[1][0]), math.log10(spans[1][1]), 40)
        a, b = random_pairs(40, seed, ratio_span=spans[0], scale_span=spans[1])
        assert a.dtype == b.dtype == np.float64 and a.shape == b.shape == (40,)
        assert _same_bits(a, [float(r * s) for r, s in zip(ratios, scales)])
        assert _same_bits(b, scales.tolist())
    # the corpus's sb pairs and the seeded mean-chain table's pairs, bit for bit
    for args, digest in (((10_000, 20250810), "ed05f2bbeb53bbb6"),
                         ((1000, 20250811, (1e-3, 1e3), (0.5, 2.0)), "1e45072088449d21")):
        a, b = random_pairs(*args)
        assert hashlib.sha256(a.tobytes() + b.tobytes()).hexdigest()[:16] == digest


# ------------------------------------------------------------ array pairs

ARRAY_FUNCTIONS = ("geometric_mean", "half_log_ratio", "log_mean", "sb_mean", "sb_lower_bound")
FAMILY_PARAMS = (0.0, 1e-9, 1e-8, 2e-8, 0.3, UPPER_EDGE, 1.0, 3.0, -0.7, -3.0)


def _branch_edge_pairs():
    """Pairs on both sides of every branch switch of the scalar kernels."""
    out = []
    for b in (1.0, 37.5, 3e-7):
        for r in (0.0, 1e-12, -1e-12, 9.99e-5, 1.001e-4, -9.99e-5, -1.001e-4,   # |r| vs 1e-4
                  -0.5 + 1e-9, -0.5, -0.5 - 1e-9, 1.0 - 1e-9, 1.0, 1.0 + 1e-9,  # a/b vs 0.5, 2
                  1e6, -1.0 + 1e-6):
            out.append((b * (1.0 + r), b))
            out.append((b, b * (1.0 + r)))
    out += [(1e200, 1e200), (1e200, 1e150), (1e300, 1e10),     # a*b overflows in _geo
            (1e-200, 1e-150), (1e-310, 1e-300), (5e-324, 1.0),  # a*b underflows
            (1e300, 1e-8), (1e300, 1e-9), (1e-300, 1e7), (1e-300, 1e8)]  # a/b leaves the range
    return out


def _scalar_results(m):
    a, b = m
    out = {name: [globals()[name]((x, y)) for x, y in zip(a.tolist(), b.tolist())]
           for name in ARRAY_FUNCTIONS}
    for p in FAMILY_PARAMS:
        out[p] = [mean_family(p, (x, y)) for x, y in zip(a.tolist(), b.tolist())]
    encs = [log_mean_sandwich((x, y)) for x, y in zip(a.tolist(), b.tolist())]
    out["lo"] = [e.lo for e in encs]
    out["hi"] = [e.hi for e in encs]
    return out


def _same_bits(got, want) -> bool:
    # exact equality of every bit, so nan matches nan and -0.0 only -0.0
    want = np.array(want, dtype=float)
    return got.shape == want.shape and (got.view(np.uint64) == want.view(np.uint64)).all()


def _within_ulps(got, want, bound) -> bool:
    # |got - want| <= bound ulps of the scalar result want, elementwise; an
    # inf or nan must be matched bit for bit
    want = np.array(want, dtype=float)
    if got.shape != want.shape:
        return False
    fin = np.isfinite(want)
    err = np.abs(got[fin] - want[fin]) / np.spacing(np.abs(want[fin]))
    return _same_bits(got[~fin], want[~fin]) and bool((err <= np.broadcast_to(bound, fin.shape)[fin]).all())


def _assert_arrays_within_contract(a, b):
    # the means module's contract: 4 ulps of the scalar kernel for the
    # plain means, 8 + 2|p|x for the family and the sandwich ends
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    want = _scalar_results((a, b))
    for name in ARRAY_FUNCTIONS:
        assert _within_ulps(globals()[name]((a, b)), want[name], 4.0), name
    x = np.abs(want["half_log_ratio"])
    for p in FAMILY_PARAMS:
        assert _within_ulps(mean_family(p, (a, b)), want[p], 8.0 + 2.0 * abs(p) * x), p
    enc = log_mean_sandwich((a, b))
    assert _within_ulps(enc.lo, want["lo"], 8.0 + 2.0 * UPPER_EDGE * x)
    assert _within_ulps(enc.hi, want["hi"], 8.0 + 2.0 * x)


@pytest.mark.parametrize("seed", [20250810, 1, 2, 3, 7])
def test_array_kernels_match_scalar_on_random_pairs(seed):
    a, b = random_pairs(2000, seed)
    _assert_arrays_within_contract(a, b)


def test_array_kernels_match_scalar_on_branch_edges():
    pairs = _branch_edge_pairs()
    _assert_arrays_within_contract([a for a, _ in pairs], [b for _, b in pairs])


def test_array_results_follow_scalar_exceptions():
    # an overflow the scalar kernel raises is raised for the array too
    big = (np.array([1.0, 1.7e308]), np.array([1.0, 1e-300]))
    with pytest.raises(OverflowError):
        mean_family(3.0, (1.7e308, 1e-300))
    with pytest.raises(OverflowError):
        mean_family(3.0, big)


def _family_mp(p, a, b):
    """mean_family at 60 digits from the exact a and b."""
    with mp.workdps(60):
        a, b, p = mp.mpf(a), mp.mpf(b), mp.mpf(p)
        x = abs(mp.log(a / b)) / 2
        return mp.sqrt(a * b) * (1 + 2 / (3 * p * p) * mp.sinh(p * x / 2) ** 2)


def _family_ulp_bound(p, a, b):
    # 16 ulps of arithmetic plus the family's condition in x = |half log
    # ratio|: the factor ~ e^(px) turns x's relative rounding into px of
    # the mean's
    return 16.0 + 2.0 * p * abs(half_log_ratio((a, b)))


def _overflow_rescue_cases():
    """(p, a, b): G * family factor overflows, the mean is finite, G normal."""
    out = []
    for ea in range(-323, -150, 7):
        for eb in range(-20, 300, 11):
            a, b = 10.0 ** ea, 10.0 ** eb
            if not a * b >= 2.3e-308:
                continue
            x = 0.5 * (math.log(b) - math.log(a))
            for p in (1.5, 2.0, 3.0, 5.0, 8.0):
                y = 0.5 * p * x
                if 355.0 < y < 710.0 and math.log(a * b) / 2 + 2 * y < 709.0:
                    out.append((p, a, b))
    return out


def test_mean_family_survives_factor_overflow():
    # G tiny, the family factor huge, their product in range
    assert mean_family(2.0, (5e-324, 1.0)) == pytest.approx(1.8745474143929985e160, rel=1e-12)
    cases = _overflow_rescue_cases() + [(2.0, 5e-324, 1.0), (2.0, 1.0, 5e-324)]
    assert len(cases) > 100
    got = np.array([mean_family(p, (a, b)) for p, a, b in cases])
    for (p, a, b), v in zip(cases, got.tolist()):
        assert math.isfinite(v)
        err = float(abs(mp.mpf(v) - _family_mp(p, a, b))) / math.ulp(v)
        assert err <= _family_ulp_bound(p, a, b), (p, a, b, err)
    # the same bits for array pairs and for the monotone check's rows
    for p in sorted({c[0] for c in cases}):
        idx = [i for i, c in enumerate(cases) if c[0] == p]
        a = np.array([cases[i][1] for i in idx])
        b = np.array([cases[i][2] for i in idx])
        arr = mean_family(p, (a, b))
        assert _same_bits(arr, got[idx])
        assert _same_bits(means._mean_family_rows([0.5, p], a, b)[1][1], arr)
    # a mean beyond the double range stays inf
    assert mean_family(3.0, (1e300, 1e10)) == math.inf
    assert _same_bits(mean_family(3.0, (np.array([1e300, 2.0]), np.array([1e10, 1.0]))),
                      [math.inf, mean_family(3.0, (2.0, 1.0))])


def test_mean_family_beyond_sinh_range():
    # sinh(px/2) overflows while the mean is finite; only a subnormal G
    # allows that, and its rounding carries into the mean
    a, b = 2.0 ** -1074, 2.0 ** -1045
    for p in (142.0, 142.5):
        v = mean_family(p, (a, b))
        g = geometric_mean((a, b))
        tol = math.ulp(g) / g * v + _family_ulp_bound(p, a, b) * math.ulp(v)
        assert abs(mp.mpf(v) - _family_mp(p, a, b)) <= tol
        assert _same_bits(mean_family(p, (np.array([a, 1.0]), np.array([b, 2.0]))),
                          [v, mean_family(p, (1.0, 2.0))])
    with pytest.raises(OverflowError):
        mean_family(150.0, (a, b))  # beyond the double range


def test_mean_family_unscaled_where_in_range():
    # every product in range keeps the bits of G * cosh_bound
    for p, a, b in _overflow_rescue_cases()[::5]:
        for q in (0.5 * p, 0.25 * p, 1e-9):
            want = geometric_mean((a, b)) * cosh_bound(q, abs(half_log_ratio((a, b))))
            assert mean_family(q, (a, b)) == want


def test_sb_array_pairs_admit_a_zero():
    a, b = np.array([0.0, 0.0, 1.0]), np.array([1.0, 2.0, 4.0])
    for fn in (sb_mean, sb_lower_bound):
        assert _within_ulps(fn((a, b)), [fn((x, y)) for x, y in zip(a.tolist(), b.tolist())], 4.0)


@pytest.mark.parametrize("bad_a, bad_b", [
    ([1.0, math.nan], [1.0, 2.0]),
    ([1.0, 2.0], [math.inf, 2.0]),
    ([1.0, -math.inf], [1.0, 2.0]),
    ([1.0, 0.0], [1.0, 2.0]),
    ([1.0, -1.0], [1.0, 2.0]),
    ([1.0, 2.0], [1.0, 0.0]),
    ([1.0, 2.0], [1.0, 2.0, 3.0]),
    ([[1.0, 2.0]], [[1.0, 2.0]]),
])
def test_array_pair_validation(bad_a, bad_b):
    m = (np.array(bad_a), np.array(bad_b))
    sb_ok = np.shape(bad_a) == np.shape(bad_b) == (2,) and bad_b[1] > 0.0 and bad_a[1] == 0.0
    for name in ARRAY_FUNCTIONS:
        if name.startswith("sb") and sb_ok:
            globals()[name](m)  # a = 0 is in the Schwab-Borchardt domain
            continue
        with pytest.raises(ValueError):
            globals()[name](m)
    with pytest.raises(ValueError):
        mean_family(0.5, m)
    with pytest.raises(ValueError):
        log_mean_sandwich(m)


def test_array_sandwich_contains_is_elementwise():
    m = random_pairs(500, seed=21)
    hits = log_mean_sandwich(m).contains(log_mean(m))
    assert hits.dtype == bool and hits.all()
    one = MeanPoint(float(m[0][0]), float(m[1][0]))
    assert type(log_mean_sandwich(one).contains(log_mean(one))) is bool


class _CountingMath:
    """The math module, counting the calls made through it."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        attr = getattr(math, name)
        if not callable(attr):
            return attr

        def counted(*args):
            self.calls += 1
            return attr(*args)
        return counted


def test_array_kernels_make_no_per_element_math_calls(monkeypatch):
    # ordinary pairs run on numpy's ufuncs alone; only the rare rescues
    # go through the scalar kernels
    m = random_pairs(10_000, seed=4)
    counter = _CountingMath()
    monkeypatch.setattr(means, "math", counter)
    log_mean(m), sb_mean(m), sb_lower_bound(m), mean_family(UPPER_EDGE, m), log_mean_sandwich(m)
    assert counter.calls == 0
    sb_lower_bound((np.array([1e210, 1.0]), np.array([1e210, 2.0])))  # one rescued element
    assert counter.calls > 0


def test_array_sandwich_contains_the_50_digit_log_mean():
    # the 16-ulp slack covers the ends' rounding with numpy's ufuncs; at
    # nearly equal pairs the unwidened ends fall up to ~2 ulps outside L
    a, b = random_pairs(2000, seed=19)
    near_a, near_b = random_pairs(1000, seed=19, ratio_span=(1.0 - 1e-3, 1.0 + 1e-3))
    edges = _branch_edge_pairs()
    a = np.concatenate([a, near_a, [x for x, _ in edges]])
    b = np.concatenate([b, near_b, [y for _, y in edges]])
    enc = log_mean_sandwich((a, b))
    with mp.workdps(50):
        for x, y, lo, hi in zip(a.tolist(), b.tolist(), enc.lo.tolist(), enc.hi.tolist()):
            am, bm = mp.mpf(x), mp.mpf(y)
            truth = am if x == y else (am - bm) / mp.log(am / bm)
            assert lo <= truth <= hi, (x, y)


# ------------------------------------------------- the log kernels' reference
# The log kernels as written with a separate ln(a/b) helper, each form
# choosing its log on its own; the kernels derived from the half log ratio
# must keep their bits.

def _ref_log_ratio(a, b, q):
    if means._MIN_NORMAL <= q < math.inf:
        return math.log(q)
    return math.log(a) - math.log(b)


def _ref_half_log_ratio(a, b):
    if a == b:
        return 0.0
    q = a / b
    if 0.5 < q < 2.0:
        return 0.5 * math.log1p((a - b) / b)
    return 0.5 * _ref_log_ratio(a, b, q)


def _ref_log_mean(a, b):
    if a == b:
        return a
    r = (a - b) / b
    q = a / b
    if 0.5 < q < 2.0:
        return (a - b) / math.log1p(r)
    return (a - b) / _ref_log_ratio(a, b, q)


def _ref_log_ratio_arrays(a, b, q):
    wide = ~((means._MIN_NORMAL <= q) & (q < np.inf))
    out = np.log(np.where(wide, a, q))
    out[wide] -= np.log(b[wide])
    return out


def _ref_half_log_ratio_arrays(a, b):
    out = np.zeros_like(a)
    q = a / b
    ne = a != b
    near = ne & (0.5 < q) & (q < 2.0)
    far = ne & ~near
    an, bn = a[near], b[near]
    out[near] = 0.5 * np.log1p((an - bn) / bn)
    out[far] = 0.5 * _ref_log_ratio_arrays(a[far], b[far], q[far])
    return out


def _ref_log_mean_arrays(a, b):
    out = a.copy()
    r = (a - b) / b
    q = a / b
    ne = a != b
    near = ne & (0.5 < q) & (q < 2.0)
    far = ne & ~near
    out[near] = (a[near] - b[near]) / np.log1p(r[near])
    out[far] = (a[far] - b[far]) / _ref_log_ratio_arrays(a[far], b[far], q[far])
    return out


def _log_sweep_pairs(n=4500):
    """Seeded pairs over every branch of the log kernels: ratios across the
    0.5/2 switch, within 1e-12 of 1 and within 1e-3 of 1;
    scales near 1e-320 and 1.7e308; far ratios between any two scales that
    send a/b out of the normal range; and a = b."""
    rng = np.random.default_rng(20250810)

    def log_uniform(lo, hi):
        return 10.0 ** rng.uniform(lo, hi, n)

    b = log_uniform(-3.0, 3.0)
    groups = [random_pairs(n, 22, ratio_span=(0.25, 4.0)),
              (b * (1.0 + rng.uniform(-1e-12, 1e-12, n)), b),
              (b * (1.0 + rng.uniform(-1e-3, 1e-3, n)), b),
              (1e-320 * log_uniform(0.0, 1.3), 1e-320 * log_uniform(0.0, 1.3)),
              (1.7e308 * log_uniform(-1.3, 0.0), 1.7e308 * log_uniform(-1.3, 0.0)),
              (log_uniform(-320.0, 308.2), log_uniform(-320.0, 308.2))]
    same = log_uniform(-320.0, 308.2)
    groups.append((same, same.copy()))
    a, b = (np.concatenate(side) for side in zip(*groups))
    return a, b


def _log_sweep_results(a, b):
    """log_mean, half_log_ratio, mean_family at four p and both sandwich
    ends, of the array pair and of each number pair."""
    numbers = list(zip(a.tolist(), b.tolist()))
    fns = {"half_log_ratio": half_log_ratio, "log_mean": log_mean,
           **{p: lambda m, p=p: mean_family(p, m) for p in (0.0, 0.5, UPPER_EDGE, 1.0)}}
    out = {}
    for name, fn in fns.items():
        out[name, "array"] = fn((a, b))
        out[name, "number"] = [fn(m) for m in numbers]
    enc = log_mean_sandwich((a, b))
    encs = [log_mean_sandwich(m) for m in numbers]
    out["lo", "array"], out["hi", "array"] = enc.lo, enc.hi
    out["lo", "number"], out["hi", "number"] = [e.lo for e in encs], [e.hi for e in encs]
    return out


def test_log_kernels_keep_the_reference_bits(monkeypatch):
    a, b = _log_sweep_pairs()
    assert len(a) >= 30_000 and (a > 0.0).all() and (b > 0.0).all()
    assert np.isfinite(a).all() and np.isfinite(b).all()
    assert (a == b).sum() >= 4500 and (a < 1e-319).any() and (b > 1.6e308).any()
    got = _log_sweep_results(a, b)
    for name in ("_half_log_ratio", "_half_log_ratio_arrays", "_log_mean", "_log_mean_arrays"):
        monkeypatch.setattr(means, name, globals()[f"_ref{name}"])
    want = _log_sweep_results(a, b)
    for key, values in got.items():
        assert _same_bits(np.asarray(values, dtype=float), want[key]), key


@pytest.mark.parametrize("name", ARRAY_FUNCTIONS + ("mean_family", "log_mean_sandwich"))
def test_a_list_pair_gives_the_bits_of_its_array_pair(name):
    # core's rule: a pair that is not two numbers is an array pair
    fn = (lambda m: mean_family(UPPER_EDGE, m)) if name == "mean_family" else globals()[name]
    a, b = random_pairs(200, seed=5)
    want = fn((a, b))
    for pair in ((a.tolist(), b.tolist()), [tuple(a.tolist()), tuple(b.tolist())]):
        got = fn(pair)
        if name == "log_mean_sandwich":
            assert _same_bits(got.lo, want.lo) and _same_bits(got.hi, want.hi)
        else:
            assert _same_bits(got, want)
    with pytest.raises(ValueError, match="1-D arrays of one length"):
        fn(([1.0, 2.0], 1.0))
