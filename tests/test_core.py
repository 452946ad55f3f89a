import math
import re
import warnings
from dataclasses import dataclass
from functools import partial

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sincbounds import core
from sincbounds.constants import quartic_constants
from sincbounds.integrals import catalan_reference
from sincbounds.means import comparison_coeff
from sincbounds.verifier import verify_leibniz_ratio
from sincbounds.core import (
    CoefficientSeq,
    GapEvaluation,
    GapMethod,
    SERIES_SWITCH,
    _gap_series,
    cos_bound,
    cos_power_bound,
    cosh_bound,
    cosh_power_bound,
    gap_series_coeff,
    quartic_gap_coeff,
    sinc,
    sinc_gap,
    sinhc,
    sinhc_gap,
    sinhc_gap_scaled,
)

EPS = math.ulp(1.0)
UPPER_EDGE = math.sqrt(15.0) / 5.0


# ---------------------------------------------------------------- sinc/sinhc

def test_sinc_values():
    assert sinc(0.0) == 1.0
    assert sinc(math.pi / 2) == pytest.approx(2.0 / math.pi, rel=1e-15)
    assert sinc(1.0) == pytest.approx(0.841470984807897, rel=1e-14)


def test_sinc_relative_accuracy():
    # contract: relative error <= 4 machine epsilons
    for x in np.linspace(1e-8, math.pi - 1e-3, 211):
        with mp.workdps(40):
            truth = mp.sin(mp.mpf(x)) / mp.mpf(x)
        assert abs(sinc(float(x)) - float(truth)) <= 4 * EPS * abs(float(truth))


def test_sinhc_values():
    assert sinhc(0.0) == 1.0
    assert sinhc(1.0) == pytest.approx(1.1752011936438014, rel=1e-15)


@given(st.floats(-30.0, 30.0, allow_nan=False))
def test_sinc_sinhc_even(x):
    assert sinc(-x) == sinc(x)
    assert sinhc(-x) == sinhc(x)


def test_sinhc_overflow_signalled():
    with pytest.raises(OverflowError):
        sinhc(1e4)
    with pytest.raises(FloatingPointError):
        sinhc(np.array([1.0, 1e4]))


def test_sinc_sinhc_arrays_match_gather_form():
    # the masked divide gives what dividing only at x != 0 gave, bit for bit
    grids = (np.linspace(0.0, math.pi / 2.0, 65538)[1:-1], np.linspace(-50.0, 50.0, 65537),
             np.array([0.0, -0.0, 5e-324, -1e-300, 1e-8, 700.0]))
    for x in grids:
        nz = x != 0.0
        for fn, ufunc in ((sinc, np.sin), (sinhc, np.sinh)):
            want = np.ones_like(x)
            want[nz] = ufunc(x[nz]) / x[nz]
            assert np.array_equal(fn(x), want)


def test_array_paths_match_scalar():
    xs = np.linspace(0.01, 1.5, 13)
    np.testing.assert_allclose(sinc(xs), [sinc(float(x)) for x in xs], rtol=1e-15)
    np.testing.assert_allclose(cos_bound(0.6, xs), [cos_bound(0.6, float(x)) for x in xs], rtol=1e-15)
    np.testing.assert_allclose(cosh_bound(0.6, xs), [cosh_bound(0.6, float(x)) for x in xs], rtol=1e-15)


# ------------------------------------------------------------ bound families

def test_cos_bound_classic_member():
    # p = 1 collapses to (cos x + 2)/3
    for x in (0.3, 1.0, math.pi / 2):
        assert cos_bound(1.0, x) == pytest.approx((math.cos(x) + 2.0) / 3.0, rel=1e-15)
    assert cos_bound(1.0, math.pi / 2) == pytest.approx(2.0 / 3.0, rel=1e-15)


def test_cos_bound_limit_family():
    assert cos_bound(0.0, 1.0) == pytest.approx(5.0 / 6.0, rel=1e-15)
    # continuity in p at 0
    for x in (0.2, 0.9, 1.5):
        assert cos_bound(1e-7, x) == pytest.approx(cos_bound(0.0, x), abs=1e-13)


def test_cos_bound_square_identity():
    # p = sqrt(2/3) is cos^2(x/sqrt6) in disguise
    p = math.sqrt(2.0 / 3.0)
    x = math.sqrt(6.0) * math.pi / 3.0
    assert cos_bound(p, x) == pytest.approx(0.25, rel=1e-14)
    for x in np.linspace(0.1, 2.0, 9):
        assert cos_bound(p, x) == pytest.approx(math.cos(x / math.sqrt(6.0)) ** 2, rel=1e-14)


@pytest.mark.parametrize("p", [0.1, 0.7708607411268668, 1.0])  # 0.77... is p0, the lower edge
def test_cos_bound_within_its_stated_ulps_of_mpmath(p):
    # 1.5 ulps of max(1, |v|) on 4,001 points of [0, pi/2], on the number
    # and the array path; 1 - w s^2 rounds in ulps of 1, so the bound is in those
    xs = np.linspace(0.0, math.pi / 2, 4001)
    with mp.workdps(40):
        pm = mp.mpf(p)
        w = 1 / (3 * pm * pm)
        for x, got in zip(xs, cos_bound(p, xs)):
            truth = w * mp.cos(pm * mp.mpf(x)) + 1 - w
            ulp = math.ulp(max(1.0, abs(float(truth))))
            for v in (cos_bound(p, float(x)), got):
                assert abs(mp.mpf(v) - truth) <= 1.5 * ulp, (x, v)


def test_cosh_bound_values():
    for x in (0.5, 2.0):
        assert cosh_bound(1.0, x) == pytest.approx((math.cosh(x) + 2.0) / 3.0, rel=1e-15)
    assert cosh_bound(0.0, 1.0) == pytest.approx(7.0 / 6.0, rel=1e-15)
    p = 2.0 / math.sqrt(3.0)
    for x in np.linspace(0.1, 5.0, 9):
        expect = 0.5 * math.cosh(x / math.sqrt(3.0)) ** 2 + 0.5
        assert cosh_bound(p, x) == pytest.approx(expect, rel=1e-14)


@pytest.mark.parametrize("fn", [
    cos_bound, cosh_bound, sinc_gap, sinhc_gap, sinhc_gap_scaled, cos_power_bound,
    cosh_power_bound, lambda p, x: quartic_gap_coeff(p), lambda p, x: quartic_constants(p),
], ids=["cos_bound", "cosh_bound", "sinc_gap", "sinhc_gap", "sinhc_gap_scaled",
        "cos_power_bound", "cosh_power_bound", "quartic_gap_coeff", "quartic_constants"])
@pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf, -0.1])
@pytest.mark.parametrize("x", [0.3, np.array([0.3, 1.2]), np.int64(1), np.float32(0.3),
                               np.array(0.3), [0.3, 1.2]],
                         ids=["number", "array", "int64", "float32", "0-d", "list"])
def test_family_parameter_validation(fn, p, x):
    with pytest.raises(ValueError):
        fn(p, x)


# float.hex of each function at np.int64(1), np.float32(0.25), np.array(0.7)
# and np.array(2), as it was when every x went through np.ndim; None where
# it raises ValueError.  The limit p = 1e-9 converts x to a float first, as
# every other p does, so np.float32(0.25) gives the value at the double 0.25.
# sinhc_gap_scaled's values are those of its w (1 - e^{-px})^2 + e^{-px} form.
NUMPY_NUMBER_VALUES = {
    (cos_power_bound, 1e-9): ("0x1.b1660d7a223b1p-1", "0x1.fab1c0ce7a11bp-1",
                              "0x1.d7d93742f6ebbp-1", "0x1.06de9bcee72dep-1"),
    (cos_power_bound, 0.6): ("0x1.ac9fa2efeda89p-1", "0x1.faaca7dbb88afp-1",
                             "0x1.d6a9282cac437p-1", "0x1.9008047973592p-2"),
    (cosh_power_bound, 1e-9): ("0x1.2e6da2d20c08ap+0", "0x1.02ae3c0ec0dccp+0",
                               "0x1.15c8b9485fbfdp+0", "0x1.f29eb2b7a2c0cp+0"),
    (cosh_power_bound, 0.6): ("0x1.2badafe63a117p+0", "0x1.02aba9cb6173fp+0",
                              "0x1.1525cb39bef95p+0", "0x1.bb95c2fbb286ep+0"),
    (sinhc_gap_scaled, 1e-9): (None, None, None, None),
    (sinhc_gap_scaled, 0.6): ("0x1.f3d1006606600p-10", "0x1.7906aa3870000p-17",
                              "0x1.195b6bca42400p-11", "0x1.36048ceb45c70p-6"),
}


@pytest.mark.parametrize("fn, p", NUMPY_NUMBER_VALUES,
                         ids=[f"{fn.__name__}-{p}" for fn, p in NUMPY_NUMBER_VALUES])
def test_numpy_numbers_keep_their_values(fn, p):
    xs = (np.int64(1), np.float32(0.25), np.array(0.7), np.array(2))
    for x, want in zip(xs, NUMPY_NUMBER_VALUES[fn, p]):
        if want is None:
            with pytest.raises(ValueError):
                fn(p, x)
        else:
            got = fn(p, x)
            assert type(got) is float and got.hex() == want, (p, x)


@pytest.mark.parametrize("fn", [
    lambda p, x: sinc(x), lambda p, x: sinhc(x), cos_bound, cosh_bound, cos_power_bound,
    cosh_power_bound, sinhc_gap_scaled,
], ids=["sinc", "sinhc", "cos_bound", "cosh_bound", "cos_power_bound", "cosh_power_bound",
        "sinhc_gap_scaled"])
def test_a_list_takes_the_array_path(fn):
    # at the p -> 0 limits too; a p outside fn's range raises for both forms
    for p in (0.6, 0.0, 1e-9):
        try:
            want = fn(p, np.array([0.25, 1.0, 1.5]))
        except ValueError:
            for x in ([0.25, 1, 1.5], (0.25, 1, 1.5)):
                with pytest.raises(ValueError):
                    fn(p, x)
            continue
        for x in ([0.25, 1, 1.5], (0.25, 1, 1.5)):
            got = fn(p, x)
            assert isinstance(got, np.ndarray) and np.array_equal(got, want), (p, x)


@pytest.mark.parametrize("fn", [cos_bound, cosh_bound])
@pytest.mark.parametrize("p", [0.0, 1e-9])
def test_a_float32_array_at_the_limit_is_computed_in_doubles(fn, p):
    x = np.array([0.25, 1.0, 2.5], dtype=np.float32)
    got = fn(p, x)
    assert got.dtype == np.float64 and np.array_equal(got, fn(p, x.astype(float)))


def test_a_float32_number_at_the_limit_does_not_overflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = cos_bound(0.0, np.float32(1e20))
    x = float(np.float32(1e20))
    assert type(got) is float and math.isfinite(got) and got == 1.0 - x * x / 6.0


@given(
    p=st.floats(0.0, 1.0),
    q=st.floats(0.0, 1.0),
    x=st.floats(0.05, 1.5),
)
def test_cos_bound_monotone_in_p(p, q, x):
    if q < p:
        p, q = q, p
    if q - p < 1e-4:
        return
    assert cos_bound(p, x) < cos_bound(q, x)


@given(
    p=st.floats(0.0, 3.0),
    q=st.floats(0.0, 3.0),
    x=st.floats(0.05, 10.0),
)
def test_cosh_bound_monotone_in_p(p, q, x):
    if q < p:
        p, q = q, p
    if q - p < 1e-4:
        return
    assert cosh_bound(p, x) < cosh_bound(q, x)


def test_bound_param_derivative_positive():
    # d/dp of the trig family: (2 - 2 cos(px) - px sin(px)) / (3 p^3) > 0
    for p in np.linspace(0.05, 1.0, 12):
        for x in np.linspace(0.05, math.pi / 2 - 0.01, 12):
            u = p * x
            assert 2.0 - 2.0 * math.cos(u) - u * math.sin(u) > 0.0


# ------------------------------------------------------------- gap functions

def test_gap_trig_values():
    near0 = sinc_gap(0.5, 1e-8)
    assert near0.method is GapMethod.SERIES
    assert abs(near0.value) < 1e-32
    g1 = sinc_gap(1.0, math.pi / 2)
    assert g1.method is GapMethod.DIRECT
    assert g1.value == pytest.approx(2.0 / math.pi - 2.0 / 3.0, rel=1e-13)
    g_half = sinc_gap(0.5, math.pi / 2)
    assert g_half.value == pytest.approx(2.0 / math.pi - 2.0 * math.sqrt(2.0) / 3.0 + 1.0 / 3.0, rel=1e-12)
    assert g_half.value > 0.0


def test_gap_hyp_signs():
    assert abs(sinhc_gap(0.5, 1e-8).value) < 1e-32  # vanishes at the origin
    for x in (0.1, 1.0, 5.0, 20.0):
        assert sinhc_gap(UPPER_EDGE, x).value > 0.0
        assert sinhc_gap(1.0, x).value < 0.0


def test_gap_even_in_x():
    for p, x in ((0.3, 0.2), (0.9, 1.2)):
        assert sinc_gap(p, -x).value == sinc_gap(p, x).value
        assert sinhc_gap(p, -x).value == sinhc_gap(p, x).value


def test_gap_method_switch():
    assert sinc_gap(0.7, SERIES_SWITCH).method is GapMethod.SERIES
    assert sinc_gap(0.7, SERIES_SWITCH + 1e-6).method is GapMethod.DIRECT
    assert sinhc_gap(0.7, 0.2).method is GapMethod.SERIES
    assert sinhc_gap(0.7, 3.0).method is GapMethod.DIRECT


def test_gap_series_certified_against_high_precision():
    # |true - value| <= tail_bound on the series path, broad sweep
    with mp.workdps(40):
        for p in (0.05, 0.3, 0.5, 0.7, UPPER_EDGE, 0.9, 1.0):
            pm = mp.mpf(p)
            for x in (1e-4, 1e-3, 0.02, 0.1, 0.25, 0.35, 0.45, 0.5):
                xm = mp.mpf(x)
                truth = mp.sin(xm) / xm - (mp.cos(pm * xm) / (3 * pm * pm) + 1 - 1 / (3 * pm * pm))
                got = sinc_gap(p, x)
                assert got.method is GapMethod.SERIES
                assert abs(got.value - float(truth)) <= got.tail_bound
        for p in (0.2, 0.6, UPPER_EDGE, 1.0, 2.0 / math.sqrt(3.0), 1.5):
            pm = mp.mpf(p)
            for x in (1e-3, 0.1, 0.3, 0.5):
                xm = mp.mpf(x)
                truth = mp.sinh(xm) / xm - (mp.cosh(pm * xm) / (3 * pm * pm) + 1 - 1 / (3 * pm * pm))
                got = sinhc_gap(p, x)
                assert abs(got.value - float(truth)) <= got.tail_bound


def _series_domain_sweep(k):
    """(p, x, hyperbolic) over the series domain, |x| <= SERIES_SWITCH and
    p|x| <= 2: p at its edges and k uniform in [0, 4] and k log-uniform in
    [1, 1e308], x at the domain's edge, inside it and at 1e-3 of the edge."""
    rng = np.random.default_rng(13)
    ps = [0.0, 4.0, math.nextafter(4.0, math.inf), 1e-300, 1e300, 1.7e308]
    ps += [*rng.uniform(0.0, 4.0, k), *10.0 ** rng.uniform(0.0, 308.0, k)]
    for p in map(float, ps):
        edge = min(SERIES_SWITCH, 2.0 / p) if p else SERIES_SWITCH
        while p * edge > 2.0:
            edge = math.nextafter(edge, 0.0)
        for x in (edge, 0.37 * edge, 1e-3 * edge):
            yield p, x, False
            yield p, x, True


def test_gap_series_returns_by_n_13(monkeypatch):
    # the series' order, _SERIES_MAX_TERMS, is not a guess: a table cut to
    # n <= 13 gives every value and tail bound, and one cut to n <= 12 does not
    assert core._SERIES_STEPS[-1][0] == core._SERIES_MAX_TERMS >= 13
    sweep = list(_series_domain_sweep(5000))
    full = [_gap_series(*args) for args in sweep]
    steps = core._SERIES_STEPS
    monkeypatch.setattr(core, "_SERIES_STEPS", tuple(s for s in steps if s[0] <= 13))
    assert [_gap_series(*args) for args in sweep] == full
    monkeypatch.setattr(core, "_SERIES_STEPS", tuple(s for s in steps if s[0] <= 12))
    with pytest.raises(RuntimeError, match="did not converge"):
        for args in sweep:
            _gap_series(*args)


def _flip_sign_gap_series(p, x, hyperbolic):
    """_gap_series as it was when the loop flipped a sign each term, took
    k * b twice, formed every majorant and scaled by max(1, |total|)."""
    x2 = x * x
    if p <= 4.0:
        c = p * p
        m, a, b = x2 * x2 / 360.0, 3.0, c
        m_step, a_step, b_step = x2, 1.0, c
    else:
        u2 = (p * x) ** 2
        inv_c = 1.0 / p / p
        m, a, b = u2 * x2 / 360.0, 3.0 * inv_c, 1.0
        m_step, a_step, b_step = u2, inv_c, 1.0
    total = 0.0
    sign = 1.0
    round_acc = 0.0
    for n in range(2, 17):
        k, nk, d = float(2 * n + 1), float(n * (2 * n + 1)), float((2 * n + 2) * (2 * n + 3))
        majorant = m * (a + k * b)
        if n >= 6 and majorant < 1e-20 * max(1.0, abs(total)):
            tail = 2.0 * majorant + 4.0 * EPS * round_acc
            return total, tail
        term = (a - k * b) * m
        total += term if hyperbolic else sign * term
        round_acc += m * (a + nk * b)
        sign = -sign
        m *= m_step / d
        a *= a_step
        b *= b_step
    raise RuntimeError("gap series did not converge (x outside the series range?)")


def test_gap_series_matches_the_flip_sign_loop():
    # the same value and tail bound, repr for repr, over the series domain's
    # edges and down to x ~ 1e-300
    rng = np.random.default_rng(33)
    sweep = list(_series_domain_sweep(2000))
    sweep += [(p, x * 10.0 ** -rng.uniform(0.0, 297.0), h) for p, x, h in sweep]
    for args in sweep:
        assert repr(_gap_series(*args)) == repr(_flip_sign_gap_series(*args)), args


def test_series_direct_agreement_across_switch():
    # the two evaluation routes agree within tail + cancellation slack
    for p in (0.1, 0.5, UPPER_EDGE, 1.0):
        for x in np.linspace(0.05, 0.7, 14):
            value, tail = _gap_series(p, float(x), hyperbolic=False)
            direct = sinc(float(x)) - cos_bound(p, float(x))
            assert abs(value - direct) <= tail + 16 * EPS
    for p in (0.5, UPPER_EDGE, 1.2):
        for x in np.linspace(0.05, 0.7, 14):
            value, tail = _gap_series(p, float(x), hyperbolic=True)
            direct = sinhc(float(x)) - cosh_bound(p, float(x))
            assert abs(value - direct) <= tail + 16 * EPS


# ------------------------------------------------------- series coefficients

def test_gap_series_coeff_basics():
    for c in (0.0, 0.3, 0.6):
        assert gap_series_coeff(1, c) == 0.0
        assert gap_series_coeff(2, c) == pytest.approx(3.0 - 5.0 * c, rel=1e-15)
    ratio = gap_series_coeff(4, 0.6) / gap_series_coeff(3, 0.6)
    assert ratio == pytest.approx(11.0 / 5.0, rel=1e-13)


def test_gap_series_coeff_power_overflow():
    # c^(n-1) itself overflows (1e1990), not the product with 2n+1
    message = r"gap_series_coeff overflows the double range at c=10000000000\.0$"
    with pytest.raises(OverflowError, match=message):
        gap_series_coeff(200, 1e10)


# each count's function and least value
COUNTS = {
    "gap_series_coeff": (lambda n: gap_series_coeff(n, 0.5), 1),
    "ratio_excess": (lambda n: CoefficientSeq(0.5).ratio_excess(n), 3),
    "verify_leibniz_ratio": (lambda n: verify_leibniz_ratio(0.5, n), 4),
    "comparison_coeff": (comparison_coeff, 1),
    "catalan_reference": (catalan_reference, 1),
}


@pytest.mark.parametrize("count", COUNTS)
def test_a_numpy_integer_counts_as_its_int(count):
    # test_contract's count rows give each rejected count's words, but meet a
    # numpy integer only at 65, past catalan_reference's 21 terms; here it is
    # one above each least value
    fn, least = COUNTS[count]
    assert fn(np.int64(least + 1)) == fn(least + 1)


def test_coefficient_seq_invariants():
    for c in np.linspace(0.05, 0.6, 12):
        seq = CoefficientSeq(float(c))
        for n in range(1, 101):
            assert seq.term(n) >= 0.0
        for n in range(3, 100):
            excess = seq.ratio_excess(n)
            assert excess > 0.0  # ratio strictly above 1
            assert seq.term(n + 1) / seq.term(n) <= 11.0 / 5.0 + 1e-12


def test_quartic_gap_coeff():
    assert abs(quartic_gap_coeff(UPPER_EDGE)) < 1e-16
    assert quartic_gap_coeff(0.0) == pytest.approx(1.0 / 120.0, rel=1e-15)
    assert quartic_gap_coeff(1.0) == pytest.approx(-1.0 / 180.0, rel=1e-15)


def test_quartic_coeff_matches_richardson_extrapolation():
    # independent oracle: extrapolate gap(x)/x^4 as x -> 0
    def extrapolated(p, hyperbolic):
        gap = sinhc_gap if hyperbolic else sinc_gap
        xs = [0.4 / 2 ** k for k in range(5)]
        table = [gap(p, x).value / x ** 4 for x in xs]
        for level in range(1, 5):
            table = [
                (4 ** level * table[i + 1] - table[i]) / (4 ** level - 1)
                for i in range(len(table) - 1)
            ]
        return table[0]

    for p in (0.0, 0.3, UPPER_EDGE, 1.0):
        assert extrapolated(p, False) == pytest.approx(quartic_gap_coeff(p), abs=1e-8)
    for p in (0.3, UPPER_EDGE, 1.5):  # same limit on the hyperbolic side
        assert extrapolated(p, True) == pytest.approx(quartic_gap_coeff(p), abs=1e-8)


# ----------------------------------------------------------- power-form bounds

def test_cos_power_bound():
    for x in (0.3, 1.0, 1.5):
        assert cos_power_bound(1.0, x) == pytest.approx(math.cos(x) ** (1.0 / 3.0), rel=1e-14)
    p = 1.0 / math.sqrt(3.0)  # exponent collapses to 1
    for x in (0.3, 1.2):
        assert cos_power_bound(p, x) == pytest.approx(math.cos(p * x), rel=1e-14)
    assert cos_power_bound(0.5, 1e-9) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        cos_power_bound(1.0, 2.0)  # cos(2) < 0


def test_cosh_power_bound():
    p = 1.0 / math.sqrt(3.0)
    for x in (0.4, 2.0):
        assert cosh_power_bound(p, x) == pytest.approx(math.cosh(p * x), rel=1e-14)
    assert cosh_power_bound(0.5, 1e-9) == pytest.approx(1.0, abs=1e-12)
    # additive family beats the power form between 1/sqrt3 and the upper edge
    assert cosh_bound(0.76, 1.0) > cosh_power_bound(0.76, 1.0)


@pytest.mark.parametrize("p", [2e-8, 1e-7, 1e-6, 1e-4, 1e-3, 1e-2, 0.1, 0.3, 0.44, 0.449])
def test_power_forms_match_mpmath_at_small_p(p):
    # the plain power multiplies cos(px)'s or cosh(px)'s rounding error by
    # 1/(3p^2), 3.6e-3 relative for cosh at p = 1e-7, x = 1; the bound
    # allows the result's own condition in p*x, about 2|ln v| ulps
    with mp.workdps(50):
        for x in (1e-3, 0.5, 1.0, 2.0, 3.0, 3.4):
            for fn, f in ((cos_power_bound, mp.cos), (cosh_power_bound, mp.cosh)):
                if fn is cos_power_bound and p * x >= 1.5:
                    continue
                want = f(mp.mpf(p) * x) ** (1 / (3 * mp.mpf(p) ** 2))
                tol = (4 + 2 * abs(mp.log(want))) * EPS
                for got in (fn(p, x), fn(p, np.array([x]))[0]):
                    assert abs(got - want) / want <= tol, (fn.__name__, x)


@pytest.mark.parametrize("p, message", [
    (1.5, "trig family parameter must lie in [0, 1], got 1.5"),
    (0.0, "p must be positive, got 0.0"),
    (-0.5, "parameter must be finite and >= 0, got -0.5"),
], ids=["above-1", "zero", "negative"])
def test_cos_power_bound_reads_p_by_the_trig_rule(p, message):
    for x in (0.3, np.array([0.3])):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cos_power_bound(p, x)


# ------------------------------------------------------------- scaled gap

def test_scaled_gap_limits():
    # exponentially scaled gap tends to -1/(6p^2) for p > 1, -1/6 at p = 1
    assert sinhc_gap_scaled(1.0, 1e8) == pytest.approx(-1.0 / 6.0, abs=1e-7)
    assert sinhc_gap_scaled(2.0, 40.0) == pytest.approx(-1.0 / 24.0, rel=1e-12)
    assert sinhc_gap_scaled(0.999, 1e7) == math.inf  # diverges below 1
    finite = sinhc_gap_scaled(0.999, 2e4)
    assert math.isfinite(finite) and finite > 0.0
    # x = inf gives the limit and a NaN x gives nan, for a number and an array alike
    for p in (0.5, 1.0, 2.0):
        limit = math.inf if p < 1.0 else -1.0 / (6.0 * p * p)
        for x, want in ((math.inf, limit), (math.nan, math.nan)):
            for got in (sinhc_gap_scaled(p, x), sinhc_gap_scaled(p, np.array([x]))[0]):
                assert got == want or (math.isnan(got) and math.isnan(want)), (p, x, got)


def test_scaled_gap_consistent_with_direct():
    for p in (0.8, 1.0, 1.3):
        for x in (1.0, 5.0, 20.0):
            expect = math.exp(-p * x) * sinhc_gap(p, x).value
            assert sinhc_gap_scaled(p, x) == pytest.approx(expect, rel=1e-11, abs=1e-18)


@pytest.mark.parametrize("p", [1.0 + 1e-12, 1.0 + 1e-6, 1.001, 1.5, 2.0, 10.0, 1e3, 1e6, 1e12, 1e50, 1e150])
def test_scaled_gap_cut_gives_the_formulas_bits(p):
    # past (1-p)x = -750 the value is -1/(6p^2) without the terms: the same
    # bits the formula gives there, for an array with numpy's exp and expm1
    # and for a number with math's, on a grid across the cut and the ulps
    # around it
    w = 1.0 / (6.0 * p * p)
    edge = 750.0 / (p - 1.0)
    x = np.concatenate((np.linspace(0.9, 1.1, 2001) * edge, [np.nextafter(edge, 0.0), edge,
                                                            np.nextafter(edge, np.inf)]))
    with np.errstate(over="ignore"):
        want = np.exp((1.0 - p) * x) * -np.expm1(-2.0 * x) / (2.0 * x) - w * np.expm1(-p * x) ** 2 \
            - np.exp(-p * x)
    assert ((1.0 - p) * x < -750.0).sum() > 900  # the cut is taken
    assert sinhc_gap_scaled(p, x).tobytes() == want.tobytes()
    numbers = [math.exp((1.0 - p) * v) * -math.expm1(-2.0 * v) / (2.0 * v) - w * math.expm1(-p * v) ** 2
               - math.exp(-p * v) for v in x.tolist()]
    assert np.array([sinhc_gap_scaled(p, v) for v in x.tolist()]).tobytes() == np.array(numbers).tobytes()


@pytest.mark.parametrize("p", [1e-7, 1e-5, 1e-3, 0.1, 0.5, UPPER_EDGE, 0.99, 1.0, 1.01, 2.0])
def test_scaled_gap_within_its_bound_of_mpmath(p):
    # within 4 + 2|1-p|x ulps of the largest of its three terms,
    # e^{(1-p)x}(1 - e^{-2x})/(2x), w (1 - e^{-px})^2 and e^{-px},
    # w = 1/(6p^2): exp carries the rounding of (1-p)x into the first.
    # Written as w (1 + e^{-2px}) + (1 - 2w) e^{-px}, the last two cancel
    # at small p, to 3e13 such ulps at p = 1e-7, x = 1
    with mp.workdps(60):
        pm = mp.mpf(p)
        for x in (0.5, 1.0, 2.0, 5.0, 20.0, 100.0, 500.0):
            xm = mp.mpf(x)
            want = mp.exp(-pm * xm) * (mp.sinh(xm) / xm - 1 - (xm ** 2 / 6) * (
                mp.sinh(pm * xm / 2) / (pm * xm / 2)) ** 2)
            terms = (mp.exp((1 - pm) * xm) * -mp.expm1(-2 * xm) / (2 * xm),
                     mp.expm1(-pm * xm) ** 2 / (6 * pm ** 2), mp.exp(-pm * xm))
            tol = (4 + 2 * abs(1 - p) * x) * math.ulp(float(max(terms)))
            for got in (sinhc_gap_scaled(p, x), sinhc_gap_scaled(p, np.array([x]))[0]):
                assert abs(got - want) <= tol, x


# ------------------------------------------------------------- large p

@pytest.mark.parametrize("p, x", [(4.0, 0.5), (4.000001, 0.5), (5.0, 0.4), (100.0, 0.02), (100.0, 0.03),
                                  (1000.0, 0.1), (1e5, 3e-5), (1e6, 2e-6), (1e10, 2.1e-10), (1e100, 1e-100),
                                  (1e300, 0.0), (1e300, 1.5e-297), (1.7e308, 1e-305)])
def test_sinhc_gap_at_large_p_against_mpmath(p, x):
    # the series where p|x| <= 2, in powers of px above p = 4, so that it
    # neither overflows nor misses its tail bound; elsewhere the direct form,
    # above p = 4 as (sinhc(x) - 1) - (2/3)(sinh(px/2)/p)^2, which does not
    # cancel more than 3.6-fold there: within 16 + 2px ulps of the gap itself
    with mp.workdps(500):
        pm, xm = mp.mpf(p), mp.mpf(x)
        want = mp.sinh(xm) / xm - 1 - 2 / (3 * pm * pm) * mp.sinh(pm * xm / 2) ** 2 if x else 0
    got = sinhc_gap(p, x)
    assert got.method is (GapMethod.SERIES if p * x <= 2.0 else GapMethod.DIRECT)
    tol = got.tail_bound if got.method is GapMethod.SERIES else (16 + 2 * p * x) * math.ulp(got.value)
    assert abs(got.value - want) <= tol


def test_large_p_forms_against_mpmath():
    # cosh_power_bound where cosh(px) overflows, within 4 + 2|ln v| ulps;
    # quartic_gap_coeff where 5p^2 overflows
    with mp.workdps(60):
        power = mp.cosh(800) ** (mp.mpf(1) / 3)
        coeff = (3 - 5 * mp.mpf(1e155) ** 2) / 360
    for got in (cosh_power_bound(1.0, -800.0), *cosh_power_bound(1.0, np.array([800.0, -800.0]))):
        assert abs(got - power) <= (4 + 2 * 266.7) * math.ulp(got)
    assert abs(quartic_gap_coeff(1e155) - coeff) <= math.ulp(coeff)


@pytest.mark.parametrize("p, x", [(1e154, 8e-152), (1e200, 1.5e-197), (1e300, 1.4e-297),
                                  (1e300, 1.5e-297), (1e300, -2e-297), (1.7e308, 1e-305)])
def test_cosh_bound_at_large_p_against_mpmath(p, x):
    # above p = 7.7e153, where 3p^2 overflows, sinh(px/2)/p is (s/p)(2s),
    # s = sinh(|px|/4), finite also where sinh(px/2) overflows (p|x| above 1421)
    # and the value does not: within 4 + 2p|x| ulps, as a number and as an array
    with mp.workdps(50):
        pm, xm = mp.mpf(p), mp.mpf(x)
        want = 1 + 2 / (3 * pm * pm) * mp.sinh(pm * xm / 2) ** 2
    for got in (cosh_bound(p, x), cosh_bound(p, np.array([x, 0.0]))[0]):
        assert abs(got - want) <= (4 + 2 * p * abs(x)) * math.ulp(got)


# ------------------------------------------------------------- overflow

OVERFLOWING = [
    (cos_bound, 0.0, 1e200), (cos_bound, 1e-9, 1e200), (cosh_bound, 0.0, 1e200),
    (cosh_bound, 2.0, 700.0), (cosh_power_bound, 1e-9, 1e200), (cosh_power_bound, 1e-4, 5e6),
    (cosh_power_bound, 2.0, 1e308),  # p*x itself overflows to inf
    (cosh_bound, 1e300, 2.2e-297),  # (sinh(px/2)/p)^2 overflows, sinh(px/2) too
]


@pytest.mark.parametrize("fn, p, x", OVERFLOWING)
def test_overflow_is_signalled(fn, p, x):
    with pytest.raises(OverflowError):
        fn(p, x)
    with pytest.raises(FloatingPointError):
        fn(p, np.array([1.0, x]))


def test_gap_overflow_is_signalled():
    with pytest.raises(OverflowError, match="sinc_gap overflows"):
        sinc_gap(0.0, 1e200)
    with pytest.raises(OverflowError, match="sinhc_gap overflows"):
        sinhc_gap(2.0, 700.0)
    # an infinite x may give an infinite value; only finite x overflows
    assert cos_bound(0.0, -math.inf) == -math.inf
    assert cosh_bound(0.0, math.inf) == math.inf


@pytest.mark.parametrize("fn", [sinc, sinhc, partial(cos_bound, 0.5), partial(cos_power_bound, 0.5)],
                         ids=["sinc", "sinhc", "cos_bound", "cos_power_bound"])
@pytest.mark.parametrize("x", [math.inf, -math.inf])
@pytest.mark.parametrize("form", ["number", "array"])
def test_an_infinite_x_without_a_limit_raises(fn, x, form):
    # as on overflow: ValueError for a number, naming the function and x,
    # and FloatingPointError for an array
    if form == "number":
        name = getattr(fn, "func", fn).__name__
        with pytest.raises(ValueError, match=rf"^{name} needs a finite x, got {x!r}$"):
            fn(x)
    else:
        with pytest.raises(FloatingPointError):
            fn(np.array([1.0, x]))


# --------------------------------------------------- number and array forms

SWEEP_X = (0.0, -0.0, 1e-320, 1e-200, 1e-5, 0.3, 0.5, 1.0, 1.5, 3.0, 20.0, 50.0, 700.0, 710.0,
           3000.0, 1e6, 1e154, 1e155, 1e200, 1.7e308, math.inf, -math.inf, math.nan, -1.0)
# 0.1 and 0.3 take the half-angle power forms
SWEEP_P = (0.0, 1e-9, 0.1, 0.3, 0.45, 0.5, 0.77, 0.999, 1.0, 1.001, 1.2, 2.0, 1000.0)


def _form_outcome(fn, p, x):
    """fn(p, x), None where it raises, and the messages of its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            v = fn(p, x)
        except (ArithmeticError, ValueError):
            v = None
    return v, [str(w.message) for w in caught]


@pytest.mark.parametrize("fn", [
    lambda p, x: sinc(x), lambda p, x: sinhc(x), cos_bound, cosh_bound, cos_power_bound,
    cosh_power_bound, sinhc_gap_scaled,
], ids=["sinc", "sinhc", "cos_bound", "cosh_bound", "cos_power_bound", "cosh_power_bound",
        "sinhc_gap_scaled"])
def test_number_and_array_forms_agree_on_a_sweep(fn):
    # both raise, or both return within 8 ulps of max(1, |number|, |array|);
    # neither warns: an array product that overflows is inf, as a number's is
    for p in SWEEP_P:
        for x in SWEEP_X:
            number, number_warns = _form_outcome(fn, p, x)
            array, array_warns = _form_outcome(fn, p, np.array([x]))
            assert number_warns == array_warns == [], (p, x)
            assert (number is None) == (array is None), (p, x, number, array)
            if number is None:
                continue
            array = float(array[0])
            if not (number == array or math.isnan(number) and math.isnan(array)):
                assert abs(number - array) <= 8 * EPS * max(1.0, abs(number), abs(array)), (p, x)


def test_the_overflowing_array_products_give_the_number_limits():
    assert cos_power_bound(1e-9, np.array([1.35e154, 1e200]))[0] == 0.0
    for p in (1.0, 2.0):
        assert sinhc_gap_scaled(p, np.array([9e307]))[0] == sinhc_gap_scaled(p, 9e307) \
            == -1.0 / (6.0 * p * p)


# An inline copy of the scalar path as it was when each call built a
# validating parameter object and dispatched through np.ndim.  The scalar
# path must give the same values, methods, tail bounds and exceptions,
# except where a result overflows at a finite x: that now raises
# OverflowError.

@dataclass(frozen=True)
class _OldBoundParam:
    value: float
    trig: bool

    def __post_init__(self):
        v = self.value
        if not math.isfinite(v) or v < 0.0:
            raise ValueError(f"parameter must be finite and >= 0, got {v!r}")
        if self.trig and v > 1.0:
            raise ValueError(f"trig family parameter must lie in [0, 1], got {v!r}")


def _old_param(p, trig):
    return _OldBoundParam(float(p), trig).value


def _old_gap_series(p, x, hyperbolic):
    c = p * p
    x2 = x * x
    m = x2 * x2 / 360.0
    cp = c
    total = 0.0
    sign = 1.0
    round_acc = 0.0
    n = 2
    while n <= 80:
        majorant = m * (3.0 + (2 * n + 1) * cp)
        if n >= 6 and majorant < 1e-20 * max(1.0, abs(total)):
            tail = 2.0 * majorant + 4.0 * EPS * round_acc
            return total, tail
        term = (3.0 - (2 * n + 1) * cp) * m
        total += term if hyperbolic else sign * term
        round_acc += m * (3.0 + n * (2 * n + 1) * cp)
        sign = -sign
        m *= x2 / ((2 * n + 2) * (2 * n + 3))
        cp *= c
        n += 1
    raise RuntimeError("gap series did not converge (x outside the series range?)")


def _old_sinc(x):
    x = float(x)
    return math.sin(x) / x if x != 0.0 else 1.0


def _old_sinhc(x):
    x = float(x)
    return math.sinh(x) / x if x != 0.0 else 1.0


def _old_cos_bound(p, x):
    p = _old_param(p, True)
    if p <= 1e-8:
        x = float(x)
        return 1.0 - x * x / 6.0
    w = 2.0 / (3.0 * p * p)
    s = math.sin(0.5 * p * float(x))
    return 1.0 - w * s * s


def _old_cosh_bound(p, x):
    p = _old_param(p, False)
    if p <= 1e-8:
        x = float(x)
        return 1.0 + x * x / 6.0
    w = 2.0 / (3.0 * p * p)
    s = math.sinh(0.5 * p * float(x))
    return 1.0 + w * s * s


def _old_gap(p, x, hyperbolic):
    p = _old_param(p, not hyperbolic)
    x = float(x)
    ax = abs(x)
    if ax <= SERIES_SWITCH:
        value, tail = _old_gap_series(p, ax, hyperbolic)
        return x, value, GapMethod.SERIES, tail
    if not math.isfinite(ax):  # as in sinc_gap and sinhc_gap
        raise ValueError(f"x must be finite, got {x!r}")
    if hyperbolic:
        return x, _old_sinhc(ax) - _old_cosh_bound(p, ax), GapMethod.DIRECT, 0.0
    return x, _old_sinc(ax) - _old_cos_bound(p, ax), GapMethod.DIRECT, 0.0


def _outcome(fn, *args):
    """What a call gives: its exception, or its fields with their types and
    reprs, so that nan, -0.0 and a numpy scalar compare exactly."""
    try:
        r = fn(*args)
    except Exception as exc:
        return "raises", type(exc), str(exc)
    fields = (r.x, r.value, r.method, r.tail_bound) if isinstance(r, GapEvaluation) else \
        r if isinstance(r, tuple) else (r,)
    return "returns", tuple((type(f), repr(f)) for f in fields)


def _overflowed(outcome, x) -> bool:
    """Whether an old outcome is an infinite value at a finite x."""
    if outcome[0] != "returns" or not math.isfinite(x):
        return False
    value = outcome[1][1] if len(outcome[1]) > 1 else outcome[1][0]
    return repr(math.inf) in value[1]


def _scalar_inputs():
    rng = np.random.default_rng(20250810)
    trig = [(float(p), float(x)) for p, x in zip(rng.uniform(0.0, 1.0, 600), np.concatenate(
        [rng.uniform(-0.5, 0.5, 300), rng.uniform(0.5, math.pi / 2, 300)]))]
    hyp = [(float(p), float(x)) for p, x in zip(rng.uniform(0.0, 3.0, 600), np.concatenate(
        [rng.uniform(-0.5, 0.5, 300), rng.uniform(0.5, 30.0, 300)]))]
    ps = [0.0, 1e-9, 1e-8, 2e-8, 0.5, 1.0, 1.7, 0, 1, True, False, np.float32(0.3), np.int64(1),
          np.array(0.6), -0.1, 1.0 + 1e-15, math.nan, math.inf, -math.inf, "0.4"]
    xs = [0.0, -0.0, 0.3, -0.5, 0.5 + 1e-12, 1.2, 12.0, 700.0, 711.0, 1e200, 5e-324, math.nan,
          math.inf, -math.inf, 0, 3, -2, 10 ** 9, True, False, np.float32(0.25), np.float32(2.5),
          np.int64(3), np.float64(1.1), np.array(0.7), np.array(2)]
    grid = [(p, x) for p in ps for x in xs]
    return trig + hyp + grid


def test_scalar_path_matches_inline_reference():
    pairs = _scalar_inputs()
    cases = [(sinc, _old_sinc, (x,)) for _, x in pairs[:1200:2] + pairs[1200:]]
    cases += [(sinhc, _old_sinhc, (x,)) for _, x in pairs[:1200:2] + pairs[1200:]]
    for new, old in ((cos_bound, _old_cos_bound), (cosh_bound, _old_cosh_bound),
                     (sinc_gap, lambda p, x: _old_gap(p, x, False)),
                     (sinhc_gap, lambda p, x: _old_gap(p, x, True))):
        cases += [(new, old, pair) for pair in pairs]
    overflowed = 0
    for new, old, args in cases:
        want, got = _outcome(old, *args), _outcome(new, *args)
        if _overflowed(want, float(args[-1])):
            overflowed += 1
            assert got[:2] == ("raises", OverflowError), (new.__name__, args)
        elif new is sinhc and math.isinf(float(args[0])):
            # the old silent nan at x = +-inf is now a ValueError, as for sinc
            assert got[:2] == ("raises", ValueError), args
        elif want in (("raises", ValueError, "math domain error"),
                      ("raises", ValueError, f"x must be finite, got {float(args[-1])!r}")):
            # the inline reference keeps math.sin's bare message at x = +-inf,
            # and the gaps' former message, which did not name the function
            assert got == ("raises", ValueError,
                           f"{new.__name__} needs a finite x, got {float(args[-1])!r}"), args
        elif want == ("raises", OverflowError, "math range error"):
            # the inline reference keeps math.sinh's bare message
            assert got == ("raises", OverflowError,
                           f"{new.__name__} overflows the double range at x={float(args[-1])!r}"), args
        else:
            assert got == want, (new.__name__, args)
    assert len(cases) > 5000 and 0 < overflowed < 200
