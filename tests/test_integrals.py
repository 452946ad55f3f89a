import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from sincbounds.core import cos_bound, sinc_gap
from sincbounds.integrals import (
    Enclosure,
    _quad,
    bound_reciprocal_integrals,
    catalan_enclosure,
    catalan_reference,
    sh_enclosure,
    sh_reference,
    si_enclosure,
    si_reference,
    trigamma_half_enclosure,
)

HALF_PI = math.pi / 2.0
UPPER_EDGE = math.sqrt(15.0) / 5.0

# frozen 40-digit references
SI_HALF_PI = 1.3707621681544884801
CATALAN = 0.9159655941772190150
SI_ONE = 0.9460830703671830149
SH_ONE = 0.948061983614686


# ------------------------------------------------------------------ Enclosure

def test_enclosure_type():
    e = Enclosure(1.0, 2.0)
    assert e.contains(1.5) and not e.contains(2.5)
    assert e.contains(2.0 + 1e-9, slack=1e-8)
    assert e.width == 1.0
    assert e.midpoint == 1.5
    with pytest.raises(ValueError):
        Enclosure(2.0, 1.0)


def test_enclosure_contains_bool_types():
    # a Python bool for scalars (the CLI's --format json cannot serialise
    # np.bool_), one bool per element for array endpoints
    e = Enclosure(1.0, 2.0)
    assert type(e.contains(1.5)) is bool and type(e.contains(3.0)) is bool
    ea = Enclosure(np.array([1.0, 0.0]), np.array([2.0, 0.5]))
    got = ea.contains(np.array([1.5, 0.7]))
    assert got.dtype == bool and got.tolist() == [True, False]
    with pytest.raises(ValueError):
        Enclosure(np.array([1.0, 2.0]), np.array([2.0, 1.0]))


# ---------------------------------------------------------------- references

def test_si_reference():
    assert si_reference(0.0).value == 0.0
    r = si_reference(HALF_PI)
    assert r.value == pytest.approx(SI_HALF_PI, abs=1e-12)
    assert r.error_estimate <= 1e-12
    assert r.evaluations > 0
    with pytest.raises(ValueError):
        si_reference(11.0)


def test_sh_reference():
    assert sh_reference(1.0).value == pytest.approx(SH_ONE, abs=1e-12)
    assert sh_reference(0.0).value == 0.0


def test_sh_reference_at_infinity_is_closed_form(monkeypatch):
    import mpmath as mp

    from sincbounds import integrals

    def no_quadrature(*args):
        raise AssertionError("quadrature called")

    monkeypatch.setattr(integrals, "_quad", no_quadrature)
    got = sh_reference(math.inf)
    assert got.evaluations == 0
    assert 0.0 < got.error_estimate <= 4.0 * math.ulp(got.value)
    with mp.workdps(40):
        assert abs(mp.mpf(got.value) - mp.pi ** 2 / 4) <= got.error_estimate
    assert sh_enclosure(math.inf).contains(got.value)
    for t in (50.5, 1e300, -math.inf, math.nan):
        with pytest.raises(ValueError):
            sh_reference(t)


def test_scipy_is_imported_only_by_quadrature():
    code = """if True:
        import contextlib, io, math, sys
        import sincbounds, sincbounds.cli
        from sincbounds import cli, integrals
        for argv in (["constants"], ["eval", "--fn", "sinc-gap", "--p", "0.7", "--x", "0.3"],
                     ["table", "--chain", "m1c", "--points", "64"]):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0, argv
        assert "scipy" not in sys.modules
        got = integrals.si_reference(1.0)
        assert "scipy" in sys.modules
        from scipy.integrate import quad
        value, err, info = quad(lambda x: math.sin(x) / x, 0.0, 1.0,
                                epsabs=1e-13, epsrel=1e-13, full_output=1)
        assert (got.value, got.error_estimate, got.evaluations) == (value, err, info["neval"])
    """
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_quadrature_calls_quad_through_scipy_integrate(monkeypatch):
    # a quad patched onto scipy.integrate after import (as a tracer does)
    # must be the one every oracle calls
    import scipy.integrate

    real = scipy.integrate.quad
    calls = []

    def recorder(f, a, b, **kwargs):
        calls.append((a, b))
        return real(f, a, b, **kwargs)

    monkeypatch.setattr(scipy.integrate, "quad", recorder)
    assert si_reference(1.0).value == pytest.approx(SI_ONE, abs=1e-12)
    assert sh_reference(1.0).value == pytest.approx(SH_ONE, abs=1e-12)
    assert _quad(math.cos, 0.0, 1.0).value == pytest.approx(math.sin(1.0), abs=1e-12)
    assert calls == [(0.0, 1.0)] * 3


# ---------------------------------------------------------------- enclosures

def test_si_enclosure_frozen_endpoints():
    e = si_enclosure(HALF_PI, 2.0 / 3.0)
    # closed forms: pi/16 + 9 sqrt3/16 + 1/5 and pi/8 + 7 pi^5/518400 + 9 sqrt3/16
    assert e.lo == pytest.approx(math.pi / 16 + 9 * math.sqrt(3) / 16 + 0.2, rel=1e-14)
    assert e.hi == pytest.approx(math.pi / 8 + 7 * math.pi ** 5 / 518400 + 9 * math.sqrt(3) / 16,
                                 rel=1e-14)
    assert e.contains(SI_HALF_PI)

    e0 = si_enclosure(HALF_PI, 0.0)
    assert e0.lo == pytest.approx(2 * math.pi / 5 - math.pi ** 3 / 360 + 0.2, rel=1e-14)
    assert e0.hi == pytest.approx(math.pi / 2 - math.pi ** 3 / 144 + math.pi ** 5 / 19200,
                                  rel=1e-14)
    assert e0.contains(SI_HALF_PI)


def test_si_enclosure_contains_oracle():
    for p in (0.0, 1.0 / 3.0, 2.0 / 3.0, UPPER_EDGE):
        for t in (0.2, 0.7, 1.1, HALF_PI):
            assert si_enclosure(t, p).contains(si_reference(t).value)


def test_si_enclosure_small_t():
    e = si_enclosure(1e-6, 0.5)
    assert e.lo <= e.hi
    assert e.lo == pytest.approx(1e-6, rel=1e-9)


def test_si_enclosure_monotone_lo_in_p():
    for t in (0.5, 1.0, HALF_PI):
        los = [si_enclosure(t, p).lo for p in (0.0, 0.2, 0.4, 0.6, UPPER_EDGE)]
        assert all(b > a for a, b in zip(los, los[1:]))


def test_si_enclosure_validation():
    with pytest.raises(ValueError):
        si_enclosure(2.0, 0.5)  # t beyond pi/2
    with pytest.raises(ValueError):
        si_enclosure(1.0, 0.9)  # p beyond sqrt(3/5)


def test_sh_enclosure():
    for t in (0.5, 1.0, 3.0, 10.0):
        e = sh_enclosure(t)
        assert e.contains(sh_reference(t).value)
    tiny = sh_enclosure(1e-8)
    assert abs(tiny.lo) <= 2e-8 and abs(tiny.hi) <= 2e-8
    inf = sh_enclosure(math.inf)
    tg = trigamma_half_enclosure()
    assert inf.lo == pytest.approx(tg.lo / 2.0, rel=1e-15)
    assert inf.hi == pytest.approx(tg.hi / 2.0, rel=1e-15)
    with pytest.raises(ValueError):
        sh_enclosure(0.0)


def test_trigamma_half_enclosure():
    e = trigamma_half_enclosure()
    assert round(e.lo, 4) == 4.5621
    assert round(e.hi, 4) == 4.9845
    assert e.contains(math.pi ** 2 / 2.0)
    assert e.width < 0.43


def test_catalan_enclosure():
    e = catalan_enclosure()
    assert round(e.lo, 5) == 0.91586
    assert round(e.hi, 5) == 0.91675
    assert e.contains(CATALAN)


def test_catalan_reference():
    assert catalan_reference(1) == 1.0
    assert catalan_reference(2) == pytest.approx(1.0 - 1.0 / 9.0, rel=1e-15)
    assert catalan_reference(60) == pytest.approx(CATALAN, abs=1e-12)
    assert catalan_reference(1_000_000) == pytest.approx(CATALAN, abs=1e-10)
    with pytest.raises(ValueError):
        catalan_reference(0)


@pytest.mark.parametrize("terms", [1, 2, 3, 47, 48, 49, 50, 1000, 200_000, 1_000_000])
def test_catalan_reference_bit_identical_to_pow_form(terms):
    # the (-1)^k float-pow form catalan_reference used before sign flipping
    if terms <= 2:
        expected = sum((-1.0) ** k / (2 * k + 1) ** 2 for k in range(terms))
    else:
        base = terms - min(terms, 48)
        k = np.arange(base, dtype=float)
        head = float(np.sum((-1.0) ** (k % 2) / (2.0 * k + 1.0) ** 2))
        kw = np.arange(base, terms, dtype=float)
        partials = head + np.cumsum((-1.0) ** (kw % 2) / (2.0 * kw + 1.0) ** 2)
        while partials.size > 1:
            partials = 0.5 * (partials[:-1] + partials[1:])
        expected = float(partials[0])
    assert catalan_reference(terms) == expected


def test_catalan_cross_oracle_quadrature():
    # G = (1/2) integral of x/sin x over [0, pi/2]
    val, err = quad(lambda x: x / math.sin(x) if x > 0 else 1.0, 0.0, HALF_PI,
                    epsabs=1e-13, epsrel=1e-13)
    assert 0.5 * val == pytest.approx(catalan_reference(100_000), abs=1e-10)


def test_reciprocal_integrals_match_quadrature():
    lo_closed, hi_closed = bound_reciprocal_integrals()
    quad_lo, _ = quad(lambda x: 1.0 / cos_bound(UPPER_EDGE, x), 0.0, HALF_PI,
                      epsabs=1e-13, epsrel=1e-13)
    quad_hi, _ = quad(lambda x: 1.0 / cos_bound(0.75, x), 0.0, HALF_PI,
                      epsabs=1e-13, epsrel=1e-13)
    assert round(lo_closed, 4) == 1.8317
    assert round(hi_closed, 4) == 1.8335
    assert quad_lo == pytest.approx(lo_closed, abs=1e-10)
    assert quad_hi == pytest.approx(hi_closed, abs=1e-10)


def test_integrand_ordering_all_margins_positive():
    # 1/cos_bound(upper) < x/sin x < 1/cos_bound(3/4): sign decided by the
    # stable gap series, so the margin is strictly positive even at tiny x
    xs = np.concatenate([np.geomspace(1e-6, 0.4, 5000),
                         np.linspace(0.4, HALF_PI - 1e-9, 5001)])
    for x in xs[::7]:
        assert sinc_gap(UPPER_EDGE, float(x)).value < 0.0
        assert sinc_gap(0.75, float(x)).value > 0.0
    mid = np.linspace(0.3, HALF_PI - 1e-6, 4000)
    inv_sinc = mid / np.sin(mid)
    assert np.all(1.0 / cos_bound(UPPER_EDGE, mid) < inv_sinc)
    assert np.all(inv_sinc < 1.0 / cos_bound(0.75, mid))


@given(t=st.floats(1e-3, HALF_PI), p=st.floats(0.0, UPPER_EDGE))
def test_si_enclosure_wellformed(t, p):
    e = si_enclosure(t, p)
    assert e.lo <= e.hi
