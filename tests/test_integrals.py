import json
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

from sincbounds.cli import _EVAL_FNS
from sincbounds.core import cos_bound, sinc_gap
from sincbounds.integrals import (
    Enclosure,
    QuadratureBudgetError,
    _catalan_error,
    _quad,
    _sh_series,
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
SH_ONE = 0.948061983614686


# ------------------------------------------------------------------ Enclosure

def test_enclosure_type():
    e = Enclosure(1.0, 2.0)
    assert e.contains(1.5) and not e.contains(2.5)
    assert e.contains(2.0 + 1e-9, slack=1e-8)
    assert e.hi - e.lo == 1.0
    assert not e.contains(1.0, slack=-1e-9)  # a negative slack narrows


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


@pytest.mark.parametrize("lo, hi", [
    (2.0, 1.0), (np.float64(2.0), np.float64(1.0)), (np.float32(2.0), 1.0),
    (np.array(2.0), np.array(1.0)), (np.array([2.0, 3.0]), np.array([1.0, 2.5])),
    (np.array([3.0, 4.0]), 2.0),
], ids=["float", "float64", "float32", "0-d", "array", "array-float"])
def test_reversed_enclosure_raises(lo, hi):
    with pytest.raises(ValueError, match="empty enclosure"):
        Enclosure(lo, hi)
    Enclosure(hi, lo)  # the same ends in order are accepted


# ---------------------------------------------------------------- references

def test_si_reference():
    assert si_reference(0.0).value == 0.0
    r = si_reference(HALF_PI)
    assert r.value == pytest.approx(SI_HALF_PI, abs=1e-12)
    assert r.error_estimate <= 1e-12
    assert r.evaluations > 0


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


GOLDEN_CLI = Path(__file__).resolve().parent.parent / "perfbench" / "golden_cli.json"

# commands that load no numpy, fixed-chain tables among them; [] just imports the package
_NUMPY_FREE = [
    [],
    *(g["args"] for g in json.loads(GOLDEN_CLI.read_text())["constants"]),
    *(["eval", "--fn", fn, "--x", "0.3", *([] if fn in ("sinc", "sinhc") else ["--p", "0.7"])]
      for fn in sorted(_EVAL_FNS)),
    ["special", "--name", "si"], ["special", "--name", "sh", "--t", "2"],
    ["special", "--name", "sh", "--t", "20"], ["special", "--name", "trigamma-half"],
    ["special", "--name", "catalan"],
    ["table", "--chain", "m1c", "--points", "64"], ["table", "--chain", "m2c", "--points", "64"],
]
_NEEDS_NUMPY = [["verify", "--suite", "all"], ["table", "--chain", "meanchain", "--points", "64"]]


def test_no_command_imports_scipy():
    # each command in a fresh interpreter, since a module once imported stays
    # loaded; numpy.ma is listed too, which no command may load
    code = """if True:
        import contextlib, io, sys
        if len(sys.argv) > 1:
            from sincbounds import cli
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(sys.argv[1:]) == 0, sys.argv
        else:
            import sincbounds
        print(sorted({m.split(".")[0] for m in sys.modules} & {"numpy", "scipy"}
                     | set(sys.modules) & {"numpy.ma"}))
    """
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    assert len(_NUMPY_FREE) == 21
    for argv, loaded in [(a, "[]") for a in _NUMPY_FREE] + [(a, "['numpy']") for a in _NEEDS_NUMPY]:
        proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, (argv, proc.stderr)
        assert proc.stdout.strip() == loaded, argv


def _si(x):
    return math.sin(x) / x if x != 0.0 else 1.0


def _sh(x):
    return x / math.sinh(x) if x != 0.0 else 1.0


def _sweep(top, n):
    return [float(t) for t in np.concatenate([np.geomspace(1e-300, 1e-3, 200),
                                              np.linspace(1e-3, top, n)])]


def _reciprocal(p):
    return lambda x: 1.0 / cos_bound(p, x)


@pytest.mark.parametrize("reference, integrand, ts", [
    (si_reference, _si, _sweep(10.0, 20_000)),
    (sh_reference, _sh, _sweep(4.0, 10_000)),
    (None, _reciprocal(UPPER_EDGE), [HALF_PI]),
    (None, _reciprocal(0.75), [HALF_PI]),
], ids=["si", "sh", "reciprocal-tight", "reciprocal-loose"])
def test_panel_equals_scipy_quad_bit_for_bit(reference, integrand, ts):
    # scipy's quad accepts its first qk21 panel on every integral the package
    # takes, so value, error estimate and evaluation count agree exactly
    for t in ts:
        out = quad(integrand, 0.0, t, epsabs=1e-13, epsrel=1e-13, full_output=1)
        got = reference(t) if reference else _quad(integrand, 0.0, t)
        assert (got.value, got.error_estimate, got.evaluations) == (
            out[0], out[1], out[2]["neval"]), t


def test_panel_raises_where_qags_would_bisect():
    # sqrt is not smooth at 0: one panel misses the tolerance, so no answer
    with pytest.raises(QuadratureBudgetError):
        _quad(math.sqrt, 0.0, 1.0)
    with pytest.raises(QuadratureBudgetError):
        _quad(_sh, 0.0, 4.5)


def test_sh_series_within_its_bound_of_mpmath():
    import mpmath as mp

    ts = [4.0000001, *np.linspace(4.0, 50.0, 47)[1:].tolist(), math.nextafter(4.0, 5.0)]
    with mp.workdps(40):
        for t in ts:
            got = sh_reference(t)
            exact = mp.quad(lambda x: x / mp.sinh(x), [0, 2, 4, t])
            assert got.evaluations == 0
            assert got.error_estimate <= 4.0 * math.ulp(got.value)
            assert abs(mp.mpf(got.value) - exact) <= got.error_estimate, t


@pytest.mark.parametrize("t", [3.5, 3.9, 4.0, math.nextafter(4.0, 5.0), 4.0000001, 4.1])
def test_sh_series_agrees_with_the_panel_at_the_switch(t):
    panel, series = _quad(_sh, 0.0, t), _sh_series(t)
    assert sh_reference(t) == (panel if t <= 4.0 else series)
    assert abs(panel.value - series.value) <= panel.error_estimate + series.error_estimate


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


def test_sh_enclosure():
    # the panel's value up to t = 4, the tail series' beyond
    for t in (0.5, 1.0, 3.0, 4.0000001, 10.0, 50.0):
        e = sh_enclosure(t)
        assert e.contains(sh_reference(t).value)
    tiny = sh_enclosure(1e-8)
    assert abs(tiny.lo) <= 2e-8 and abs(tiny.hi) <= 2e-8
    inf = sh_enclosure(math.inf)
    tg = trigamma_half_enclosure()
    assert inf.lo == pytest.approx(tg.lo / 2.0, rel=1e-15)
    assert inf.hi == pytest.approx(tg.hi / 2.0, rel=1e-15)


def test_sh_enclosure_contains_the_integral_from_1e_300_to_inf():
    # the ends once cancelled: below t = 0.04 they were empty or missed
    import mpmath as mp

    ts = [*np.geomspace(1e-300, 50.0, 40).tolist(), 3.6e-3, 0.0387]
    with mp.workdps(40):
        for t in ts:
            T = mp.mpf(t)  # x = T u keeps the integrand away from 0/0
            exact = T * mp.quad(lambda u: T * u / mp.sinh(T * u) if u else mp.mpf(1), [0, 1])
            e = sh_enclosure(t)
            assert mp.mpf(e.lo) < exact < mp.mpf(e.hi), t
        e = sh_enclosure(math.inf)
        assert mp.mpf(e.lo) < mp.pi ** 2 / 4 < mp.mpf(e.hi)


def test_trigamma_half_enclosure():
    e = trigamma_half_enclosure()
    assert round(e.lo, 4) == 4.5621
    assert round(e.hi, 4) == 4.9845
    assert e.contains(math.pi ** 2 / 2.0)
    assert e.hi - e.lo < 0.43


def test_catalan_enclosure():
    e = catalan_enclosure()
    assert round(e.lo, 5) == 0.91586
    assert round(e.hi, 5) == 0.91675
    assert e.contains(CATALAN)


def test_catalan_reference():
    import mpmath as mp

    with mp.workdps(40):
        for n in range(1, 22):
            got = catalan_reference(n)
            bound = 2 * mp.catalan / (3 + mp.sqrt(8)) ** n + 4 * math.ulp(got)
            assert abs(mp.mpf(got) - mp.catalan) <= bound, n


@pytest.mark.parametrize("terms", [2.7, 21.0, -1, "5", None])
def test_catalan_reference_takes_an_integer_count(terms):
    with pytest.raises(ValueError, match="terms must be an integer >= 1"):
        catalan_reference(terms)


@pytest.mark.parametrize("terms", [21, 22, 10 ** 12])
def test_catalan_reference_uses_at_most_21_terms(terms):
    assert catalan_reference(terms) == 0.9159655941772191


@pytest.mark.parametrize("terms", [47, 48, 49, 50, 1000, 200_000, 1_000_000])
def test_catalan_reference_bit_identical_to_pow_form(terms):
    # the (-1)^k float-pow partial sums with iterated averaging, the oracle
    # before the CRVZ sum, agree with it at these counts: the corpus line and
    # the CLI default keep their bytes
    base = terms - min(terms, 48)
    k = np.arange(base, dtype=float)
    head = float(np.sum((-1.0) ** (k % 2) / (2.0 * k + 1.0) ** 2))
    kw = np.arange(base, terms, dtype=float)
    partials = head + np.cumsum((-1.0) ** (kw % 2) / (2.0 * kw + 1.0) ** 2)
    while partials.size > 1:
        partials = 0.5 * (partials[:-1] + partials[1:])
    assert catalan_reference(terms) == float(partials[0])


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


def test_catalan_error_bounds_the_reference():
    import mpmath as mp
    with mp.workdps(40):
        for n in (*range(1, 26), 1_000_000):
            got = catalan_reference(n)
            assert abs(mp.mpf(got) - mp.catalan) <= _catalan_error(n, got), n
