"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run `pytest tests/test_acceptance.py -v -s` to see the lines as they pass.
"""

import math
import time
from fractions import Fraction

import numpy as np

from sincbounds import (
    CoefficientSeq,
    MeanPoint,
    SharpnessFamily,
    ThresholdSide,
    Verdict,
    catalan_enclosure,
    catalan_reference,
    comparison_coeff,
    cos_bound,
    cosh_bound,
    half_log_ratio,
    log_mean,
    log_mean_sandwich,
    lower_bound_comparison,
    mean_family,
    quartic_constants,
    quartic_gap_coeff,
    random_pairs,
    sb_lower_bound,
    sb_mean,
    si_enclosure,
    si_reference,
    sinc,
    sinc_gap,
    sinc_gap_at_half_pi,
    sinc_upper_edge,
    sinhc,
    sinhc_gap,
    sinhc_gap_scaled,
    solve_sinc_lower_edge,
    trigamma_half_enclosure,
    verify,
    verify_leibniz_ratio,
    verify_sharpness,
)
from sincbounds.corpus import run_suite
from sincbounds.core import _gap_series
from sincbounds.verifier import InequalityCase

_T0 = time.perf_counter()

HALF_PI = math.pi / 2.0
UPPER_EDGE = math.sqrt(15.0) / 5.0
EPS = math.ulp(1.0)


def _points(n, seed, **spans):
    """random_pairs as a list of MeanPoint, for the scalar functions."""
    a, b = random_pairs(n, seed, **spans)
    return [MeanPoint(x, y) for x, y in zip(a.tolist(), b.tolist())]


def _check(num: int, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {detail}"
    print(line)
    assert ok, line


def test_c01_sharp_lower_edge():
    t0 = time.perf_counter()
    edge = solve_sinc_lower_edge(1e-9)
    elapsed = time.perf_counter() - t0
    ok = (
        round(edge.value, 5) == 0.77086
        and edge.certified_radius <= 1e-9
        and sinc_gap_at_half_pi(edge.value - edge.certified_radius) > 0.0
        and sinc_gap_at_half_pi(edge.value + edge.certified_radius) < 0.0
        and elapsed < 0.010
    )
    _check(1, ok, f"lower edge {edge.value:.10f} rounds to 0.77086, "
                  f"certificate signs hold, solved in {elapsed * 1e3:.2f} ms")


def test_c02_upper_edge_and_quartic_root():
    edge = sinc_upper_edge()
    coeff = quartic_gap_coeff(edge.value)
    ok = f"{edge.value:.10f}" == "0.7745966692" and abs(coeff) < 1e-16
    _check(2, ok, f"upper edge {edge.value:.12f}, quartic gap coefficient {coeff:.2e}")


def test_c03_best_quartic_constants():
    c_lo = quartic_constants(UPPER_EDGE).c_lo
    # the quoted upper constant belongs to the 5-digit threshold value
    # 0.77086; at the full-precision root it is 8.0191e-05 (see ledger)
    c_hi_quoted = quartic_constants(0.77086).c_hi
    c_hi_root = quartic_constants(solve_sinc_lower_edge(1e-12).value).c_hi
    ok = (
        abs(c_lo - (-7.2618e-5)) <= 5e-9
        and abs(c_hi_quoted - 8.0206e-5) <= 5e-9
        and abs(c_hi_root - 8.019052485191e-5) <= 1e-12
    )
    _check(3, ok, f"c_lo(upper edge) = {c_lo:.6e}, c_hi(0.77086) = {c_hi_quoted:.6e}, "
                  f"c_hi(root) = {c_hi_root:.6e}")


def test_c04_trig_family_verification():
    t0 = time.perf_counter()
    edge = solve_sinc_lower_edge(1e-12).value
    oks = []
    for p in (0.1, 0.5, 0.7, edge - 1e-6):
        rep = verify(InequalityCase(f"low {p}", lambda x, p=p: cos_bound(p, x), sinc,
                                    (0.0, HALF_PI)), points=100_000)
        oks.append(rep.verdict is Verdict.HOLDS)
    rep = verify(InequalityCase("low fail", lambda x: cos_bound(edge + 1e-3, x), sinc,
                                (0.0, HALF_PI)), points=100_000)
    oks.append(rep.verdict is Verdict.FAILS and rep.argmin_x > HALF_PI - 0.1)
    for q in (UPPER_EDGE, 0.9, 1.0):
        rep = verify(InequalityCase(f"up {q}", sinc, lambda x, q=q: cos_bound(q, x),
                                    (0.0, HALF_PI)), points=100_000)
        oks.append(rep.verdict is Verdict.HOLDS)
    rep = verify(InequalityCase("up fail", sinc, lambda x: cos_bound(UPPER_EDGE - 1e-3, x),
                                (0.0, HALF_PI)), points=100_000)
    oks.append(rep.verdict is Verdict.FAILS and rep.argmin_x < 1.0)
    elapsed = time.perf_counter() - t0
    ok = all(oks) and elapsed < 2.0
    _check(4, ok, f"two-sided trig family sharp at both edges on 1e5-point grids "
                  f"({elapsed:.2f} s)")


def test_c05_hyp_family_verification():
    oks = []
    rep = verify(InequalityCase("low", lambda x: cosh_bound(UPPER_EDGE, x), sinhc,
                                (0.0, 50.0)), points=100_000)
    oks.append(rep.verdict is Verdict.HOLDS)
    rep = verify(InequalityCase("low fail", lambda x: cosh_bound(UPPER_EDGE + 1e-3, x),
                                sinhc, (0.0, 50.0)), points=100_000)
    oks.append(rep.verdict is Verdict.FAILS)
    rep = verify(InequalityCase("up", sinhc, lambda x: cosh_bound(1.0, x), (0.0, 50.0)),
                 points=100_000)
    oks.append(rep.verdict is Verdict.HOLDS)
    scaled_tail = sinhc_gap_scaled(1.0, np.geomspace(1.0, 1e6, 200))
    oks.append(bool(np.all(scaled_tail < 0.0)))  # q = 1 stays above even at large x
    rep = verify_sharpness(SharpnessFamily.SINHC_UPPER, ThresholdSide.BELOW, 1e-3,
                           points=4096)
    oks.append(rep.verdict is Verdict.FAILS and all(v.x > 100.0 for v in rep.violations))
    _check(5, all(oks), "two-sided hyperbolic family sharp at sqrt(15)/5 and 1 "
                        "(large-x failure found via scaled gap)")


def _chain_margins_stable(params_low, params_high, gap, grid):
    """Stable chain margins: bound differences through the gap series."""
    margins = []
    for p, q in zip(params_low, params_low[1:]):
        margins.append(min(gap(p, x).value - gap(q, x).value for x in grid))
    margins.append(min(gap(params_low[-1], x).value for x in grid))       # last low vs mid
    margins.append(min(-gap(params_high[0], x).value for x in grid))      # mid vs first high
    for p, q in zip(params_high, params_high[1:]):
        margins.append(min(gap(p, x).value - gap(q, x).value for x in grid))
    return margins


def test_c06_chains_and_orderings():
    trig_low = [1.0 / math.sqrt(3.0), 2.0 / 3.0, 1.0 / math.sqrt(2.0), 0.75]
    trig_high = [UPPER_EDGE, math.sqrt(2.0 / 3.0), math.sqrt(3.0) / 2.0, 1.0]
    grid_t = np.geomspace(1e-6, HALF_PI - 1e-9, 1500)
    m1 = _chain_margins_stable(trig_low, trig_high, sinc_gap, grid_t)
    hyp_low = trig_low + [UPPER_EDGE]
    hyp_high = [1.0, 2.0 / math.sqrt(3.0)]
    grid_h = np.geomspace(1e-6, 20.0, 1500)
    m2 = _chain_margins_stable(hyp_low, hyp_high, sinhc_gap, grid_h)
    remark_results = run_suite("remarks", points=2048)
    ok = (
        len(m1) == 8 and all(m > 0.0 for m in m1)
        and len(m2) == 7 and all(m > 0.0 for m in m2)
        and all(r.ok for r in remark_results)
    )
    _check(6, ok, f"8 trig links (min {min(m1):.2e}) and 7 hyperbolic links "
                  f"(min {min(m2):.2e}) strictly ordered; orderings vs power "
                  f"forms hold on all sampled subintervals")


def test_c07_sine_integral_enclosures():
    e = si_enclosure(HALF_PI, 2.0 / 3.0)
    oracle = si_reference(HALF_PI).value
    e0 = si_enclosure(HALF_PI, 0.0)
    ok = (
        1.37055 <= e.lo and e.hi <= 1.37115
        and e.contains(oracle)
        and abs(oracle - 1.3707621681544884) < 1e-12
        and f"{e.lo:.5g}" == "1.3706" and f"{e.hi:.5g}" == "1.3711"
        and f"{e0.lo:.5g}" == "1.3705" and f"{e0.hi:.5g}" == "1.3714"
    )
    _check(7, ok, f"Si(pi/2) in [{e.lo:.6f}, {e.hi:.6f}] (quadratic-limit variant "
                  f"[{e0.lo:.6f}, {e0.hi:.6f}]), oracle {oracle:.10f}")


def test_c08_trigamma_half():
    e = trigamma_half_enclosure()
    ok = (round(e.lo, 4) == 4.5621 and round(e.hi, 4) == 4.9845
          and e.contains(math.pi ** 2 / 2.0))
    _check(8, ok, f"trigamma(1/2) in [{e.lo:.5f}, {e.hi:.5f}] containing pi^2/2")


def test_c09_catalan():
    e = catalan_enclosure()
    g = 0.9159655941772190
    from scipy.integrate import quad
    i_lo, _ = quad(lambda x: 1.0 / cos_bound(UPPER_EDGE, x), 0.0, HALF_PI,
                   epsabs=1e-13, epsrel=1e-13)
    i_hi, _ = quad(lambda x: 1.0 / cos_bound(0.75, x), 0.0, HALF_PI,
                   epsabs=1e-13, epsrel=1e-13)
    ok = (
        round(e.lo, 5) == 0.91586 and round(e.hi, 5) == 0.91675
        and e.contains(g)
        and abs(catalan_reference(1_000_000) - g) < 1e-10
        and round(i_lo, 4) == 1.8317 and round(i_hi, 4) == 1.8335
        and abs(i_lo - 2.0 * e.lo) < 1e-9 and abs(i_hi - 2.0 * e.hi) < 1e-9
    )
    _check(9, ok, f"Catalan in [{e.lo:.6f}, {e.hi:.6f}]; proof integrals "
                  f"{i_lo:.5f}, {i_hi:.5f} match the closed forms")


def test_c10_sb_mean_bound():
    pairs = _points(10_000, seed=20250810)
    circular = sum(m.a < m.b for m in pairs)
    hyperbolic = sum(m.a > m.b for m in pairs)
    worst = min((sb_mean(m) - sb_lower_bound(m)) / m.b for m in pairs)
    at_double = sb_lower_bound(MeanPoint(1.0, 2.0)) / 2.0
    ok = (
        worst >= 0.0
        and circular > 1000 and hyperbolic > 1000
        and round(at_double, 5) == 0.82643
    )
    _check(10, ok, f"bound <= SB mean on 1e4 pairs ({circular} circular, "
                   f"{hyperbolic} hyperbolic; worst gap {worst:.2e}); "
                   f"bound at b=2a is {at_double:.6f} b")


def _exact_comparison_coeff_3():
    # exact arithmetic in Q[sqrt3]; pairs (r, s) encode r + s*sqrt(3)
    def mul(u, v):
        return (u[0] * v[0] + 3 * u[1] * v[1], u[0] * v[1] + u[1] * v[0])

    def pow_(u, k):
        out = (Fraction(1), Fraction(0))
        for _ in range(k):
            out = mul(out, u)
        return out

    x = mul((Fraction(-1), Fraction(3, 5)), pow_((Fraction(1), Fraction(2, 3)), 5))
    y = mul((Fraction(1), Fraction(3, 5)), pow_((Fraction(-1), Fraction(2, 3)), 5))
    return (x[0] + y[0] - Fraction(2, 5), x[1] + y[1])


def test_c11_log_mean_machinery():
    pairs = _points(10_000, seed=20250811)
    contained = all(log_mean_sandwich(m).contains(log_mean(m)) for m in pairs)
    ps = np.linspace(0.0, 3.0, 21)
    monotone = all(
        all(mean_family(float(q), m) > mean_family(float(p), m)
            for p, q in zip(ps, ps[1:]))
        for m in _points(1000, seed=20250812)
    )
    d3_exact = _exact_comparison_coeff_3() == (Fraction(64, 45), Fraction(0))
    d_pos = all(comparison_coeff(n) > 0.0 for n in range(3, 51))
    d_grid = np.geomspace(1e-3, 30.0, 200)
    d_nonneg = all(lower_bound_comparison(float(x)) >= 0.0 for x in d_grid)
    ok = contained and monotone and d3_exact and d_pos and d_nonneg
    _check(11, ok, "log-mean sandwich on 1e4 pairs; family strictly increasing "
                   "over 21 orders x 1e3 pairs; d3 = 64/45 exactly; "
                   "comparison series positive and its gap nonnegative")


def test_c12_series_coefficient_machinery():
    coeff_ok = True
    for c in np.linspace(0.05, 0.6, 12):
        seq = CoefficientSeq(float(c))
        coeff_ok &= all(seq.term(n) >= 0.0 for n in range(1, 101))
        coeff_ok &= all(seq.ratio_excess(n) > 0.0 for n in range(3, 100))
        coeff_ok &= all(seq.term(n + 1) / seq.term(n) <= 11.0 / 5.0 + 1e-12
                        for n in range(3, 100))
    rep = verify_leibniz_ratio(UPPER_EDGE, 30)
    bound = 11.0 * math.pi ** 2 / 360.0
    ratio_ok = rep.verdict is Verdict.HOLDS and rep.min_margin > 0.0 and bound < 1.0
    _check(12, coeff_ok and ratio_ok,
           f"coefficient nonnegativity and ratio bracket (1, 11/5] for n <= 100; "
           f"term ratios below {bound:.4f} for n <= 30")


def test_c13_property_suite_and_runtime():
    # series/direct agreement through the switch
    agree = True
    for p in (0.1, 0.5, UPPER_EDGE, 1.0):
        for x in np.linspace(0.05, 0.7, 27):
            v, tail = _gap_series(p, float(x), hyperbolic=False)
            agree &= abs(v - (sinc(float(x)) - cos_bound(p, float(x)))) <= tail + 16 * EPS
            v, tail = _gap_series(p, float(x), hyperbolic=True)
            agree &= abs(v - (sinhc(float(x)) - cosh_bound(p, float(x)))) <= tail + 16 * EPS
    # parameter monotonicity, >= 1e3 triples per family
    rng = np.random.default_rng(20250813)
    mono = True
    for _ in range(1200):
        p, q = sorted(rng.uniform(0.0, 1.0, 2))
        x = rng.uniform(0.05, HALF_PI - 0.05)
        if q - p > 1e-3:
            mono &= cos_bound(p, x) < cos_bound(q, x)
        p, q = sorted(rng.uniform(0.0, 3.0, 2))
        x = rng.uniform(0.05, 20.0)
        if q - p > 1e-3:
            mono &= cosh_bound(p, x) < cosh_bound(q, x)
    # bridge identity between the hyperbolic family and the means
    bridge = True
    for m in _points(1000, seed=20250814):
        lhs = sinhc(half_log_ratio(m))
        rhs = log_mean(m) / math.sqrt(m.a * m.b) if math.isfinite(m.a * m.b) \
            else log_mean(m) / (math.sqrt(m.a) * math.sqrt(m.b))
        bridge &= abs(lhs - rhs) <= 1e-12 * abs(rhs)
    elapsed = time.perf_counter() - _T0
    ok = agree and mono and bridge and elapsed < 60.0
    _check(13, ok, f"series/direct agreement, family monotonicity, bridge identity; "
                   f"acceptance module finished in {elapsed:.1f} s")
