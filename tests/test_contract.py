"""The input contract of every public callable: one table, one sweep.

TABLE has one row for each public callable of sincbounds (so for each
function of core.FUNCTIONS), each `eval --fn` and each `special --name`.
A row says what the callable takes and what it does with it: the rule of
its p and of its x (or of its pair, count or single real argument), the
limits it returns at the edges, the p -> 0 limits, and the error it raises
otherwise, with the words of the message.  README's "Input contract" table
states the same rows in words.

test_sweep runs each row on one fixed adversarial set, as a number and as
an array, and the CLI rows in-process through cli.main.  Every call gives
a finite value or the row's limit, or raises the row's error; no call
raises RuntimeError or warns; the number and array forms agree; `eval`
exits 0 or 2 and `special` 0, 1 or 2, with no exception escaping main.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import math
import numbers
import sys
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np
import pytest

import sincbounds
from sincbounds import cli, constants, core, integrals, means, verifier

INF, NAN, MAX = math.inf, math.nan, sys.float_info.max
CUTOFF = 1e-8  # p at or below this takes the p -> 0 limit

# the fixed adversarial set: numbers of every kind, then two arrays
NUMBERS = (0.0, -0.0, 5e-324, MAX, -MAX, INF, -INF, NAN, 3, True, np.float64(0.3), np.array(0.3))
ARRAYS = ([0.3, 1.2], np.array([0.3, NAN]))
P_NUMBERS = NUMBERS + (1e155, 1e300)  # a parameter meets these too
# a count meets these too: each least value (0, 1, 3, 4 and 64), one below it,
# its float and a half above it, a numpy integer, a string and None
COUNTS = (-1, 0, 1, 2, 3, 4, 63, 64, 0.5, 1.0, 1.5, 3.0, 3.5, 4.0, 4.5, 64.0, 64.5, np.int64(65), "3", None)
ANY = object()  # a rule's answer: returns, with the value as given


# ------------------------------------------------------------------ the rules
# A rule maps the arguments (numbers as floats) to what the call gives: an
# exception (its type and message), a value (a limit), ANY, or None: a finite
# value, or one of the row's `errors`.

def hyp(p):
    """The hyperbolic family's p rule: finite and >= 0."""
    ok = math.isfinite(p) and p >= 0.0
    return None if ok else ValueError(f"parameter must be finite and >= 0, got {p!r}")


def trig(p):
    """The trig family's p rule: in [0, 1]."""
    return hyp(p) or (ValueError(f"trig family parameter must lie in [0, 1], got {p!r}") if p > 1.0 else None)


def positive(rule):
    """rule, and p > 0: the power forms."""
    return lambda p: rule(p) or (None if p > 0.0 else ValueError(f"p must be positive, got {p!r}"))


def certified(p):
    """quartic_constants' p rule: p in [0, sqrt(3/5)]."""
    ok = math.isfinite(p) and 0.0 <= p and p * p <= 0.6 * (1.0 + 1e-12)
    return None if ok else ValueError(f"parameter outside the certified range [0, sqrt(3/5)]: {p!r}")


def finite_x(name, x):
    """+-inf has no limit (ValueError naming the function); NaN gives nan."""
    if math.isinf(x):
        return ValueError(f"{name} needs a finite x, got {x!r}")
    return NAN if x != x else None


def gap_x(name, x):
    """The gaps: exactly 0 at x = 0; a NaN or infinite x raises."""
    if not math.isfinite(x):
        return ValueError(f"{name} needs a finite x, got {x!r}")
    return 0.0 if x == 0.0 else None


def limit(x, at_inf):
    """at_inf at x = +-inf, nan at NaN."""
    return at_inf if math.isinf(x) else NAN if x != x else None


def t_in(ok, text):
    """A t in an interval."""
    return lambda t: None if ok(t) else ValueError(f"t must lie in {text}, got {t!r}")


def count(name, least):
    """A count: an integer (a numpy one too, and bool), at least `least`."""
    ok = lambda n: isinstance(n, numbers.Integral) and n >= least
    return lambda n: None if ok(n) else ValueError(f"{name} must be an integer >= {least}, got {n!r}")


def pair(sb=False):
    """The pair rule of means: finite and positive; a >= 0, b > 0 for the sb means."""
    def rule(a, b):
        ok = math.isfinite(a) and math.isfinite(b) and b > 0.0 and (a >= 0.0 if sb else a > 0.0)
        need = "a >= 0 and b > 0" if sb else "finite and positive arguments"
        return None if ok else ValueError(f"need {need}, got ({a!r}, {b!r})")
    return rule


def scaled_gap(p, x):
    if hyp(p) or p <= CUTOFF:
        return hyp(p) or ValueError("scaled gap needs p well above 0")
    if x <= 0.0:
        return ValueError("x must be positive")
    return limit(x, INF if p < 1.0 else -1.0 / (6.0 * p * p))


def comparison_x(x):
    if x < 0.0:
        return ValueError(f"x must be >= 0, got {x!r}")
    return None if math.isfinite(x) else ValueError(f"lower_bound_comparison needs a finite x, got {x!r}")


def seq_c(c):
    """CoefficientSeq's c: in (0, 3/5], with a slack for sqrt(15)/5 squared."""
    return None if 0.0 < c <= 0.6 * (1.0 + 1e-12) else ValueError(f"c must lie in (0, 3/5], got {c!r}")


def leibniz(p):
    return trig(p) or seq_c(p * p)


def sharpness_offset(offset):
    if not offset >= 1e-11:  # 10x the SINC_LOWER edge's certified radius
        return ValueError("offset must be >= 10x the threshold's certified radius")
    return trig(constants.solve_sinc_lower_edge().value + offset)


def enclosure_lo(lo):
    return ANY if lo <= 1.0 else ValueError(f"empty enclosure: [{lo!r}, 1.0]")


def domain(lo):
    if not math.isfinite(lo):
        return ValueError(f"domain endpoints must be finite, got {(lo, 1.0)!r}")
    return None if lo < 1.0 else ValueError(f"domain must satisfy xmin < xmax, got {(lo, 1.0)!r}")


# ------------------------------------------------------------------ the table

@dataclass(frozen=True)
class Row:
    """takes: "p, x", "x", "p", "pair", "p, pair", "count", "t" (one real),
    "cli", or "" (no argument, or a record or enum: not swept).  call: the
    callable with the swept arguments.  rule: see above; a "p, x" rule takes
    (p, x), a "p, pair" rule (p, a, b).  errors: message prefixes a finite
    input may also raise (OverflowError for "... overflows").  arrays: x (or
    the pair) may be an array, else an array raises TypeError.  inf: +inf is
    a value a finite input may give (the row's documented overflow)."""

    takes: str
    call: Callable = None
    rule: Callable = None
    errors: tuple = ()
    arrays: bool = False
    inf: bool = False


def fam(fn, rule, errors=(), arrays=True, inf=False):
    return Row("p, x", fn, rule, errors, arrays, inf)


CASE = verifier.InequalityCase("contract", partial(core.cos_bound, 0.5), core.sinc, (0.0, 1.0))
# the forms of InequalityCase's upper endpoint: a float, a float32, a numpy scalar, an int, 0-d arrays
HIGH_ENDPOINTS = (1.0, np.float32(1.0), np.float64(1.0), 1, np.array(1.0), np.array(1, dtype=np.float32))


def case_domain(lo):
    """InequalityCase's domain with lo as given, the same two floats for
    every form of hi."""
    (got,) = {verifier.InequalityCase("c", core.sinc, core.sinc, (lo, hi)).domain for hi in HIGH_ENDPOINTS}
    assert [type(v) for v in got] == [float, float], got
    return got
LOWER = verifier.SharpnessFamily.SINC_LOWER, verifier.ThresholdSide.ABOVE
RECORD = Row("")  # fields as given, or an enum's member values

TABLE = {
    # core: p is a plain number; x a number or an array (see fam)
    "sinc": Row("x", core.sinc, partial(finite_x, "sinc"), arrays=True),
    "sinhc": Row("x", core.sinhc, partial(finite_x, "sinhc"), ("sinhc overflows",), arrays=True),
    "cos_bound": fam(core.cos_bound, lambda p, x: trig(p) or (
        1.0 - x * x / 6.0 if p <= CUTOFF else finite_x("cos_bound", x)), ("cos_bound overflows",)),
    "cosh_bound": fam(core.cosh_bound, lambda p, x: hyp(p) or (
        1.0 + x * x / 6.0 if p <= CUTOFF else limit(x, INF)), ("cosh_bound overflows",)),
    "cos_power_bound": fam(core.cos_power_bound, lambda p, x: positive(trig)(p) or (
        math.exp(-x * x / 6.0) if p <= CUTOFF else finite_x("cos_power_bound", x)),
        ("cos(p*x) must be positive",)),
    "cosh_power_bound": fam(core.cosh_power_bound, lambda p, x: positive(hyp)(p) or (
        math.exp(x * x / 6.0) if p <= CUTOFF else limit(x, INF)), ("cosh_power_bound overflows",)),
    "sinhc_gap_scaled": fam(core.sinhc_gap_scaled, scaled_gap, inf=True),
    # the gaps take a number x only, and are exactly 0 at x = 0
    "sinc_gap": fam(core.sinc_gap, lambda p, x: trig(p) or gap_x("sinc_gap", x), ("sinc_gap overflows",),
                     arrays=False),
    "sinhc_gap": fam(core.sinhc_gap, lambda p, x: hyp(p) or gap_x("sinhc_gap", x), ("sinhc_gap overflows",),
                      arrays=False),
    "quartic_gap_coeff": Row("p", core.quartic_gap_coeff,
                             lambda p: hyp(p) or (1.0 / 120.0 if p == 0 else None),
                             ("quartic_gap_coeff overflows",)),
    "gap_series_coeff": Row("count", lambda n: core.gap_series_coeff(n, 0.5), count("n", 1)),
    "gap_series_coeff c": Row("t", partial(core.gap_series_coeff, 2), lambda c: None if 0.0 <= c < INF else
                              ValueError(f"c must be >= 0 and finite, got {c!r}"),
                              ("gap_series_coeff overflows",)),
    "CoefficientSeq": Row("t", lambda c: core.CoefficientSeq(c).c, seq_c),
    "CoefficientSeq.ratio_excess": Row("count", core.CoefficientSeq(0.5).ratio_excess, count("n", 3)),
    # constants
    "sinc_gap_at_half_pi": Row("p", constants.sinc_gap_at_half_pi, trig),
    "quartic_constants": Row("p", constants.quartic_constants, certified),
    "solve_sinc_lower_edge": Row("t", constants.solve_sinc_lower_edge, lambda t: None if t >= 1e-15 else
                                 ValueError("tolerance must be >= 1e-15")),
    "sinc_upper_edge": Row("", constants.sinc_upper_edge),
    "sinhc_upper_edge": Row("", constants.sinhc_upper_edge),
    # means: a pair of numbers, or of equal-length 1-D arrays
    **{name: Row("pair", getattr(means, name), pair(sb=name.startswith("sb")), arrays=True)
       for name in ("geometric_mean", "half_log_ratio", "log_mean", "sb_mean", "sb_lower_bound",
                    "log_mean_sandwich")},
    "MeanPoint": Row("pair", lambda m: means.MeanPoint(*m), pair()),
    "mean_family": Row("p, pair", means.mean_family, lambda p, a, b: hyp(abs(p)) or pair()(a, b),
                       ("mean_family overflows",), arrays=True, inf=True),
    "comparison_coeff": Row("count", means.comparison_coeff, count("n", 1)),
    "lower_bound_comparison": Row("t", means.lower_bound_comparison, comparison_x,
                                  ("lower_bound_comparison overflows",)),
    "random_pairs": Row("count", lambda n: means.random_pairs(n, 1), count("n", 0)),
    "random_pairs seed": Row("count", lambda s: means.random_pairs(2, s), count("seed", 0)),
    # integrals
    "si_reference": Row("t", integrals.si_reference, t_in(lambda t: 0.0 <= t <= 10.0, "[0, 10]")),
    "sh_reference": Row("t", integrals.sh_reference, lambda t: math.pi ** 2 / 4.0 if t == INF else
                        t_in(lambda t: 0.0 <= t <= 50.0, "[0, 50]")(t)),
    "si_enclosure": Row("t", lambda t: integrals.si_enclosure(t, 0.5),
                        t_in(lambda t: 0.0 < t <= math.pi / 2.0, "(0, pi/2]")),
    "si_enclosure p": Row("p", partial(integrals.si_enclosure, 1.0), certified),
    "sh_enclosure": Row("t", integrals.sh_enclosure, lambda t: None if t > 0.0 else
                        ValueError(f"t must be positive, got {t!r}")),
    "catalan_reference": Row("count", integrals.catalan_reference, count("terms", 1)),
    "trigamma_half_enclosure": Row("", integrals.trigamma_half_enclosure),
    "catalan_enclosure": Row("", integrals.catalan_enclosure),
    "Enclosure": Row("t", lambda lo: integrals.Enclosure(float(lo), 1.0), enclosure_lo),
    # numeric strings are read with float(), then ordered as numbers
    "Enclosure str": Row("t", lambda lo: integrals.Enclosure(repr(float(lo)), "1"), enclosure_lo),
    # verifier: the counts, the parameters and the domain
    "verify": Row("count", lambda n: verifier.verify(CASE, points=n), count("points", 64)),
    "verify refine_rounds": Row("count", lambda n: verifier.verify(CASE, 64, n), count("refine_rounds", 0)),
    "verify_leibniz_ratio": Row("count", partial(verifier.verify_leibniz_ratio, 0.5), count("n_max", 4)),
    "verify_leibniz_ratio p": Row("p", lambda p: verifier.verify_leibniz_ratio(p, 8), leibniz),
    "verify_sharpness": Row("t", lambda o: verifier.verify_sharpness(*LOWER, o, points=64), sharpness_offset),
    "InequalityCase": Row("t", case_domain, domain),
    # taken as given or checked by their own tests: a chain needs 2 members, p_grid
    # 2 increasing orders and pairs 1 pair, run_suite one of its suites
    **{name: RECORD for name in ("verify_chain", "verify_param_monotone", "expected_sharpness_verdict",
                                 "run_suite", "GapEvaluation", "GapMethod", "QuarticBound", "SharpConstant",
                                 "QuadratureResult", "CheckResult", "SharpnessFamily",
                                 "ThresholdSide", "Verdict", "VerificationReport", "Violation")},
    # the CLI: eval is its library function, --x finite; special exits 0, 1 or 2
    **{f"eval --fn {fn}": Row("cli", fn) for fn in cli._EVAL_FNS},
    **{f"special --name {name}": Row("cli", name) for name in cli._SPECIAL_OPTIONS},
}


# ------------------------------------------------------------------ the sweep

def outcome(fn, *args):
    """("value", v) or ("raises", type, message); a warning is an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return "value", fn(*args)
        except Exception as exc:
            return "raises", type(exc), str(exc)


def values(v) -> np.ndarray:
    """The numbers of a result."""
    if isinstance(v, integrals.Enclosure):
        v = (v.lo, v.hi)
    elif isinstance(v, constants.QuarticBound):
        v = (v.c_lo, v.c_hi)
    elif isinstance(v, means.MeanPoint):
        v = (v.a, v.b)
    elif isinstance(v, verifier.VerificationReport):
        v = v.min_margin
    elif hasattr(v, "value"):  # GapEvaluation, SharpConstant, QuadratureResult
        v = v.value
    return np.asarray(v, dtype=float).ravel()


def check(name, row, got, want, x=None):
    """got is what the call gave, want what row.rule says; x is the float
    argument, at which an infinite want is an overflow."""
    assert not (got[0] == "raises" and issubclass(got[1], (RuntimeError, Warning))), (name, got)
    overflow = want in (INF, -INF) and x is not None and math.isfinite(x) and not row.inf
    if isinstance(want, Exception):
        assert got == ("raises", type(want), str(want)), (name, want)
    elif got[0] == "raises":
        assert want is None or overflow, (name, got, want)
        kind = OverflowError if got[2].startswith(f"{name.split()[0]} overflows") else ValueError
        assert got[1] is kind and got[2].startswith(row.errors), (name, got)
    elif want is None:
        v = values(got[1])
        assert np.isfinite(v).all() or row.inf and (v[np.isinf(v)] > 0).all(), (name, got)
    elif want is not ANY:
        assert not overflow and np.array_equal(values(got[1]), [want], equal_nan=True), (name, got, want)


def agree(u, v, ulps, floor):
    """u and v (number and array results) within ulps of max(floor, |u|, |v|)."""
    u, v = values(u), values(v)
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf, the spacing of MAX
        near = np.abs(u - v) <= ulps * np.spacing(np.maximum(floor, np.maximum(np.abs(u), np.abs(v))))
    return bool((near | (u == v) | (np.isnan(u) & np.isnan(v))).all())


def check_forms(name, row, number, array, ulps=8.0, floor=1.0):
    """The array form of a number call gives the number's value, within
    ulps, or its error; an overflow or an x without a limit raises
    FloatingPointError (core), a bad pair names index 0 (means), and a
    callable that takes numbers only raises TypeError."""
    if not row.arrays:  # TypeError, or first the ValueError of a rule read before x
        assert array[1] is TypeError or array[:2] == number[:2] == ("raises", ValueError), \
            (name, number, array)
    elif number[0] == "value":
        assert array[0] == "value" and agree(number[1], array[1], ulps, floor), (name, number, array)
    elif row.takes.endswith("pair"):
        assert array in (number, number[:2] + (number[2] + " at index 0",)), (name, number, array)
    elif number[1] is OverflowError or "needs a finite x" in number[2]:
        assert array[1] is FloatingPointError, (name, number, array)
    else:  # the p rule, or the x rule of sinhc_gap_scaled and cos_power_bound
        assert array[:2] == number[:2], (name, number, array)


def sweep_x(name, row, p=()):
    """x over the set, as a number and as a one-element array, then the two
    arrays against their elements one by one."""
    for x in NUMBERS:
        number = outcome(row.call, *p, x)
        check(name, row, number, row.rule(*map(float, p), float(x)), float(x))
        check_forms(name, row, number, outcome(row.call, *p, np.array([x])))
    for xs in ARRAYS:
        got = outcome(row.call, *p, xs)
        each = [outcome(row.call, *p, float(x)) for x in xs]
        if not row.arrays:
            want = row.rule(*map(float, p), 0.3)
            want = type(want) if isinstance(want, Exception) else TypeError  # the p rule first
            assert got[:2] == ("raises", want), (name, got)
        elif all(e[0] == "value" for e in each):
            assert got[0] == "value" and agree([e[1] for e in each], got[1], 8.0, 1.0), (name, xs, got)
        else:
            assert got[0] == "raises", (name, xs, got)


def half_log(a, b):
    a, b = float(a), float(b)
    return abs(math.log(a) - math.log(b)) / 2.0 if 0.0 < a < INF and 0.0 < b < INF else 0.0


def sweep_pair(name, row, p=(), pairs=None):
    """The pair sweep: each number as a, as b and as both; with the means'
    array contract of 8 + 2|p|x ulps, x the half log ratio."""
    pairs = pairs or [(a, 2.0) for a in NUMBERS] + [(2.0, b) for b in NUMBERS] + [(a, a) for a in NUMBERS]
    for a, b in pairs:
        number = outcome(row.call, *p, (a, b))
        check(name, row, number, row.rule(*(float(v) for v in p), float(a), float(b)))
        if not row.arrays:
            assert outcome(row.call, *p, (np.array([a]), b))[1] is TypeError, (name, a, b)
            continue
        ulps = 8.0 + 2.0 * abs(float(p[0]) if p else 1.0) * half_log(a, b)
        for form in (np.array, list):
            check_forms(name, row, number, outcome(row.call, *p, (form([a]), form([b]))), ulps, 0.0)


def run_cli(argv):
    """main's exit code and its stderr: an error goes to stderr with exit 2
    and nothing on stdout; an exception escaping main fails the sweep."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(argv)
    assert (code == 2) == bool(err.getvalue()) == (out.getvalue() == ""), (argv, code, err.getvalue())
    return code, err.getvalue()


CLI_VALUES = sorted({repr(float(v)) for v in P_NUMBERS})


def sweep_eval(fn):
    """eval prints its library function's value (exit 0) or its error (exit
    2, "evaluation error: " and the message); --x must be finite."""
    name, p = fn.replace("-", "_"), None if fn in ("sinc", "sinhc") else "0.5"
    cases = [(x, p) for x in CLI_VALUES] + ([("0.3", q) for q in CLI_VALUES] if p else [])
    for x, p in cases:
        argv = ["eval", "--fn", fn, f"--x={x}"] + ([f"--p={p}"] if p else [])  # "=": -1e308 is no option
        got = outcome(core.member(name, None if p is None else float(p))[1], float(x))
        want = (2, f"--x must be finite, got {float(x)!r}\n") if not math.isfinite(float(x)) else \
            (0, "") if got[0] == "value" else (2, f"evaluation error: {got[2]}\n")
        assert run_cli(argv) == want, argv


def sweep_special(name):
    """Each option of special --name over the set, the others at their
    defaults (--a 1, --b 2 where required): exit 0, 1 or 2."""
    options = cli._SPECIAL_OPTIONS[name]
    given = {o: "1.0" if o == "a" else "2.0" for o, default in options.items() if default is None}
    for option in options:
        for v in (["0", "1", "3", "21", "-1", "0.5"] if option == "terms" else CLI_VALUES):
            argv = ["special", "--name", name] + [f"--{o}={w}" for o, w in {**given, option: v}.items()]
            assert run_cli(argv)[0] in (0, 1, 2), argv
    assert run_cli(["special", "--name", name] + [f"--{o}={w}" for o, w in given.items()])[0] in (0, 1)


@pytest.mark.parametrize("name", [n for n, row in TABLE.items() if row.takes])
def test_sweep(name):
    row = TABLE[name]
    if row.takes == "p, x":
        for p in P_NUMBERS:
            sweep_x(name, row, (p,))
    elif row.takes == "x":
        sweep_x(name, row)
    elif row.takes in ("p", "t"):
        for v in P_NUMBERS:
            got = outcome(row.call, v)
            check(name, row, got, row.rule(float(v)), float(v))
            check_forms(name, row, got, outcome(row.call, np.array([v])))
    elif row.takes == "count":
        for n in NUMBERS + ARRAYS + COUNTS:
            got = outcome(row.call, n)
            check(name, row, got, row.rule(n))
            if got[0] == "value" and not isinstance(n, int):  # a numpy integer counts as its int
                assert repr(got) == repr(outcome(row.call, int(n))), (name, n)
    elif row.takes == "pair":
        sweep_pair(name, row)
    elif row.takes == "p, pair":
        for p in P_NUMBERS:
            sweep_pair(name, row, (p,), [(1.0, 2.0), (5e-324, 1.0), (1.0, 1.0000000001)])
        sweep_pair(name, row, (0.5,))
    elif name.startswith("eval"):
        sweep_eval(row.call)
    else:
        sweep_special(row.call)


def test_a_row_without_arguments_returns_finite_numbers():
    for name, row in TABLE.items():
        if row.takes == "" and row.call is not None:
            assert np.isfinite(values(row.call())).all(), name


def test_every_public_callable_has_a_row():
    # a new public function, --fn or --name fails here until the table states its contract
    public = {n for n in sincbounds.__all__ if callable(getattr(sincbounds, n))
              and not inspect.ismodule(getattr(sincbounds, n))}
    rows = {name.split()[0] for name in TABLE}
    assert public - rows == set()
    assert {core.FUNCTIONS[n].rpartition(".")[2] for n in core.FUNCTIONS} - rows == set()
    assert {f"eval --fn {fn}" for fn in cli._EVAL_FNS} <= set(TABLE)
    assert {f"special --name {name}" for name in cli._SPECIAL_OPTIONS} <= set(TABLE)
