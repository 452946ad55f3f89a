import ast
import copy
import importlib
import math
import os
import pickle
import runpy
from pathlib import Path

import numpy as np
import pytest

import sincbounds
from sincbounds import cli

# what `from sincbounds import *` bound when the package imported every
# module eagerly: the re-exported names and the six submodules
PUBLIC = [
    "CheckResult", "CoefficientSeq", "Enclosure", "GapEvaluation", "GapMethod", "InequalityCase",
    "MeanPoint", "QuadratureResult", "QuarticBound", "SERIES_SWITCH", "SharpConstant",
    "SharpnessFamily", "ThresholdSide", "Verdict", "VerificationReport", "Violation",
    "catalan_enclosure", "catalan_reference", "comparison_coeff",
    "constants", "core", "corpus", "cos_bound", "cos_power_bound", "cosh_bound",
    "cosh_power_bound", "expected_sharpness_verdict", "gap_series_coeff", "geometric_mean",
    "half_log_ratio", "integrals", "log_mean", "log_mean_sandwich", "lower_bound_comparison",
    "mean_family", "means", "quartic_constants", "quartic_gap_coeff",
    "random_pairs", "run_suite", "sb_lower_bound", "sb_mean", "sh_enclosure", "sh_reference",
    "si_enclosure", "si_reference", "sinc", "sinc_gap", "sinc_gap_at_half_pi", "sinc_upper_edge",
    "sinhc", "sinhc_gap", "sinhc_gap_scaled", "sinhc_upper_edge", "solve_sinc_lower_edge",
    "trigamma_half_enclosure", "verifier", "verify", "verify_chain", "verify_leibniz_ratio",
    "verify_param_monotone", "verify_sharpness",
]
SUBMODULES = ("core", "constants", "integrals", "means", "verifier", "corpus")


def test_all_lists_the_public_names():
    assert len(PUBLIC) == 62
    assert sincbounds.__all__ == PUBLIC
    assert set(PUBLIC) <= set(dir(sincbounds))


@pytest.mark.parametrize("name", PUBLIC)
def test_each_name_is_its_submodules_object(name):
    got = getattr(sincbounds, name)
    if name in SUBMODULES:
        assert got is importlib.import_module(f"sincbounds.{name}")
    else:  # the object itself, not a copy or a proxy
        assert any(vars(importlib.import_module(f"sincbounds.{m}")).get(name) is got
                   for m in SUBMODULES)


def test_star_import_binds_every_name():
    ns = {}
    exec("from sincbounds import *", ns)
    assert sorted(set(ns) - {"__builtins__"}) == PUBLIC


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'sincbounds' has no attribute 'no_such_name'"):
        sincbounds.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from sincbounds import no_such_name", {})


def test_the_console_script_runs_what_python_m_runs(monkeypatch):
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(sincbounds.__file__).resolve().parents[2] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["sincbounds"]
    module, _, attr = target.partition(":")
    # running the entry module sets OPENBLAS_NUM_THREADS; keep this process's environment
    monkeypatch.setattr(os, "environ", dict(os.environ))
    # __main__.py's globals, run under its own name so that it does not call main()
    ran = runpy.run_module("sincbounds")["main"]
    assert getattr(importlib.import_module(module), attr) is ran is cli.main


def test_every_imported_name_is_read():
    # no linter runs here, so this is the dead-import check: a name a module
    # imports is read in that module, save the future import and the
    # package's re-exports of its submodules' names
    unread = []
    for path in sorted(Path(sincbounds.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(node, "module", None) == "__future__" or (path.name == "__init__.py"
                                                                 and getattr(node, "level", 0)):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in read:
                    unread.append(f"{path.name}:{node.lineno} {name}")
    assert unread == []


# every record of the package, each with its repr (the defaults of
# GapEvaluation, VerificationReport and CheckResult show); a number field of
# CoefficientSeq, Enclosure, MeanPoint and InequalityCase's domain is held as
# a float, which its repr shows.  The case's sides are module-level functions,
# so that it pickles
_VIOLATION = sincbounds.Violation(0.5, 1.0, 0.9)
RECORDS = [
    (sincbounds.GapEvaluation(0.25, 1.5e-6, sincbounds.GapMethod.SERIES),
     "GapEvaluation(x=0.25, value=1.5e-06, method=<GapMethod.SERIES: 'series'>, tail_bound=0.0)"),
    (sincbounds.CoefficientSeq(np.float32(0.5)), "CoefficientSeq(c=0.5)"),
    (sincbounds.SharpConstant(0.75, 1e-12), "SharpConstant(value=0.75, certified_radius=1e-12)"),
    (sincbounds.QuarticBound(0.5, -1e-5, 0.001), "QuarticBound(p=0.5, c_lo=-1e-05, c_hi=0.001)"),
    (sincbounds.Enclosure(np.float64(1.0), np.int64(2)), "Enclosure(lo=1.0, hi=2.0)"),
    (sincbounds.QuadratureResult(1.5, 1e-14, 21),
     "QuadratureResult(value=1.5, error_estimate=1e-14, evaluations=21)"),
    (sincbounds.MeanPoint(np.float32(2.0), 1), "MeanPoint(a=2.0, b=1.0)"),
    (sincbounds.InequalityCase("sinc < sinhc", sincbounds.sinc, sincbounds.sinhc,
                               [0, np.float32(1.5)]),
     f"InequalityCase(id='sinc < sinhc', lhs={sincbounds.sinc!r}, rhs={sincbounds.sinhc!r}, "
     "domain=(0.0, 1.5))"),
    (_VIOLATION, "Violation(x=0.5, lhs=1.0, rhs=0.9)"),
    (sincbounds.VerificationReport("c", 64, -0.1, 0.5, [_VIOLATION], sincbounds.Verdict.FAILS, 1),
     "VerificationReport(case_id='c', grid_points=64, min_margin=-0.1, argmin_x=0.5, "
     "violations=[Violation(x=0.5, lhs=1.0, rhs=0.9)], verdict=<Verdict.FAILS: 'fails'>, "
     "n_violations=1, diagnostic='')"),
    (sincbounds.CheckResult("theorem1", "a < b", "inequality", True, "holds", "holds"),
     "CheckResult(suite='theorem1', id='a < b', kind='inequality', ok=True, expected='holds', "
     "observed='holds', detail='', report=None)"),
]


@pytest.mark.parametrize("record, text", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS])
def test_a_record_is_an_immutable_tuple_of_its_fields(record, text):
    assert repr(record) == text
    for name in (record._fields[0], "other"):  # no field is assignable, and there is no __dict__
        with pytest.raises(AttributeError):
            setattr(record, name, 0.0)
    assert record == tuple(getattr(record, f) for f in record._fields)
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(twin) is type(record) and twin == record and repr(twin) == text


@pytest.mark.parametrize("make, args, message", [
    (sincbounds.CoefficientSeq, (0.7,), "c must lie in (0, 3/5], got 0.7"),
    (sincbounds.CoefficientSeq, (np.float64(0.0),), "c must lie in (0, 3/5], got 0.0"),
    (sincbounds.Enclosure, (2.0, np.float32(1.0)), "empty enclosure: [2.0, 1.0]"),
    (sincbounds.Enclosure, (np.array([0.0, 3.0]), np.array([1.0, 2.0])),
     "empty enclosure: [array([0., 3.]), array([1., 2.])]"),
    (sincbounds.MeanPoint, (1.0, -2.0), "need finite and positive arguments, got (1.0, -2.0)"),
    (sincbounds.MeanPoint, (np.float32(0.0), 1), "need finite and positive arguments, got (0.0, 1.0)"),
    (sincbounds.InequalityCase, ("c", sincbounds.sinc, sincbounds.sinc, (0, math.inf)),
     "domain endpoints must be finite, got (0.0, inf)"),
    (sincbounds.InequalityCase, ("c", sincbounds.sinc, sincbounds.sinc, (np.float32(1.0), 1)),
     "domain must satisfy xmin < xmax, got (1.0, 1.0)"),
], ids=["seq", "seq-numpy", "enclosure", "enclosure-arrays", "mean-point", "mean-point-numpy",
        "case-infinite", "case-empty"])
def test_a_validating_record_names_its_bad_fields(make, args, message):
    with pytest.raises(ValueError) as err:
        make(*args)
    assert str(err.value) == message


# a valid record of each validating class, a field change its constructor
# rejects and one it converts
_VALIDATING = [
    (sincbounds.CoefficientSeq(0.5), {"c": 0.9}, {"c": np.float32(0.25)}),
    (sincbounds.Enclosure(1.0, 2.0), {"lo": 5.0}, {"lo": np.float32(0.5)}),
    (sincbounds.MeanPoint(1.0, 2.0), {"b": -1.0}, {"b": np.float32(0.5)}),
    (sincbounds.InequalityCase("c", sincbounds.sinc, sincbounds.sinc, (0.0, 1.0)),
     {"domain": (1.0, 0.0)}, {"domain": [0, np.float32(0.5)]}),
]


def _outcome(build) -> str:
    try:
        return repr(build())
    except ValueError as err:
        return f"ValueError: {err}"


@pytest.mark.parametrize("record, bad, good", _VALIDATING,
                         ids=[type(r).__name__ for r, _, _ in _VALIDATING])
def test_replace_and_make_check_as_the_constructor_does(record, bad, good):
    cls = type(record)
    for change in (bad, good):
        fields = [change.get(f, getattr(record, f)) for f in record._fields]
        want = _outcome(lambda: cls(*fields))
        assert want.startswith("ValueError: ") is (change is bad), want
        assert _outcome(lambda: record._replace(**change)) == want
        assert _outcome(lambda: cls._make(fields)) == want
