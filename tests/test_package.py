import copy
import importlib
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
    "SharpnessFamily", "Side", "ThresholdSide", "Verdict", "VerificationReport", "Violation",
    "bound_reciprocal_integrals", "catalan_enclosure", "catalan_reference", "comparison_coeff",
    "constants", "core", "corpus", "cos_bound", "cos_power_bound", "cosh_bound",
    "cosh_power_bound", "expected_sharpness_verdict", "gap_series_coeff", "geometric_mean",
    "half_log_ratio", "integrals", "log_mean", "log_mean_sandwich", "lower_bound_comparison",
    "mean_family", "means", "quartic_bound_eval", "quartic_constants", "quartic_gap_coeff",
    "random_pairs", "run_suite", "sb_lower_bound", "sb_mean", "sh_enclosure", "sh_reference",
    "si_enclosure", "si_reference", "sinc", "sinc_gap", "sinc_gap_at_half_pi", "sinc_upper_edge",
    "sinhc", "sinhc_gap", "sinhc_gap_scaled", "sinhc_upper_edge", "solve_sinc_lower_edge",
    "trigamma_half_enclosure", "verifier", "verify", "verify_chain", "verify_leibniz_ratio",
    "verify_param_monotone", "verify_sharpness",
]
SUBMODULES = ("core", "constants", "integrals", "means", "verifier", "corpus")


def test_all_lists_the_public_names():
    assert len(PUBLIC) == 65
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


# the records of the numpy-free modules, each with its repr (GapEvaluation's
# shows its default tail_bound); a numpy scalar field of CoefficientSeq and
# Enclosure is held as a float, which its repr shows
RECORDS = [
    (sincbounds.GapEvaluation(0.25, 1.5e-6, sincbounds.GapMethod.SERIES),
     "GapEvaluation(x=0.25, value=1.5e-06, method=<GapMethod.SERIES: 'series'>, tail_bound=0.0)"),
    (sincbounds.CoefficientSeq(np.float32(0.5)), "CoefficientSeq(c=0.5)"),
    (sincbounds.SharpConstant(0.75, 1e-12), "SharpConstant(value=0.75, certified_radius=1e-12)"),
    (sincbounds.QuarticBound(0.5, -1e-5, 0.001), "QuarticBound(p=0.5, c_lo=-1e-05, c_hi=0.001)"),
    (sincbounds.Enclosure(np.float64(1.0), np.int64(2)), "Enclosure(lo=1.0, hi=2.0)"),
    (sincbounds.QuadratureResult(1.5, 1e-14, 21),
     "QuadratureResult(value=1.5, error_estimate=1e-14, evaluations=21)"),
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
], ids=["seq", "seq-numpy", "enclosure", "enclosure-arrays"])
def test_a_validating_record_names_its_bad_fields(make, args, message):
    with pytest.raises(ValueError) as err:
        make(*args)
    assert str(err.value) == message
