import importlib
import os
import runpy
from pathlib import Path

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
