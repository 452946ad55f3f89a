"""Smoke test of the benchmark itself, at tiny sizes.  From the repository root:

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import worker  # noqa: E402
import workloads  # noqa: E402
import yardstick  # noqa: E402


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    for m in declared:  # also printed for people, by name and unit
        assert any(line.split()[:1] == [m["name"]] and line.endswith(" " + m["unit"])
                   for line in lines), m["name"]
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    assert {"cpu", "nproc", "python", "numpy", "scipy", "mpmath", "git_commit",
            "seed"} <= set(env)
    assert env["seed"] == 3


def test_planted_wrong_verdict_counts_in_error_rate():
    wl = workloads.DenseGrid(seed=3, tiny=True)
    before = worker.end_to_end(worker.measure(wl, 0.0), wl.rusage)
    (family, side, offset), verdict = next(
        (key, v) for key, v in wl.expected.items() if key[2] == 1e-3)
    wl.expected[(family, side, offset)] = "fails" if verdict == "holds" else "holds"
    run = worker.measure(wl, 0.0)
    after = worker.end_to_end(run, wl.rusage)
    assert run["attempted"] == 90
    assert after["ok_share"] == pytest.approx(before["ok_share"] - 1 / 90)
    unexpected = [key for key, known in run["failures"] if not known]
    assert f"sharpness {family}/{side} offset 0.001: {verdict}" in unexpected


def test_planted_wrong_golden_output_counts_as_failed(monkeypatch):
    monkeypatch.chdir(ROOT)
    golden = json.loads(workloads.GOLDEN_CLI.read_text())
    planted = golden["eval"][0]
    golden["eval"] = [{**planted, "stdout": planted["stdout"].replace("=", "~", 1)}]
    wl = workloads.Cli(seed=3, golden=golden)
    run = worker.measure(wl, 0.0)
    assert run["attempted"] == len(workloads.CLI_COMMANDS)
    assert list(run["failures"]) == [("sincbounds " + " ".join(planted["args"]) + " (exit 0)",
                                      False)]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "corpus", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_reaches_names_imported_from_other_modules():
    # means and constants call cosh_bound and cos_bound through their own
    # imported copies; integrals calls scipy's quad through its own name
    code = """if True:
        import json, tracer
        t = tracer.Tracer()
        t.install()
        from sincbounds import constants, integrals, means
        means.mean_family(0.7, (1.0, 4.0))
        constants.quartic_bound_eval(constants.quartic_constants(0.7), 1.0, constants.Side.LOWER)
        integrals.si_reference(1.0)
        print(json.dumps(t.counts))
    """
    env = {**os.environ, "PYTHONPATH": f"{ROOT / 'perfbench'}:{ROOT / 'src'}"}
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout)
    assert counts["core.calls"] == 3  # cosh_bound, cos_bound, quartic_gap_coeff
    assert counts["means.calls"] == 1 and counts["means.pairs"] == 1
    assert counts["constants.calls"] == 2
    assert counts["integrals.quad_calls"] == 1 and counts["integrals.quad_evals"] > 0


def test_each_operation_is_scaled_by_the_readings_around_it():
    # a clock that each operation advances by 1 s and each reading by the
    # next of `steps`; every reading is due, since 1 s > READING_EVERY_S
    now = [0.0]
    steps = iter([2.0, 4.0, 1.0])

    def advance(dt):
        now[0] += dt

    stick = yardstick.Yardstick(lambda: advance(next(steps)), lambda: now[0], 3.0)

    class Fake:
        yardstick = stick

        def ops(self):
            return [lambda: advance(1.0), lambda: advance(1.0)]

        def check(self, outs):
            return workloads.Tally(items=len(outs), attempted=len(outs))

    run = worker.measure(Fake(), 0.0)
    assert run["cycles"] == 1 and run["readings"] == 3
    assert run["scaled"] == pytest.approx([1.0 * 3.0 / 3.0, 1.0 * 3.0 / 2.5])
    assert worker.cycle_s(run) == pytest.approx(1.0 + 1.2)
