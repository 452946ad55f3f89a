import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sincbounds
from sincbounds import core, corpus, integrals, verifier
from sincbounds.cli import _linspace, build_parser, chain_table, main
from sincbounds.corpus import CheckResult
from sincbounds.means import MeanPoint, log_mean


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _child_env():
    return dict(os.environ, PYTHONPATH=str(Path(sincbounds.__file__).resolve().parents[1]))


def test_constants_text(capsys):
    code, out, _ = run(capsys, "constants")
    assert code == 0
    assert "0.77086" in out
    assert "0.774596669" in out
    assert "0.82643" in out
    assert "sinc_lower_edge" in out


def test_constants_json_and_determinism(capsys):
    code, out1, _ = run(capsys, "constants", "--format", "json")
    assert code == 0
    rows = json.loads(out1)
    assert rows[0]["name"] == "sinc_lower_edge"
    assert round(rows[0]["value"], 5) == 0.77086
    _, out2, _ = run(capsys, "constants", "--format", "json")
    assert out1 == out2


def test_verify_suites_exit_zero(capsys):
    for suite in ("theorem1", "chains"):
        code, out, _ = run(capsys, "verify", "--suite", suite, "--points", "512")
        assert code == 0, out
        assert "checks ok" in out


def test_verify_json_round_trip(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "remarks", "--points", "256",
                       "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert all(r["ok"] for r in rows)
    assert json.loads(json.dumps(rows)) == rows
    # byte-identical reruns
    _, out2, _ = run(capsys, "verify", "--suite", "remarks", "--points", "256",
                     "--format", "json")
    assert out == out2


def test_verify_csv(capsys):
    # csv.reader gives 7 fields on every row: the fields that hold commas, such
    # as the "[lo, hi]" expected strings and the id "d1=d2=0, d_n>0", are quoted
    import csv
    code, out, _ = run(capsys, "verify", "--suite", "all", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["suite", "id", "kind", "ok", "expected", "observed", "detail"]
    assert all(len(row) == 7 for row in rows)
    assert rows[1:] == [[str(v) for v in r[:7]] for r in corpus.run_suite("all")]
    assert sum(row[0] == "chains" for row in rows) == 15
    assert any("," in row[1] for row in rows) and any("," in row[4] for row in rows)


def test_verify_exit_one_on_failure(capsys, monkeypatch):
    fake = [CheckResult(suite="x", id="broken", kind="value", ok=False,
                        expected="0", observed="1")]
    monkeypatch.setattr(corpus, "run_suite", lambda *a, **k: fake)
    code, out, _ = run(capsys, "verify", "--suite", "all")
    assert code == 1
    assert "FAIL" in out


def test_usage_errors(capsys):
    assert run(capsys, "verify", "--points", "10")[0] == 2
    assert run(capsys, "table", "--chain", "m1c", "--points", "10")[0] == 2
    assert run(capsys, "constants", "--tol", "1.0")[0] == 2
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys, "eval", "--fn", "cos-bound", "--x", "1.0")[0] == 2  # missing --p
    assert run(capsys, "special", "--name", "sb", "--a", "1.0")[0] == 2   # missing --b
    for argv in (("verify", "--suite", "theorem1"), ("verify", "--suite", "propositions"),
                 ("table", "--chain", "meanchain")):
        assert run(capsys, *argv, "--seed", "-1") == (2, "", "--seed must be >= 0\n")
    assert run(capsys, "special", "--name", "sb", "--a", "1") == (
        2, "", "--a and --b are required for sb\n")
    assert run(capsys, "eval", "--fn", "sinc", "--x", "nan") == (
        2, "", "--x must be finite, got nan\n")
    assert run(capsys, "eval", "--fn", "cosh-bound", "--p", "2", "--x", "700") == (
        2, "", "evaluation error: cosh_bound overflows the double range at x=700.0\n")


@pytest.mark.parametrize("argv", [
    ("table", "--chain", "m1c", "--format", "json"),
    ("eval", "--fn", "sinc", "--x", "1.0", "--points", "100"),
    ("constants", "--seed", "1"),
    ("verify", "--suite", "theorem1", "--tol", "1e-9"),
    ("special", "--name", "si", "--points", "100"),
], ids=lambda argv: argv[0])
def test_subcommands_reject_options_they_do_not_read(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err


@pytest.mark.parametrize("argv", [
    ("eval", "--fn", "sinc", "--x", "1", "--p", "0.3"),
    ("eval", "--fn", "sinhc", "--x", "1", "--p", "0.3"),
    ("special", "--name", "trigamma-half", "--t", "5"),
    ("special", "--name", "catalan", "--p", "3"),
    ("special", "--name", "sh", "--p", "0.5"),
    ("special", "--name", "si", "--t", "1", "--a", "1"),
    ("special", "--name", "sb", "--a", "1", "--b", "2", "--terms", "5"),
    ("special", "--name", "log-mean", "--a", "1", "--b", "2", "--t", "1"),
], ids=" ".join)
def test_options_the_chosen_function_does_not_read_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert f"reads no {argv[-2]}" in err


@pytest.mark.parametrize("chain", ["m1c", "m2c"])
def test_a_fixed_chain_reads_no_pair(capsys, chain):
    code, out, err = run(capsys, "table", "--chain", chain, "--pair", "1", "4")
    assert (code, out, err) == (2, "", f"{chain} reads no --pair\n")


@pytest.mark.parametrize("argv, message", [
    (("--chain", "m1c", "--points", "64", "--seed", "5"), "m1c reads no --seed"),
    (("--chain", "m2c", "--seed", "5", "--pair", "1", "4"), "m2c reads no --seed --pair"),
    (("--chain", "meanchain", "--pair", "1", "4", "--points", "100"),
     "meanchain reads no --points with --pair"),
    (("--chain", "meanchain", "--pair", "1", "4", "--seed", "3"), "meanchain reads no --seed with --pair"),
    (("--chain", "meanchain", "--pair", "1", "4", "--seed", str(20250810)),
     "meanchain reads no --seed with --pair"),  # the default, given, is still given
], ids=["m1c-seed", "m2c-seed-pair", "pair-points", "pair-seed", "pair-default-seed"])
def test_table_rejects_an_option_its_chain_does_not_read(capsys, argv, message):
    code, out, err = run(capsys, "table", *argv)
    assert (code, out, err) == (2, "", message + "\n")


def test_table_defaults_apply_where_not_given(capsys):
    # a fixed chain's grid and the mean chain's seeded pairs, as with the defaults given
    for argv, defaults in ((("--chain", "m2c"), ("--points", "4096")),
                           (("--chain", "meanchain", "--points", "64"), ("--seed", "20250810"))):
        want = run(capsys, "table", *argv, *defaults)
        assert want[0] == 0 and run(capsys, "table", *argv) == want


def test_suite_and_chain_choices_match_the_corpus():
    # the parser keeps the suites literal, so that parsing imports no corpus
    sub = next(a for a in build_parser()._actions if a.dest == "command").choices
    choices = {a.dest: a.choices for name in ("verify", "table") for a in sub[name]._actions}
    assert choices["suite"] == ("all",) + corpus.SUITES
    assert choices["chain"] == (*corpus.CHAINS, "meanchain")


def test_eval_fn_choices_are_the_numpy_free_names_of_the_map():
    sub = next(a for a in build_parser()._actions if a.dest == "command").choices
    (fn,) = [a.choices for a in sub["eval"]._actions if a.dest == "fn"]
    numpy_free = {n for n in core.FUNCTIONS if core.member(n)[1].__module__ == "sincbounds.core"}
    assert set(fn) == {n.replace("_", "-") for n in numpy_free}
    assert list(fn) == ["cos-bound", "cos-power", "cosh-bound", "cosh-power", "scaled-gap",
                        "sinc", "sinc-gap", "sinhc", "sinhc-gap"]


def test_a_closed_pipe_ends_quietly():
    proc = subprocess.Popen(
        [sys.executable, "-m", "sincbounds", "table", "--chain", "m1c", "--points", "5000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env())
    assert proc.stdout.readline().startswith(b"x,")  # the rows fill the pipe, then block
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141  # 128 + SIGPIPE
    assert err == b""


def test_eval(capsys):
    code, out, _ = run(capsys, "eval", "--fn", "sinc", "--x", "0")
    assert code == 0 and out.strip().endswith("= 1")
    code, out, _ = run(capsys, "eval", "--fn", "sinc-gap", "--p", "0.7", "--x", "0.3")
    assert code == 0 and "series" in out
    code, out, _ = run(capsys, "eval", "--fn", "cos-power", "--p", "1.0", "--x", "2.0")
    assert code == 2  # domain error surfaces as usage-style failure


@pytest.mark.parametrize("fn", ["sinc-gap", "cos-bound", "sinhc"])
@pytest.mark.parametrize("x", ["nan", "inf", "-inf"])
def test_eval_rejects_non_finite_x(capsys, fn, x):
    code, out, err = run(capsys, "eval", "--fn", fn, "--p", "0.7", f"--x={x}")
    assert code == 2
    assert out == ""
    assert "--x must be finite" in err


@pytest.mark.parametrize("fn, p, x", [
    ("cosh-bound", "2", "700"), ("sinhc-gap", "2", "700"), ("cos-bound", "0", "1e200"),
    ("sinc-gap", "0", "1e200"), ("cosh-power", "1e-9", "1e200"),
    # math.sinh, math.cosh or a float power overflows inside the function
    ("cosh-bound", "1", "1500"), ("sinhc", None, "800"), ("sinhc-gap", "1", "800"),
    ("cosh-power", "1", "1e308"),
])
def test_eval_signals_overflow(capsys, fn, p, x):
    code, out, err = run(capsys, "eval", "--fn", fn, *(("--p", p) if p else ()), "--x", x)
    assert code == 2
    assert out == ""
    name = core.FUNCTIONS[fn.replace("-", "_")]
    assert err == f"evaluation error: {name} overflows the double range at x={float(x)!r}\n"


@pytest.mark.parametrize("fn", ["cos-bound", "cosh-bound", "cos-power", "cosh-power", "sinc-gap",
                                "sinhc-gap", "scaled-gap"])
@pytest.mark.parametrize("p", ["nan", "inf"])
def test_eval_rejects_non_finite_p(capsys, fn, p):
    code, out, err = run(capsys, "eval", "--fn", fn, f"--p={p}", "--x", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("evaluation error: ")


def test_eval_scaled_gap_keeps_its_documented_inf(capsys):
    code, out, _ = run(capsys, "eval", "--fn", "scaled-gap", "--p", "0.5", "--x", "1e4")
    assert code == 0 and out.strip().endswith("= inf")


def test_table_m1c(capsys):
    code, out, _ = run(capsys, "table", "--chain", "m1c", "--points", "64")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 65
    header = lines[0].split(",")
    assert header[0] == "x" and header[5] == "sinc"
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.0
    assert all(v == 1.0 for v in first[1:10])      # every member is 1 at x = 0
    mid = [float(v) for v in lines[40].split(",")]
    assert all(b > a for a, b in zip(mid[1:10], mid[2:10]))  # strict chain order
    assert all(m > 0.0 for m in mid[10:])


def test_table_m2c_limit_row(capsys):
    code, out, _ = run(capsys, "table", "--chain", "m2c", "--points", "64")
    assert code == 0
    first = [float(v) for v in out.strip().splitlines()[1].split(",")]
    assert first[0] == 0.0 and all(v == 1.0 for v in first[1:9])


@pytest.mark.parametrize("chain", sorted(core.CHAINS))
def test_table_grid_is_linspace_bit_for_bit(chain):
    lo, hi = core.CHAINS[chain][1]
    for n in [*range(64, 5001), 65536]:
        got = np.array(_linspace(lo, hi, n))
        assert np.array_equal(got.view(np.int64), np.linspace(lo, hi, n).view(np.int64)), n


def test_chain_table_at_explicit_point():
    header, rows = chain_table("m1c", [1.0])
    vals = rows[0][1:10]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        chain_table("nope", [1.0])


def test_table_meanchain_pair(capsys):
    code, out, _ = run(capsys, "table", "--chain", "meanchain", "--pair", "1", "4")
    assert code == 0
    lines = out.strip().splitlines()
    row = [float(v) for v in lines[1].split(",")]
    vals = row[2:10]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    L = log_mean(MeanPoint(1.0, 4.0))
    assert L == pytest.approx(3.0 / math.log(4.0), rel=1e-14)
    assert vals[4] < L < vals[6]  # family members bracket the log mean


@pytest.mark.parametrize("argv, digest", [
    (("--points", "300"), "b0804bde30e6c3bcdc0cc51e726f21c15961cbb74cd2854342ff5f5c7ac03139"),
    (("--points", "64", "--seed", "5"),
     "f0d2d9f9c7191c09419c5a26cb94bc7e61892ad05ef10aa5d72de105c21a15ee"),
])
def test_table_meanchain_random_pairs_bytes(capsys, argv, digest):
    # the seeded pairs path of the mean chain, which no golden command runs
    code, out, _ = run(capsys, "table", "--chain", "meanchain", *argv)
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    (("m2c", "--points", "64"), "fbc6885044a0f6327a67729ab85d558dc817ac83a545ca40152a35b43f0a3c30"),
    (("m1c",), "beaca7147999c9c7c40689d51eba9118f82ad331e1c0b60db6b25f6043d98de4"),
    (("m2c",), "e7107028611d4d491c8ed7e289ad368e9dd2c57085593704cd49b94ad0c31747"),
])
def test_table_fixed_chain_bytes(capsys, argv, digest):
    # the hyperbolic chain and the default 4096 points, which no golden command runs
    code, out, _ = run(capsys, "table", "--chain", *argv)
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest


def test_table_meanchain_loads_no_corpus_or_verifier():
    # the mean chain's members come from core, like the fixed chains'
    code = """if True:
        import contextlib, io, sys
        from sincbounds import cli
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["table", "--chain", "meanchain", "--points", "64"]) == 0
        print(sorted(set(sys.modules) & {"sincbounds.corpus", "sincbounds.verifier", "sincbounds.means"}))
    """
    proc = subprocess.run([sys.executable, "-c", code], env=_child_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['sincbounds.means']"


def test_table_meanchain_rejects_a_bad_pair(capsys):
    code, out, err = run(capsys, "table", "--chain", "meanchain", "--pair", "-1", "4")
    assert (code, out, err) == (2, "", "need finite and positive arguments, got (-1.0, 4.0)\n")


def test_special_commands(capsys):
    code, out, _ = run(capsys, "special", "--name", "si")
    assert code == 0 and "contained" in out
    code, out, _ = run(capsys, "special", "--name", "catalan", "--terms", "5000")
    assert code == 0 and "contained" in out
    code, out, _ = run(capsys, "special", "--name", "trigamma-half")
    assert code == 0
    code, out, _ = run(capsys, "special", "--name", "sh", "--t", "2.5")
    assert code == 0
    code, out, _ = run(capsys, "special", "--name", "sb", "--a", "1", "--b", "4")
    assert code == 0 and "ok" in out
    code, out, _ = run(capsys, "special", "--name", "log-mean", "--a", "1", "--b", "4")
    assert code == 0 and "contained" in out


def test_special_log_mean_far_pair_has_finite_ends(capsys):
    # G * family factor overflows at p = 1 while the mean is in range
    code, out, err = run(capsys, "special", "--name", "log-mean", "--a", "5e-324", "--b", "1e300")
    assert (code, err) == (0, "")
    assert out == ("log-mean: enclosure [1.5705399527075127e+229, 1.6666666666666125e+299] "
                   "oracle 6.9675942773036959e+296 : contained\n")


def test_special_sh_at_infinity(capsys):
    code, out, err = run(capsys, "special", "--name", "sh", "--t", "inf")
    assert (code, err) == (0, "")
    assert out.endswith("oracle 2.4674011002723395 : contained\n")
    code, _, err = run(capsys, "special", "--name", "sh", "--t", "51")
    assert code == 2 and "t must lie in [0, 50]" in err


@pytest.mark.parametrize("t", ["4.5", "50"])
def test_special_sh_beyond_the_panel(capsys, t):
    code, out, err = run(capsys, "special", "--name", "sh", "--t", t)
    assert (code, err) == (0, "")
    assert out.startswith("sh: enclosure [") and out.endswith(" : contained\n")


@pytest.mark.parametrize("t", ["1e-3", "1e-8", "1e-300"])
def test_special_sh_at_small_t(capsys, t):
    # the ends once cancelled here: 1e-3 gave an empty enclosure, 1e-8 missed
    code, out, err = run(capsys, "special", "--name", "sh", "--t", t)
    assert (code, err) == (0, "")
    assert out.startswith("sh: enclosure [") and out.endswith(" : contained\n")


def test_special_sb_admits_a_zero(capsys):
    code, out, _ = run(capsys, "special", "--name", "sb", "--a", "0", "--b", "1")
    assert code == 0
    assert out == "sb(0, 1): bound 0.63418277473486795 <= mean 0.63661977236758127 : ok\n"
    code, _, err = run(capsys, "special", "--name", "sb", "--a", "-1", "--b", "1")
    assert code == 2 and "a >= 0" in err
    assert run(capsys, "special", "--name", "sb", "--a", "1", "--b", "0")[0] == 2


@pytest.mark.parametrize("a, b", [("1e200", "1e200"), ("1e210", "1e210"), ("1", "5e-324"),
                                  ("0", "1e308")])
def test_special_sb_decides_within_rounding_and_range(capsys, a, b):
    # the bound is tight at a = b, where rounding may put it an ulp or two
    # above the mean; the far pairs once gave inf or nan
    code, out, err = run(capsys, "special", "--name", "sb", "--a", a, "--b", b)
    assert (code, err) == (0, "")
    assert out.startswith("sb(") and out.endswith(" : ok\n")


@pytest.mark.parametrize("name, explicit", [
    ("si", ("--t", "1.5707963267948966", "--p", "0.6666666666666666")),
    ("sh", ("--t", "1")),
    ("catalan", ("--terms", "1000000")),
])
def test_special_defaults_equal_the_explicit_options(capsys, name, explicit):
    implicit = run(capsys, "special", "--name", name)
    assert implicit[0] == 0
    assert run(capsys, "special", "--name", name, *explicit) == implicit


GOLDEN_CLI = Path(__file__).resolve().parent.parent / "perfbench" / "golden_cli.json"


def test_verify_matches_golden_bytes(capsys):
    # the benchmark's recorded stdout and exit code of every command variant, byte for byte
    golden = json.loads(GOLDEN_CLI.read_text())
    assert sorted(golden) == ["constants", "eval", "special", "table", "verify"]
    assert ["--seed", "3"] in [g["args"][-2:] for g in golden["verify"]]
    entries = [g for variants in golden.values() for g in variants]
    assert len(entries) == 20
    for g in entries:
        code, out, _ = run(capsys, *g["args"])
        assert (code, out) == (g["exit"], g["stdout"]), g["args"]


def test_the_process_entry_matches_golden_bytes():
    # the first variant of each command through `python -m sincbounds`, the
    # path the benchmark's cli workload runs
    golden = json.loads(GOLDEN_CLI.read_text())
    for variants in golden.values():
        g = variants[0]
        proc = subprocess.run([sys.executable, "-m", "sincbounds", *g["args"]], env=_child_env(),
                              capture_output=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (g["exit"], g["stdout"].encode()), g["args"]


def _threads_at_exit(code, env):
    """The thread count of a child python that runs code, read at its exit."""
    code = ("import atexit, os, sys\n"
            "atexit.register(lambda: print(len(os.listdir('/proc/self/task')), file=sys.stderr))\n"
            + code)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stderr.split()[-1])


# `python -m sincbounds verify ...`, as -m runs it
_VERIFY_AS_MAIN = ("import runpy\n"
                   "sys.argv = ['sincbounds', 'verify', '--suite', 'theorem1', '--points', '64']\n"
                   "runpy.run_module('sincbounds', run_name='__main__', alter_sys=True)\n")


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc/self/task")
def test_a_cli_process_runs_one_blas_thread():
    env = _child_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    assert _threads_at_exit(_VERIFY_AS_MAIN, env) == 1
    # the caller's value wins: as many threads as numpy alone starts under it
    env["OPENBLAS_NUM_THREADS"] = "2"
    assert _threads_at_exit(_VERIFY_AS_MAIN, env) == _threads_at_exit("import numpy", env)


def test_the_library_leaves_the_environment_alone():
    code = """if True:
        import contextlib, io, os
        before = dict(os.environ)
        import sincbounds
        from sincbounds import cli
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["verify", "--suite", "theorem1", "--points", "64"]) == 0
        assert dict(os.environ) == before
    """
    env = _child_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_run_suite_all_digest_unchanged():
    # every result of the corpus at six seeds, repr for repr
    h = hashlib.sha256()
    for seed in (20250810, 1, 2, 3, 7, 42):
        h.update(repr(corpus.run_suite("all", seed=seed)).encode())
    assert h.hexdigest()[:16] == "0fa2b868da750def"


def test_dense_grid_reports_unchanged():
    # the reports at 65536 points, where no golden command runs, repr for
    # repr: the two theorems, the chains, the remarks and the 8 SINHC_UPPER
    # sharpness cells (each with its scan of the scaled gap on (1, 1e12))
    def digest(value):
        return hashlib.sha256(repr(value).encode()).hexdigest()

    points = 65536
    assert digest(corpus.run_suite("theorem1", points=points)) == \
        "0dd011bcda2f46eb5c7e4d38377e77a1be35ee0acf037be10472d1f18823d8ec"
    assert digest(corpus.run_suite("theorem2", points=points)) == \
        "0421dc7b4eeb4e6a778f5acb6479535172ed35b89c310b6310fae337950d8076"
    assert digest(corpus.run_suite("chains", points=points)) == \
        "4c67e870e179c14bf06f58d7716fbd3f60b2278f727f59050a73a16953c1dc77"
    assert digest(corpus.run_suite("remarks", points=points)) == \
        "c9d73116e1ffc746d7152bdea5dd8219bf15aefe434299690b873bdc199da445"
    cells = [verifier.verify_sharpness(verifier.SharpnessFamily.SINHC_UPPER, side, offset, points=points)
             for side in verifier.ThresholdSide for offset in (1e-3, 1e-5, 1e-7, 1e-9)]
    assert digest(cells) == "d0e02a809f991afe939bc32d4c709958ad73af4442100896307a802c10c62265"


def test_run_suite_all_calls_each_suite_through_module_attribute(monkeypatch):
    # a wrapper patched onto corpus.run_suite (the benchmark's tracer) must see every suite
    real = corpus.run_suite
    seen = []

    def record(name, points=4096, seed=20250810):
        seen.append((name, points, seed))
        return real(name, points, seed) if name == "all" else [name]

    monkeypatch.setattr(corpus, "run_suite", record)
    assert corpus.run_suite("all", points=64, seed=5) == list(corpus.SUITES)
    assert seen == [("all", 64, 5)] + [(s, 64, 5) for s in corpus.SUITES]
    with pytest.raises(ValueError, match="unknown suite 'nope'"):
        real("nope")


def test_special_json(capsys):
    code, out, _ = run(capsys, "special", "--name", "si", "--format", "json")
    assert code == 0
    row = json.loads(out)[0]
    assert row["contained"] is True
    assert row["lo"] <= row["oracle"] <= row["hi"]


@pytest.mark.parametrize("terms, word, code", [
    ("1", "INCONCLUSIVE", 1),   # oracle 0.667 +- 0.34 straddles the enclosure
    ("5", "INCONCLUSIVE", 1),   # oracle +- 3e-4 straddles its lower end
    ("6", "contained", 0),
    (None, "contained", 0),
])
def test_special_catalan_decides_with_the_oracle_error(capsys, terms, word, code):
    args = ("special", "--name", "catalan") + (("--terms", terms) if terms else ())
    got, out, _ = run(capsys, *args)
    assert got == code and out.endswith(f" : {word}\n"), out
    got, out, _ = run(capsys, *args, "--format", "json")
    assert got == code
    assert json.loads(out)[0]["contained"] == {"INCONCLUSIVE": None, "contained": True}[word]


def test_an_oracle_within_its_error_of_an_end_is_inconclusive(capsys, monkeypatch):
    # each sh oracle moved onto its enclosure's upper end, with a proven
    # error (a series: no integrand evaluations): oracle +- err straddles
    # the end, so neither the propositions suite nor special may call it
    # contained
    def straddling(t):
        return integrals.QuadratureResult(integrals.sh_enclosure(t).hi, 1e-9, 0)

    monkeypatch.setattr(integrals, "sh_reference", straddling)
    code, out, _ = run(capsys, "verify", "--suite", "propositions", "--points", "64")
    lines = [line for line in out.splitlines() if "sh_enclosure" in line]
    assert code == 1 and out.endswith("\n25/29 checks ok\n")
    assert len(lines) == 4 and all(line.startswith("[FAIL]") for line in lines), lines
    got, out, _ = run(capsys, "special", "--name", "sh", "--t", "1")
    assert got == 1 and out.endswith(" : INCONCLUSIVE\n"), out
    got, out, _ = run(capsys, "special", "--name", "sh", "--t", "1", "--format", "json")
    assert got == 1 and json.loads(out)[0]["contained"] is None


def test_verify_propositions_at_seed_807(capsys):
    # a pair of this seed puts sb_lower_bound 0.92 ulp above sb_mean
    code, out, _ = run(capsys, "verify", "--suite", "propositions", "--seed", "807")
    assert code == 0 and out.endswith("\n29/29 checks ok\n")
    a, b = 278.22567442627735, 278.22573278923375
    code, out, _ = run(capsys, "special", "--name", "sb", "--a", repr(a), "--b", repr(b))
    assert code == 0 and out.endswith(" : ok\n")
