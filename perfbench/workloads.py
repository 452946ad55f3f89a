"""The benchmark's workloads: seeded inputs, one cycle of operations, and the
correctness checks applied to every cycle's outputs.

Each workload is a closed loop driven by one client: an operation starts
when the previous one has returned.  A cycle is the fixed list of
operations the loop repeats; every cycle runs the same inputs, so counts
per cycle repeat exactly.  `check` runs outside the timed region.

    corpus      corpus.run_suite("all") at the shipped default size; mostly
                the scalar loops of the means layer
    dense_grid  the four grid suites at 65536 points plus the 32-cell
                sharpness matrix; verifier and array evaluators
    pointwise   scalar public calls; per-call overhead, gap series,
                enclosures and their quadrature oracles
    cli         fresh `python -m sincbounds` processes, one at a time;
                import time and byte-exact output
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from yardstick import ARRAYS, COMPUTE, PROCESS

HERE = Path(__file__).resolve().parent
GOLDEN_CLI = HERE / "golden_cli.json"
CLI_COMMANDS = ("constants", "eval", "special", "table", "verify")

# Verifier deadband used by the pointwise oracle check: 64 ulps of the
# local magnitude, the same floor as sincbounds.verifier.FLOOR_ULPS.
DEADBAND_ULPS = 64.0
_EPS = math.ulp(1.0)


@dataclass
class Tally:
    """Outcome of checking one cycle.  `items` is the work counted by the
    throughput metric; `attempted` the outputs checked; `failures` the keys
    of the outputs found wrong, with whether each is a known defect."""

    items: float = 0.0
    attempted: int = 0
    failures: list[tuple[str, bool]] = field(default_factory=list)
    output_bytes: int = 0

    def add(self, ok: bool, key: str, known: bool = False) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append((key, known))


class _InProcess:
    """A workload that calls the library in the measuring process."""

    rusage = resource.RUSAGE_SELF
    yardstick = COMPUTE

    def warmup(self):
        self.ops()[0]()

    def instrument(self, tracer):
        tracer.install()


class Corpus(_InProcess):
    name = "corpus"
    unit = "checks"

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.points = 256 if tiny else 4096

    def ops(self):
        from sincbounds import corpus
        return [lambda: corpus.run_suite("all", points=self.points, seed=self.seed)]

    def check(self, outs) -> Tally:
        t = Tally()
        for results in outs:
            t.items += len(results)
            for r in results:
                t.add(r.ok, f"{r.suite}: {r.id}")
        return t


# Wrong sharpness verdicts of the seed commit: `holds` where `fails` is
# expected (ROADMAP item 2).  They are counted as failed operations like any
# other; listing them only keeps them from marking the run incorrect.
KNOWN_WRONG_VERDICTS = frozenset(
    (family, side, offset)
    for family, side in (("sinc_lower", "above"), ("sinc_upper", "below"),
                         ("sinhc_lower", "above"))
    for offset in (1e-7, 1e-9)
)


class DenseGrid(_InProcess):
    name = "dense_grid"
    unit = "grid points"
    yardstick = ARRAYS
    SUITES = ("theorem1", "theorem2", "chains", "remarks")
    OFFSETS = (1e-3, 1e-5, 1e-7, 1e-9)

    def __init__(self, seed: int, tiny: bool = False):
        from sincbounds import verifier
        self.points = 256 if tiny else 65536
        cells = [(f, s, o) for f in verifier.SharpnessFamily
                 for s in verifier.ThresholdSide for o in self.OFFSETS]
        self.expected = {(f.value, s.value, o): verifier.expected_sharpness_verdict(f, s).value
                         for f, s, o in cells}
        # the seed only shuffles the order of the 36 calls in a cycle
        self.specs = [("suite", s) for s in self.SUITES] + [("cell", c) for c in cells]
        random.Random(seed).shuffle(self.specs)

    def _op(self, spec):
        from sincbounds import corpus, verifier
        kind, arg = spec
        if kind == "suite":
            return lambda: corpus.run_suite(arg, points=self.points)
        family, side, offset = arg
        return lambda: verifier.verify_sharpness(family, side, offset, points=self.points)

    def ops(self):
        return [self._op(spec) for spec in self.specs]

    def warmup(self):
        # not ops()[0]: the seed shuffles the ops, and set-up should not depend on it
        self._op(("suite", self.SUITES[0]))()

    def check(self, outs) -> Tally:
        t = Tally()
        for (kind, arg), out in zip(self.specs, outs):
            if kind == "suite":
                t.items += sum(r.report.grid_points for r in out if r.report is not None)
                for r in out:
                    t.add(r.ok, f"{r.suite}: {r.id}")
            else:
                key = (arg[0].value, arg[1].value, arg[2])
                t.items += out.grid_points
                t.add(out.verdict.value == self.expected[key],
                      "sharpness %s/%s offset %g: %s" % (*key, out.verdict.value),
                      known=key in KNOWN_WRONG_VERDICTS)
        return t


# calls of each kind in one pointwise batch, in call order; an enclosure is
# immediately followed by its oracle on the same t
POINTWISE_MIX = (
    ("sinc_gap", 150), ("sinhc_gap", 150), ("cos_bound", 150), ("cosh_bound", 150),
    ("log_mean_sandwich", 120), ("sb_mean", 120), ("sb_lower_bound", 120),
    ("si_enclosure", 10), ("sh_enclosure", 10),
)
_ORACLE = {"si_enclosure": "si_reference", "sh_enclosure": "sh_reference"}
_MODULE = {"sinc_gap": "core", "sinhc_gap": "core", "cos_bound": "core", "cosh_bound": "core",
           "log_mean_sandwich": "means", "sb_mean": "means", "sb_lower_bound": "means",
           "si_enclosure": "integrals", "si_reference": "integrals",
           "sh_enclosure": "integrals", "sh_reference": "integrals"}
ORACLE_STRIDE = 10  # every 10th gap and bound call is checked against mpmath


class Pointwise(_InProcess):
    name = "pointwise"
    unit = "calls"

    def __init__(self, seed: int, tiny: bool = False):
        from sincbounds import means
        self.batches = 1 if tiny else 4
        self.scale = 1 if tiny else 2
        self.n_pairs = dict(POINTWISE_MIX)["sb_mean"] * self.scale
        rng = np.random.default_rng(seed)
        self.inputs = [self._batch_inputs(rng, means.MeanPoint) for _ in range(self.batches)]
        self._log_mean = means.log_mean  # for checks; bound before any tracing
        self._expected: dict[int, dict] = {}

    def _batch_inputs(self, rng, mean_point):
        """(kind, args) for one batch: gap calls split evenly on both sides of
        SERIES_SWITCH = 0.5; one set of log-uniform pairs, over twelve decades
        of ratio, shared by the three mean functions."""
        calls = []
        ratio = 10.0 ** rng.uniform(-6.0, 6.0, self.n_pairs)
        scale = 10.0 ** rng.uniform(-3.0, 3.0, self.n_pairs)
        pairs = [mean_point(float(r * s), float(s)) for r, s in zip(ratio, scale)]
        for kind, n in POINTWISE_MIX:
            n *= self.scale
            half = n // 2
            if kind in ("sinc_gap", "sinhc_gap"):
                far = math.pi / 2 if kind == "sinc_gap" else 20.0
                x = np.concatenate([rng.uniform(0.0, 0.5, half), rng.uniform(0.5, far, n - half)])
                p = rng.uniform(0.0, 1.0 if kind == "sinc_gap" else 2.0, n)
                calls += [(kind, (float(a), float(b))) for a, b in zip(p, x)]
            elif kind == "cos_bound":
                calls += [(kind, (float(a), float(b))) for a, b in
                          zip(rng.uniform(0.0, 1.0, n), rng.uniform(0.0, math.pi / 2, n))]
            elif kind == "cosh_bound":
                calls += [(kind, (float(a), float(b))) for a, b in
                          zip(rng.uniform(0.0, 2.0, n), rng.uniform(0.0, 20.0, n))]
            elif kind in ("log_mean_sandwich", "sb_mean", "sb_lower_bound"):
                calls += [(kind, (m,)) for m in pairs]
            elif kind == "si_enclosure":
                t = rng.uniform(0.05, math.pi / 2, n)
                p = rng.uniform(0.0, 0.7745, n)
                for a, b in zip(t, p):
                    calls += [(kind, (float(a), float(b))), (_ORACLE[kind], (float(a),))]
            elif kind == "sh_enclosure":
                for a in rng.uniform(0.05, 50.0, n):
                    calls += [(kind, (float(a),)), (_ORACLE[kind], (float(a),))]
        return calls

    def ops(self):
        import sincbounds
        ops = []
        for batch in self.inputs:
            calls = [(getattr(getattr(sincbounds, _MODULE[k]), k), a) for k, a in batch]
            ops.append(lambda calls=calls: [fn(*args) for fn, args in calls])
        return ops

    def _expectations(self, batch):
        """What one batch's outputs are checked against, by call index; made
        on the first check and kept, since every cycle repeats the inputs.

        values      gap and bound calls: finite, and on every ORACLE_STRIDE-th
                    call of a kind within tail_bound plus the verifier
                    deadband of a 50-digit mpmath value
        sandwich    log_mean_sandwich contains log_mean
        sb          sb_lower_bound <= sb_mean on the same pair
        enclosures  si/sh enclosure contains its quadrature oracle, widened
                    by the oracle's error estimate
        """
        import mpmath
        exp = {"values": [], "sandwich": [], "sb": [], "enclosures": []}
        seen: dict[str, int] = {}
        for i, (kind, args) in enumerate(batch):
            n = seen[kind] = seen.get(kind, -1) + 1
            if kind in ("sinc_gap", "sinhc_gap", "cos_bound", "cosh_bound"):
                is_gap = kind.endswith("gap")
                target = band = None
                if n % ORACLE_STRIDE == 0:
                    with mpmath.workdps(50):
                        p, x = mpmath.mpf(args[0]), mpmath.mpf(args[1])
                        hyp = kind in ("sinhc_gap", "cosh_bound")
                        f = (mpmath.sinh(x) if hyp else mpmath.sin(x)) / x if x else mpmath.mpf(1)
                        if p == 0:
                            bound = 1 + x * x / 6 if hyp else 1 - x * x / 6
                        else:
                            w = 1 / (3 * p * p)
                            bound = w * (mpmath.cosh(p * x) if hyp else mpmath.cos(p * x)) + 1 - w
                        target = float(f - bound) if is_gap else float(bound)
                    band = DEADBAND_ULPS * _EPS * max(1.0, abs(float(f)), abs(float(bound)))
                exp["values"].append((i, is_gap, target, band))
            elif kind == "log_mean_sandwich":
                exp["sandwich"].append((i, self._log_mean(args[0])))
            elif kind == "sb_lower_bound":
                # sb_mean ran on the same pairs, in the same order, just before
                exp["sb"].append((i, i - self.n_pairs))
            elif kind in _ORACLE:
                exp["enclosures"].append((i, i + 1))
        return exp

    def _failed_calls(self, exp, out) -> list[int]:
        bad = []
        for i, is_gap, target, band in exp["values"]:
            r = out[i]
            v = r.value if is_gap else r
            if not math.isfinite(v) or (
                    target is not None
                    and abs(v - target) > band + (r.tail_bound if is_gap else 0.0)):
                bad.append(i)
        bad += [i for i, lm in exp["sandwich"] if not out[i].contains(lm)]
        bad += [i for i, m in exp["sb"] if not out[i] <= out[m]]
        bad += [i for i, r in exp["enclosures"]
                if not out[i].contains(out[r].value, out[r].error_estimate)]
        return bad

    def check(self, outs) -> Tally:
        t = Tally()
        for b, (batch, out) in enumerate(zip(self.inputs, outs)):
            if b not in self._expected:
                self._expected[b] = self._expectations(batch)
            t.items += len(out)
            t.attempted += len(out)
            t.failures += [(f"batch {b} call {i}: {batch[i][0]}{batch[i][1]}", False)
                           for i in self._failed_calls(self._expected[b], out)]
        return t


class Cli:
    name = "cli"
    rusage = resource.RUSAGE_CHILDREN
    yardstick = PROCESS
    unit = "processes"

    def __init__(self, seed: int, tiny: bool = False, golden: dict | None = None):
        if golden is None:
            golden = json.loads(GOLDEN_CLI.read_text())
        rng = random.Random(seed)
        # the seed picks one argument variant of each command; the order is fixed
        self.golden = [rng.choice(golden[c]) for c in CLI_COMMANDS]
        self.root = Path.cwd()
        self.env = {**os.environ, "PYTHONPATH": str(self.root / "src")}
        self.prefix = [sys.executable, "-m", "sincbounds"]
        self.tracer = None

    def _op(self, args):
        def op():
            proc = subprocess.run(self.prefix + args, cwd=self.root, env=self.env,
                                  capture_output=True, timeout=120)
            if self.tracer is not None:
                self.tracer.merge_child(proc.stderr)
            return proc.returncode, proc.stdout
        return op

    def ops(self):
        return [self._op(g["args"]) for g in self.golden]

    def warmup(self):
        self.ops()[0]()

    def instrument(self, tracer):
        """Run each command under perfbench/tracer.py, which traces it in its
        own process and hands its counters back on stderr."""
        self.tracer = tracer
        self.prefix = [sys.executable, str(HERE / "tracer.py")]

    def check(self, outs) -> Tally:
        t = Tally()
        for g, (code, stdout) in zip(self.golden, outs):
            t.items += 1
            t.output_bytes += len(stdout)
            ok = code == g["exit"] and stdout.decode() == g["stdout"]
            if g["args"][0] == "verify":
                ok = ok and code == 0
            t.add(ok, "sincbounds " + " ".join(g["args"]) + f" (exit {code})")
        return t


WORKLOADS = {w.name: w for w in (Corpus, DenseGrid, Pointwise, Cli)}
