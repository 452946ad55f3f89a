"""Span tracer for the traced benchmark run.

`Tracer.install` wraps every public function of each sincbounds module, and
scipy's `quad`, in a recording wrapper, and puts the wrapper in place of the
original in every sincbounds module that holds the name: `means` and
`constants` import `cosh_bound` and `cos_bound` from `core`, and calls made
through those copies would otherwise go unseen.

A span is (layer, name, start, end, parent).  Spans are folded into
per-layer counters as they close instead of being kept: the corpus workload
opens about 10^5 of them per run.  A layer's self time is the duration of
its spans minus the time covered by their child spans.  A span whose parent
belongs to another layer (or that has none) is a call into the layer; only
those count as calls, so a public function calling another one of its own
module is not counted twice.

Run as a script, it executes one traced `sincbounds` command line:

    PYTHONPATH=src python3 perfbench/tracer.py verify --suite all

The command's stdout and exit code are the CLI's own; the counters go to
stderr as the last line, prefixed with TRACE_PREFIX.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("core", "constants", "integrals", "means", "verifier", "corpus", "cli")
SUITES = ("theorem1", "theorem2", "chains", "propositions", "remarks")
TRACE_PREFIX = "TRACE "

# verifier entry points that check one case and return a VerificationReport
_CASE_FUNCTIONS = ("verify", "verify_param_monotone", "verify_leibniz_ratio")


def _points(args) -> int:
    return max([a.size for a in args if isinstance(a, np.ndarray)], default=1)


def _pairs(args) -> int:
    """Pairs of means in one call: a MeanPoint or (a, b) is one pair, a pair
    of arrays is one per element."""
    for a in args:
        if hasattr(a, "a") and hasattr(a, "b"):
            return 1
        if isinstance(a, (tuple, list)) and len(a) == 2:
            return max(int(np.size(a[0])), 1)
        if isinstance(a, np.ndarray) and a.ndim == 2 and 2 in a.shape:
            return a.shape[0] if a.shape[1] == 2 else a.shape[1]
    return 0


class Tracer:
    """Records spans of wrapped functions into `counts`, a flat dict of
    floats keyed "<layer>.<counter>"."""

    def __init__(self):
        self.counts: dict[str, float] = defaultdict(float)
        # open spans, innermost last: [layer, seconds covered by children, scalar]
        self._stack: list[list] = []

    def wrap(self, layer: str, name: str, fn):
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter
        self_key, calls_key = layer + ".self_s", layer + ".calls"
        on_entry = self._on_entry(layer)
        on_exit = self._on_exit(layer, name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is None or parent[0] != layer:  # a call into the layer
                counts[calls_key] += 1
                span = [layer, 0.0, on_entry(args) if on_entry else False]
            else:
                span = [layer, 0.0, parent[2]]
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                if parent is not None:
                    parent[1] += dur
                counts[self_key] += dur - span[1]
                if span[2]:
                    counts["core.scalar_self_s"] += dur - span[1]
            if on_exit:
                on_exit(args, kwargs, result, dur)
            return result

        return traced

    def _on_entry(self, layer):
        """Counter update for a call into the layer.  Returns whether the
        call's time counts as core scalar-call time."""
        c = self.counts
        if layer == "core":
            def entry(args):
                c["core.points"] += _points(args)
                scalar = not any(isinstance(a, np.ndarray) for a in args)
                c["core.scalar_calls"] += scalar
                return scalar
            return entry
        if layer == "means":
            def entry(args):
                c["means.pairs"] += _pairs(args)
                return False
            return entry
        return None

    def _on_exit(self, layer, name, fn):
        """Counter update from a finished call, for the functions whose
        results carry counts."""
        c = self.counts
        if layer == "core" and name in ("sinc_gap", "sinhc_gap"):
            def gap(args, kwargs, result, dur):
                c["core.gap_calls"] += 1
                c["core.series_calls"] += result.method.value == "series"
            return gap
        if layer == "verifier" and name in _CASE_FUNCTIONS:
            signature = inspect.signature(fn)

            def case(args, kwargs, result, dur):
                c["verifier.cases"] += 1
                c["verifier.grid_points"] += result.grid_points
                c["verifier.definite"] += result.verdict.value in ("holds", "fails")
                if name == "verify":  # points beyond the initial grid came from refinement
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    c["verifier.refine_points"] += max(
                        result.grid_points - bound.arguments["points"], 0)
            return case
        if layer == "corpus" and name == "run_suite":
            def suite(args, kwargs, result, dur):
                s = str(args[0] if args else kwargs["name"]).lower()
                if s in SUITES:
                    c[f"corpus.{s}_s"] += dur
            return suite
        if layer == "integrals" and name == "quad":
            def quad(args, kwargs, result, dur):
                c["integrals.quad_calls"] += 1
                if isinstance(result, tuple) and len(result) > 2 and isinstance(result[2], dict):
                    c["integrals.quad_evals"] += result[2].get("neval", 0)
            return quad
        return None

    def merge_child(self, stderr: bytes) -> None:
        """Add the counters a traced CLI child printed on its stderr."""
        lines = stderr.decode().splitlines()
        if not lines or not lines[-1].startswith(TRACE_PREFIX):
            raise RuntimeError("traced child printed no counters:\n" + stderr.decode())
        for key, value in json.loads(lines[-1][len(TRACE_PREFIX):]).items():
            self.counts[key] += value

    def install(self) -> None:
        """Replace every public function of the sincbounds modules, and
        scipy.integrate.quad, by a traced wrapper wherever it is bound."""
        import scipy.integrate
        import sincbounds

        modules = [importlib.import_module(f"sincbounds.{layer}") for layer in LAYERS]
        wrapped = {}
        for layer, mod in zip(LAYERS, modules):
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrapped[id(obj)] = (obj, self.wrap(layer, name, obj))
        quad = scipy.integrate.quad
        wrapped[id(quad)] = (quad, self.wrap("integrals", "quad", quad))
        for holder in (sincbounds, scipy.integrate, *modules):
            for name, obj in list(vars(holder).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(holder, name, hit[1])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(counts: dict, cycles: int) -> dict[str, float]:
    """Per-layer metrics for one workload cycle from summed tracer counts."""
    c = defaultdict(float, counts)

    def per(key):
        return c[key] / cycles

    out = {
        "core.calls": per("core.calls"),
        "core.points": per("core.points"),
        "core.self_s": per("core.self_s"),
        "core.ns_per_point": 1e9 * _ratio(c["core.self_s"], c["core.points"]),
        "core.scalar_call_us": 1e6 * _ratio(c["core.scalar_self_s"], c["core.scalar_calls"]),
        "core.series_share": _ratio(c["core.series_calls"], c["core.gap_calls"]),
        "constants.calls": per("constants.calls"),
        "constants.self_s": per("constants.self_s"),
        "integrals.quad_calls": per("integrals.quad_calls"),
        "integrals.quad_evals": per("integrals.quad_evals"),
        "integrals.self_s": per("integrals.self_s"),
        "means.calls": per("means.calls"),
        "means.pairs": per("means.pairs"),
        "means.self_s": per("means.self_s"),
        "means.us_per_pair": 1e6 * _ratio(c["means.self_s"], c["means.pairs"]),
        "verifier.cases": per("verifier.cases"),
        "verifier.grid_points": per("verifier.grid_points"),
        "verifier.refine_share": _ratio(c["verifier.refine_points"], c["verifier.grid_points"]),
        "verifier.definite_share": _ratio(c["verifier.definite"], c["verifier.cases"]),
        "verifier.self_s": per("verifier.self_s"),
        "verifier.ns_per_point": 1e9 * _ratio(c["verifier.self_s"], c["verifier.grid_points"]),
    }
    out.update({f"corpus.{s}_s": per(f"corpus.{s}_s") for s in SUITES})
    out["corpus.self_s"] = per("corpus.self_s")
    out["cli.self_s"] = per("cli.self_s")
    return out


def _main(argv: list[str]) -> int:
    from sincbounds import cli

    tracer = Tracer()
    tracer.install()
    code = cli.main(argv)
    sys.stdout.flush()
    print(TRACE_PREFIX + json.dumps(tracer.counts), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
