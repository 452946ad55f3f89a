"""Benchmark of sincbounds: one workload, one run.

Run from the repository root:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 15 --trace 0

Workloads (see workloads.py): corpus, dense_grid, pointwise, cli.  With
--trace 0 it prints the end-to-end metrics named in BENCHMARK.json; with
--trace 1 the per-layer metrics, from a traced run, and the tracing overhead.
The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}; the lines before it give the
environment and each metric by name and unit.

The measuring happens in fresh worker processes (worker.py), so that set-up
time includes the interpreter and the import.  No sincbounds module is
imported here.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import yardstick
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5   # set-ups per run; setup_s is their median
IMPORT_SAMPLES = 3  # `-X importtime` runs per traced run
DEADLINE_S = 170.0  # a run gives up, without a result, after this long


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError(f"run exceeded {DEADLINE_S:.0f} s")
    return left


def run_worker(argv: list[str], root: Path, env: dict, deadline: float):
    """Start worker.py; return the wall-clock and the CPU seconds of its
    set-up, and its JSON result."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv], cwd=root,
                            env=env, stdout=subprocess.PIPE, bufsize=0)
    try:
        line = b""
        if select.select([proc.stdout], [], [], _remaining(deadline))[0]:
            line = proc.stdout.readline()
        setup = time.perf_counter() - start
        word, _, cpu = line.decode().partition(" ")
        if word != "ready":
            raise RuntimeError(f"worker {' '.join(argv)} failed during set-up")
        out, _ = proc.communicate(timeout=_remaining(deadline))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(argv)} exited with code {proc.returncode}")
    lines = out.decode().splitlines()
    return setup, float(cpu), (json.loads(lines[-1]) if lines else None)


def scaled_setup(worker_args, root: Path, env: dict, deadline: float) -> tuple[float, float]:
    """One set-up of a fresh worker: its CPU time, scaled to the reference
    speed of the process yardstick by a reading before and one after it; and
    its wall-clock time."""
    before = yardstick.PROCESS.reading()
    wall, cpu, _ = run_worker(worker_args + ["--setup-only"], root, env, deadline)
    return yardstick.PROCESS.scale(cpu, before, yardstick.PROCESS.reading()), wall


def import_breakdown(root: Path, env: dict, deadline: float) -> dict[str, float]:
    """Median cumulative import time, in seconds, of each sincbounds module
    as `python -X importtime -c "import sincbounds.cli"` reports it.
    sincbounds.cli is the outermost entry, so its figure is the whole
    import a CLI process pays."""
    samples: dict[str, list[float]] = {}
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import sincbounds.cli"],
                              cwd=root, env=env, capture_output=True, text=True, check=True,
                              timeout=_remaining(deadline))
        for line in proc.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            name = fields[-1].strip()
            if len(fields) == 3 and name.startswith("sincbounds") and fields[1].strip().isdigit():
                samples.setdefault(name, []).append(int(fields[1]) / 1e6)
    return {name: statistics.median(v) for name, v in samples.items()}


def environment(root: Path, args) -> dict:
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), "")
    except OSError:
        cpu = platform.processor()
    versions = {}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    try:  # the ceiling keeps git from taking up a repository above the checkout
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)})
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "sincbounds").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            **versions, "git_commit": commit, "src_sha256": digest.hexdigest(),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description="Run one sincbounds benchmark workload.")
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small grids and one set-up sample; for the smoke test")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "sincbounds" / "__init__.py").is_file():
        print("perfbench: no sincbounds source tree at ./src/sincbounds; "
              "run from the repository root", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + DEADLINE_S
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    # the build: byte-compile once, so that no run pays for it in set-up
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=root, env=env,
                   check=True, stdout=subprocess.DEVNULL, timeout=_remaining(deadline))

    print("env " + json.dumps(environment(root, args)))
    yardstick.PROCESS.reading()  # the first reading runs cold
    worker_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        worker_args.append("--tiny")
    notes = []
    if args.trace:
        imports = import_breakdown(root, env, deadline)
        *_, result = run_worker(worker_args, root, env, deadline)
        metrics = {**result["metrics"],
                   "integrals.import_s": imports["sincbounds.integrals"],
                   "cli.import_s": imports["sincbounds.cli"]}
        notes.append("import s (cumulative, median of %d): %s" % (IMPORT_SAMPLES, ", ".join(
            f"{k}={v:.4f}" for k, v in sorted(imports.items()))))
        notes.append("per cycle, over %d traced cycles; untraced "
                     "phase: %d cycles" % (result["cycles"],
                                           result["untraced"]["cycles"]))
        runs = [result, result["untraced"]]
        declared = spec["per_layer"]
    else:
        # set-ups before and after the measuring worker, so that one slow
        # spell of a shared machine does not decide the median
        samples = 1 if args.tiny else SETUP_SAMPLES
        setups = [scaled_setup(worker_args, root, env, deadline) for _ in range(samples // 2)]
        *_, result = run_worker(worker_args, root, env, deadline)
        setups += [scaled_setup(worker_args, root, env, deadline)
                   for _ in range(samples - samples // 2)]
        metrics = {"setup_s": statistics.median(s for s, _ in setups), **result["metrics"]}
        notes.append("setup_s samples, scaled (wall): " + ", ".join(
            f"{s:.4f} ({w:.4f})" for s, w in setups))
        notes.append("%d ops in %d cycles, %.4g %s in %.3f s busy: %.6g %s/s on average" % (
            result["samples"], result["cycles"], result["items"], WORKLOADS[args.workload].unit,
            result["busy_s"], result["mean_throughput"], WORKLOADS[args.workload].unit))
        notes.append("op latency, n=%d: p50 %.6g s, p%.1f %.6g s (tail) scaled; p50 %.6g s, "
                     "tail %.6g s on the wall clock (not gated); %d yardstick readings" % (
                         result["samples"], metrics["op_p50_s"], result["tail_percentile"],
                         result["op_tail_s"], result["op_p50_wall_s"], result["op_tail_wall_s"],
                         result["readings"]))
        runs = [result]
        declared = spec["end_to_end"]

    names = [m["name"] for m in declared]
    if set(metrics) != set(names):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(names)}")
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    unexpected = sorted({k for r in runs for k in r["unexpected_failures"]})
    known = sorted({k for r in runs for k in r["known_failures"]})

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s, trace {args.trace}")
    for m in declared:
        print(f"  {m['name']:<24} {metrics[m['name']]:>14.6g} {m['unit']}")
    print(f"  {'error_rate':<24} {failed / attempted:>14.6g} ({failed} failed of {attempted})")
    for note in notes:
        print("  " + note)
    for key in known:
        print("  known defect (ROADMAP item 2), counted as failed: " + key)
    for key in unexpected:
        print("  WRONG OUTPUT: " + key)
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, TimeoutError, subprocess.SubprocessError, OSError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)
