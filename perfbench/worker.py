"""One benchmark process: set up a workload, run it in a closed loop, check
its outputs and print the raw result as JSON on the last stdout line.

Started by run.py from the repository root, with PYTHONPATH=src:

    python3 perfbench/worker.py --workload corpus --seed 1 --seconds 15 --trace 0

It prints "ready" and the CPU time it and its children have used, once
set-up is done (import, inputs, one untimed warm-up operation); with
--setup-only it stops there.  With --trace 1 it runs the
loop untraced for half the time, then traced for the other half.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import tracer as tracing
import workloads

READING_EVERY_S = 0.1  # operation time between two yardstick readings


def measure(wl, seconds: float) -> dict:
    """Run whole cycles until `seconds` have passed.  A yardstick reading is
    taken before the first operation, after the last one, and between two
    operations once those since the last reading have run READING_EVERY_S
    on the yardstick's clock.
    Each operation is timed on the wall clock and on the clock of the
    workload's yardstick; the latter is scaled to the yardstick's reference
    speed by the readings just before and just after it."""
    ops, stick = wl.ops(), wl.yardstick
    clock = time.perf_counter
    latencies: list[float] = []
    timed: list[float] = []  # on the yardstick's clock
    marks: list[int] = []  # the reading taken last before each operation
    readings = [stick.reading()]
    busy = since = 0.0
    cycles = items = attempted = output_bytes = 0
    failures: dict[tuple[str, bool], int] = {}
    end = clock() + seconds
    while cycles == 0 or clock() < end:
        outs = []
        for op in ops:
            if since >= READING_EVERY_S:
                readings.append(stick.reading())
                since = 0.0
            start, start_stick = clock(), stick.clock()
            out = op()
            dt = clock() - start
            timed.append(stick.clock() - start_stick)
            latencies.append(dt)
            marks.append(len(readings) - 1)
            outs.append(out)
            busy += dt
            since += timed[-1]
        cycles += 1
        tally = wl.check(outs)
        items += tally.items
        attempted += tally.attempted
        output_bytes += tally.output_bytes
        for failure in tally.failures:
            failures[failure] = failures.get(failure, 0) + 1
    readings.append(stick.reading())
    scaled = [stick.scale(dt, readings[m], readings[m + 1]) for dt, m in zip(timed, marks)]
    return {"busy_s": busy, "cycles": cycles, "latencies": latencies, "scaled": scaled,
            "readings": len(readings), "items": items, "attempted": attempted,
            "failures": failures, "output_bytes": output_bytes}


def cycle_s(run: dict) -> float:
    """Time of one cycle at the yardstick's reference speed: the sum over the
    cycle's operations of each one's median scaled time."""
    scaled, per_cycle = run["scaled"], len(run["scaled"]) // run["cycles"]
    return sum(statistics.median(scaled[i::per_cycle]) for i in range(per_cycle))


def end_to_end(run: dict, rusage_who) -> dict:
    """The gated end-to-end metrics.  Timings are scaled to the yardstick's
    reference speed (see yardstick.py); the wall-clock figures are in
    latency_summary.  `throughput` is the work of one cycle over cycle_s."""
    failed = sum(run["failures"].values())
    return {
        "throughput": run["items"] / run["cycles"] / cycle_s(run),
        "op_p50_s": statistics.median(run["scaled"]),
        "ok_share": 1.0 - failed / run["attempted"],
        "peak_rss_mb": resource.getrusage(rusage_who).ru_maxrss / 1024.0,
    }


def latency_summary(run: dict) -> dict:
    """Figures that are printed but not gated: the wall-clock mean
    throughput, and the median and tail latency of the operations, on the
    wall clock and scaled.  The tail is the highest percentile with at least
    ten samples above it."""
    wall, scaled = sorted(run["latencies"]), sorted(run["scaled"])
    tail = max(len(wall) - 11, 0)
    return {"mean_throughput": run["items"] / run["busy_s"],
            "op_p50_wall_s": statistics.median(wall), "op_tail_wall_s": wall[tail],
            "op_tail_s": scaled[tail], "tail_percentile": 100.0 * tail / max(len(wall) - 1, 1),
            "samples": len(wall)}


def _summary(run: dict) -> dict:
    failures = run.pop("failures")
    run["failed"] = sum(failures.values())
    run["unexpected_failures"] = sorted({k for (k, known) in failures if not known})
    run["known_failures"] = sorted({k for (k, known) in failures if known})
    run.update(latency_summary(run))
    del run["latencies"], run["scaled"]
    return run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import sincbounds
    src = Path.cwd().resolve() / "src"
    if src not in Path(sincbounds.__file__).resolve().parents:
        raise SystemExit(f"sincbounds was imported from {sincbounds.__file__}, not from {src}")
    wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny)
    wl.warmup()
    cpu = [resource.getrusage(who) for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    print("ready", sum(u.ru_utime + u.ru_stime for u in cpu), flush=True)
    if args.setup_only:
        return 0
    wl.yardstick.reading()  # the first reading runs cold

    if not args.trace:
        run = measure(wl, args.seconds)
        result = {"metrics": end_to_end(run, wl.rusage), **_summary(run)}
    else:
        plain = measure(wl, args.seconds / 2)
        tracer = tracing.Tracer()
        wl.instrument(tracer)
        traced = measure(wl, args.seconds / 2)
        metrics = tracing.layer_metrics(tracer.counts, traced["cycles"])
        metrics["cli.output_bytes"] = traced["output_bytes"] / traced["cycles"]
        metrics["trace.overhead_share"] = cycle_s(traced) / cycle_s(plain) - 1.0
        result = {"metrics": metrics,
                  "untraced": _summary(plain), **_summary(traced)}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
