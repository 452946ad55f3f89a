"""Command-line front end.

Commands:
    constants   sharp thresholds, best quartic constants, named enclosures
    eval        evaluate one library function at a point
    verify      run a registered check suite; exit 0 iff everything is ok
    table       CSV table for one of the fixed inequality chains
    special     enclosure + oracle + containment verdict for one quantity

Exit codes: 0 all verified, 1 violation/inconclusive, 2 usage error
(including an option the chosen --fn, --name or --chain does not read),
141 when the reader closes stdout early (128 + SIGPIPE, no traceback).
Output for fixed flags and seed is byte-identical (no timestamps; CSV uses
17 significant digits, JSON uses repr round-tripping).  Only verify,
table --chain meanchain and special --name sb|log-mean import numpy; the
other commands, table --chain m1c|m2c among them, run on math alone.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import __version__, constants, core, integrals
from .core import _HALF_PI

# the --suite choices, kept literal so that parsing imports no corpus (and
# no numpy); equal to ("all",) + corpus.SUITES, which a test checks
_SUITES = ("all", "theorem1", "theorem2", "chains", "propositions", "remarks")
_CHAINS = (*core.CHAINS, "meanchain")
_POINTS, _SEED = 4096, 20250810  # the --points and --seed defaults


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _emit_rows(rows: list[dict], args: argparse.Namespace, text_line) -> None:
    if args.format == "json":
        print(json.dumps(rows))
    elif args.format == "csv":
        keys = list(rows[0].keys()) if rows else []
        print(",".join(keys))
        for r in rows:
            print(",".join(_fmt(r[k]) if isinstance(r[k], float) else str(r[k]) for k in keys))
    else:
        for r in rows:
            print(text_line(r))


def cmd_constants(args: argparse.Namespace) -> int:
    edge = constants.solve_sinc_lower_edge(args.tol)
    upper = constants.sinc_upper_edge()
    q_upper = constants.quartic_constants(upper.value)
    q_lower = constants.quartic_constants(edge.value)
    catalan = integrals.catalan_enclosure()
    trigamma = integrals.trigamma_half_enclosure()
    rows = [
        {"name": "sinc_lower_edge", "value": edge.value, "note": f"certified radius {edge.certified_radius:.1e}"},
        {"name": "sinc_upper_edge", "value": upper.value, "note": "sqrt(15)/5; also the sinhc lower edge"},
        {"name": "quartic_c_lo_at_upper_edge", "value": q_upper.c_lo, "note": "best lower x^4 constant at sqrt(15)/5"},
        {"name": "quartic_c_hi_at_lower_edge", "value": q_lower.c_hi, "note": "best upper x^4 constant at the lower edge"},
        {"name": "leibniz_ratio_bound", "value": constants.LEIBNIZ_RATIO_BOUND, "note": "11*pi^2/360"},
        {"name": "sb_bound_at_b_eq_2a", "value": (11.0 + 8.0 * math.sqrt(2.0)) / 27.0, "note": "(11+8*sqrt2)/27"},
        {"name": "catalan_lo", "value": catalan.lo, "note": "encloses Catalan's constant"},
        {"name": "catalan_hi", "value": catalan.hi, "note": ""},
        {"name": "trigamma_half_lo", "value": trigamma.lo, "note": "encloses trigamma(1/2) = pi^2/2"},
        {"name": "trigamma_half_hi", "value": trigamma.hi, "note": ""},
    ]
    _emit_rows(rows, args, lambda r: f"{r['name']:<30} = {_fmt(r['value'])}"
               + (f"   ({r['note']})" if r["note"] else ""))
    return 0


# the --fn choices: the names of core's one name map that need no numpy
_EVAL_FNS = tuple(sorted(n.replace("_", "-") for n, f in core.FUNCTIONS.items() if "." not in f))


def cmd_eval(args: argparse.Namespace) -> int:
    fn, x, p = args.fn, args.x, args.p
    if not math.isfinite(x):
        raise ValueError(f"--x must be finite, got {x!r}")
    needs_p = fn not in ("sinc", "sinhc")
    if needs_p == (p is None):
        raise ValueError(f"--p is required for {fn}" if needs_p else f"{fn} reads no --p")
    try:
        result = core.member(fn.replace("-", "_"), p)[1](x)
    except (ValueError, OverflowError, FloatingPointError) as exc:
        raise ValueError(f"evaluation error: {exc}") from None
    if isinstance(result, core.GapEvaluation):
        rows = [{"fn": fn, "x": x, "value": result.value,
                 "method": result.method.value, "tail_bound": result.tail_bound}]
        _emit_rows(rows, args, lambda r: f"{fn}({_fmt(x)}) = {_fmt(r['value'])} "
                   f"[{r['method']}, tail<={r['tail_bound']:.2e}]")
    else:
        rows = [{"fn": fn, "x": x, "value": float(result)}]
        _emit_rows(rows, args, lambda r: f"{fn}({_fmt(x)}) = {_fmt(r['value'])}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from . import corpus
    results = corpus.run_suite(args.suite, points=args.points, seed=args.seed)
    rows = [
        {"suite": r.suite, "id": r.id, "kind": r.kind, "ok": r.ok,
         "expected": r.expected, "observed": r.observed, "detail": r.detail}
        for r in results
    ]
    _emit_rows(rows, args, lambda r: f"[{'ok' if r['ok'] else 'FAIL':>4}] {r['suite']:<12} "
               f"{r['id']}  ({r['observed']}; {r['detail']})")
    n_bad = sum(not r.ok for r in results)
    if args.format == "text":
        print(f"{len(results) - n_bad}/{len(results)} checks ok")
    return 0 if n_bad == 0 else 1


def chain_table(chain: str, xs) -> tuple[list[str], list[list[float]]]:
    """Header and rows (x, or a and b, then member values and adjacent
    margins) for a chain; the mean chain takes (a, b) pairs of numbers."""
    chain = chain.lower()
    if chain in core.CHAINS:
        members, head = core.CHAINS[chain][0](), ["x"]
        points = [([float(x)], float(x)) for x in xs]
    elif chain == "meanchain":
        from . import means
        members, head = core.mean_chain_members(), ["a", "b"]
        pts = [means.MeanPoint(float(a), float(b)) for a, b in xs]  # validated once, not per member
        points = [([m.a, m.b], m) for m in pts]
    else:
        raise ValueError(f"unknown chain {chain!r}")
    names = [name for name, _ in members]
    header = head + names + [f"margin_{i}" for i in range(1, len(names))]
    rows = []
    for lead, arg in points:
        vals = [float(fn(arg)) for _, fn in members]
        rows.append(lead + vals + [b - a for a, b in zip(vals, vals[1:])])
    return header, rows


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    """np.linspace(lo, hi, n) bit for bit, by its own operations, without numpy."""
    step = (hi - lo) / (n - 1)
    return [i * step + lo for i in range(n - 1)] + [hi]


def cmd_table(args: argparse.Namespace) -> int:
    fixed, pair = args.chain in core.CHAINS, args.pair is not None
    reads = ("points",) if fixed else ("pair",) if pair else ("points", "seed")
    unread = [f"--{o}" for o in ("points", "seed", "pair")
              if getattr(args, o) is not None and o not in reads]
    if unread:
        raise ValueError(f"{args.chain} reads no {' '.join(unread)}" + ("" if fixed else " with --pair"))
    points = _POINTS if args.points is None else args.points
    if fixed:
        header, rows = chain_table(args.chain, _linspace(*core.CHAINS[args.chain][1], points))
    else:
        from . import means
        seed = _SEED if args.seed is None else args.seed
        pairs = [args.pair] if pair else zip(*means.random_pairs(
            points, seed, ratio_span=(1e-3, 1e3), scale_span=(0.5, 2.0)))
        header, rows = chain_table(args.chain, pairs)
    print(",".join(header))
    for row in rows:
        print(",".join(_fmt(v) for v in row))
    return 0


# the options each special quantity reads, with their defaults (None:
# required); any other given exits 2
_SPECIAL_OPTIONS = {"si": {"t": _HALF_PI, "p": 2.0 / 3.0}, "sh": {"t": 1.0}, "trigamma-half": {},
                    "catalan": {"terms": 1_000_000}, "sb": {"a": None, "b": None},
                    "log-mean": {"a": None, "b": None}}


def cmd_special(args: argparse.Namespace) -> int:
    name = args.name
    unread = [f"--{o}" for o in ("t", "p", "a", "b", "terms")
              if getattr(args, o) is not None and o not in _SPECIAL_OPTIONS[name]]
    if unread:
        raise ValueError(f"{name} reads no {' '.join(unread)}")
    opts = {o: default if getattr(args, o) is None else getattr(args, o)
            for o, default in _SPECIAL_OPTIONS[name].items()}
    if None in opts.values():
        raise ValueError(f"--a and --b are required for {name}")
    err = 0.0  # the oracle's proven error, where one is stated
    if name == "si":
        enc = integrals.si_enclosure(opts["t"], opts["p"])
        oracle = integrals.si_reference(opts["t"]).value
    elif name == "sh":
        enc = integrals.sh_enclosure(opts["t"])
        oracle = integrals.sh_reference(opts["t"]).value
    elif name == "trigamma-half":
        enc = integrals.trigamma_half_enclosure()
        oracle = math.pi ** 2 / 2.0
    elif name == "catalan":
        enc = integrals.catalan_enclosure()
        oracle = integrals.catalan_reference(opts["terms"])
        err = integrals._catalan_error(opts["terms"], oracle)
    else:
        from . import means, verifier
        a, b = pair = opts["a"], opts["b"]
        if name == "sb":
            bound, mean = means.sb_lower_bound(pair), means.sb_mean(pair)
            ok = bool(verifier._at_most(bound, mean))
            rows = [{"name": "sb", "a": a, "b": b, "lower_bound": bound,
                     "sb_mean": mean, "ok": ok}]
            _emit_rows(rows, args, lambda r: f"sb({_fmt(a)}, {_fmt(b)}): bound {_fmt(bound)} "
                       f"<= mean {_fmt(mean)} : {'ok' if ok else 'VIOLATION'}")
            return 0 if ok else 1
        enc, oracle = means.log_mean_sandwich(pair), means.log_mean(pair)
    # contained when oracle +- err lies inside the enclosure, not when the
    # two are disjoint, and neither (None) otherwise
    ok = True if enc.contains(oracle, -err) else None if enc.contains(oracle, err) else False
    word = {True: "contained", None: "INCONCLUSIVE", False: "NOT CONTAINED"}[ok]
    rows = [{"name": name, "lo": enc.lo, "hi": enc.hi, "oracle": oracle, "contained": ok}]
    _emit_rows(rows, args, lambda r: f"{name}: enclosure [{_fmt(enc.lo)}, {_fmt(enc.hi)}] "
               f"oracle {_fmt(oracle)} : {word}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sincbounds",
        description="Sharp cosine-family bounds for sinc/sinhc: constants, "
                    "verification suites, chain tables and enclosures.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    shared = {  # each subcommand takes those it reads
        "--format": dict(choices=("text", "json", "csv"), default="text",
                         help="output format (default text)"),
        "--points": dict(type=int, default=_POINTS,
                         help=f"grid size / row count (default {_POINTS}, min 64)"),
        "--seed": dict(type=int, default=_SEED, help="seed for randomised pair checks"),
        "--tol": dict(type=float, default=1e-12, help="root-solver tolerance in [1e-15, 1e-3]"),
    }

    def command(name, run, help, options):
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(run=run)
        for option in options:
            sp.add_argument(option, **shared[option])
        return sp

    command("constants", cmd_constants, "print the sharp constants", ("--format", "--tol"))

    sp = command("eval", cmd_eval, "evaluate one function at a point", ("--format",))
    sp.add_argument("--fn", choices=_EVAL_FNS, required=True)
    sp.add_argument("--x", type=float, required=True)
    sp.add_argument("--p", type=float, default=None)

    sp = command("verify", cmd_verify, "run a registered check suite",
                 ("--format", "--points", "--seed"))
    sp.add_argument("--suite", choices=_SUITES, default="all")

    sp = command("table", cmd_table, "emit a CSV chain table", ("--points", "--seed"))
    sp.set_defaults(points=None, seed=None)  # None when not given: a chain reads only some
    sp.add_argument("--chain", choices=_CHAINS, required=True)
    sp.add_argument("--pair", type=float, nargs=2, metavar=("A", "B"), default=None,
                    help="explicit pair for the mean chain")

    sp = command("special", cmd_special, "enclosure vs oracle for one quantity",
                 ("--format",))
    sp.add_argument("--name", choices=tuple(_SPECIAL_OPTIONS), required=True)
    sp.add_argument("--t", type=float, default=None)
    sp.add_argument("--p", type=float, default=None)
    sp.add_argument("--a", type=float, default=None)
    sp.add_argument("--b", type=float, default=None)
    sp.add_argument("--terms", type=int, default=None)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if vars(args).get("points") is not None and args.points < 64:
            raise ValueError("--points must be >= 64")
        if vars(args).get("seed") is not None and args.seed < 0:
            raise ValueError("--seed must be >= 0")
        if "tol" in args and not 1e-15 <= args.tol <= 1e-3:
            raise ValueError("--tol must lie in [1e-15, 1e-3]")
        code = args.run(args)
        sys.stdout.flush()
        return code
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout's reader is gone: keep the exit flush silent, exit as SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
