"""Grid-based inequality verification with local refinement.

Semantics: _definite gives every point one floor, 64 ulps of
max(1, |lhs|, |rhs|).  A sampled margin below -floor is a trustworthy
violation; margins inside the +-floor deadband are indeterminate at double
precision and are tolerated, because every true inequality in this corpus
has margin -> 0 at a domain endpoint.  A HOLDS verdict therefore means "no
violation found and positive evidence exists somewhere"; it is evidence,
not proof.  FAILS always carries a concrete witness.  _report builds every
grid report, of verify and of verify_param_monotone, from its points.  A
bound tight where rounding alone may put it an ulp past its target (the
Schwab-Borchardt lower bound at a = b) is checked by _at_most: lhs <= rhs
up to 64 ulps of the larger magnitude, both finite.  edge_case builds each
sharp edge's inequality, for verify_sharpness and the theorem suites.
verify_leibniz_ratio reads its ratios and its range of p^2 off
core.CoefficientSeq.

A report does not depend on the order in which points were evaluated.
min_margin and argmin_x come from the first minimum in x order, where a NaN
margin counts as the minimum, as np.argmin has it; violations are the first
50 in x order.  Points with equal x keep the order of their rounds (the base
grid, then each refinement round) and, within a round, the order in which
they were evaluated.  verify reduces each block of the base grid on its
own and keeps the few points that can decide the report, keeps each
refinement round whole, and sorts the kept points once.  The one
exception is a failed evaluation, which makes the report INCONCLUSIVE: its
diagnostic names the first exception in evaluation order (round by round,
block by block, and lhs before rhs within a block).

Each round is evaluated and reduced in blocks of _BLOCK = 8192 consecutive
points: lhs and rhs are called once per block, on a slice of the round, so
they must be elementwise.  Each base-grid block is built on its own, as
its slice of np.linspace from the case's float endpoints, so every grid
and window is float64 and no array is round-sized.  Every x a side sees
is read-only: a side writing into it would move its block's other cases.
A block's arrays take 64 KiB, below glibc's 128 KiB mmap threshold, so
their memory is reused from the heap; the temporaries of a whole
65536-point round were mapped and page-faulted in afresh on every round
(about 81,000 minor faults per dense_grid benchmark cycle, a third of its
time in the kernel, against under 1,000 in blocks).

Most blocks are settled by a few whole-block reductions.  Every floor is at
least 64 ulps of 1, so a block whose smallest margin is not below minus
that has no violation; and a margin above the block's largest floor, 64
ulps of max(1, max|lhs|, max|rhs|) capped at the largest double, is a hold,
after which no block needs that test.  A NaN margin fails both
comparisons.  Only a block these bounds do not settle takes the per-point
floors.  The refinement centres of the next round are the 5 smallest
margins so far; once 5 are held, a block whose smallest margin is not below
the 5th offers none, as a margin equal to it comes later in evaluation
order and so cannot displace it; any other block offers its own 5 smallest.

verify checks one case, _verify_cases a list (a suite's, a chain's) in one
pass: each domain's base grid is read once, and each case then refines on
its own.  _side is the one evaluator: it evaluates a side, by identity,
once per block for all the cases that read it.  Two functools.lru_caches
keep base-grid blocks across calls, keyed by lo, hi, points, numpy's error
state, start and stop: _grid the last 64 blocks of x (a dense-size cycle
reads 4 domains of 8), and _kept the last 32 of core.sinc and core.sinhc,
the targets of every sharp edge and chain, keyed also by the function as
the module's attribute at the call (a wrapper put there is kept as
itself).  Neither keeps a call that raised; cache_info() counts hits and
misses.  A shared or kept block holds the values a fresh evaluation gives,
so no report depends on what is kept or on which cases share a call.
"""

from __future__ import annotations

import enum
import functools
import math
import sys
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import constants as _constants
from . import core as _core
from . import means as _means
from .constants import LEIBNIZ_RATIO_BOUND
from .core import HYP_DOMAIN, TRIG_DOMAIN  # the one definition of each, re-exported

_EPS = math.ulp(1.0)
FLOOR_ULPS = 64.0
_MAX_DOUBLE = sys.float_info.max
_BLOCK = 8192  # points per lhs/rhs call; see the module docstring
_DEADBAND = FLOOR_ULPS * _EPS  # the smallest floor
_SMALL = 256  # _smallest5 sorts arrays up to this size outright
_MAX_STORED_VIOLATIONS = 50


class Verdict(enum.Enum):
    HOLDS = "holds"
    FAILS = "fails"
    INCONCLUSIVE = "inconclusive"


class InequalityCase(NamedTuple("InequalityCase", [
        ("id", str), ("lhs", Callable), ("rhs", Callable), ("domain", tuple[float, float])])):
    """Claim lhs(x) < rhs(x) on the open interval domain, held as two floats.

    lhs and rhs take a float64 array of points and return the values at
    those points, an array of its shape or a scalar.  verify calls them on
    consecutive slices of each round, so a value may depend on its own
    point only.  The points are read-only: a side that writes into them
    raises ValueError, which makes its report INCONCLUSIVE.
    """

    __slots__ = ()
    _make = _core._checked_make

    def __new__(cls, id: str, lhs: Callable, rhs: Callable, domain: tuple[float, float]):
        domain = lo, hi = tuple(map(float, domain))  # so every grid and window is float64
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"domain endpoints must be finite, got {domain!r}")
        if not lo < hi:
            raise ValueError(f"domain must satisfy xmin < xmax, got {domain!r}")
        return super().__new__(cls, id, lhs, rhs, domain)


def family_case(lhs, rhs, domain) -> InequalityCase:
    """lhs < rhs on domain, for two (id, function) members, each as
    core.member builds it from the one name map; the id is "lhs < rhs"."""
    (a, f), (b, g) = lhs, rhs
    return InequalityCase(f"{a} < {b}", f, g, domain)


class Violation(NamedTuple):
    x: float
    lhs: float
    rhs: float


class VerificationReport(NamedTuple):
    case_id: str
    grid_points: int
    min_margin: float
    argmin_x: float
    violations: list[Violation]
    verdict: Verdict
    n_violations: int = 0
    diagnostic: str = ""


def _verdict(bad, good) -> Verdict:
    """FAILS on a definite violation, else HOLDS on a definite hold."""
    return Verdict.FAILS if bad else Verdict.HOLDS if good else Verdict.INCONCLUSIVE


def _refine_windows(centres: np.ndarray, spacing: float, lo: float, hi: float) -> np.ndarray:
    """13-point windows of half-width spacing around the centres, inside (lo, hi).

    Row k is np.linspace(centres[k] - spacing, centres[k] + spacing, 13),
    built with linspace's own operations, broadcast over the rows.
    """
    start = centres - spacing
    stop = centres + spacing
    delta = (stop - start)[:, None]
    step = delta / 12.0
    ramp = np.arange(13.0)
    fresh = ramp * step
    zero = step[:, 0] == 0.0
    if zero.any():  # linspace's path for a step that underflows to zero
        fresh[zero] = ramp / 12.0 * delta[zero]
    fresh += start[:, None]
    fresh[:, -1] = stop
    fresh = fresh.ravel()
    fresh = fresh[(fresh > lo) & (fresh < hi)]
    fresh.flags.writeable = False  # a side reads x, never writes it
    return fresh


def _definite(margin: np.ndarray, lv: np.ndarray, rv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the definite violations (margin < -floor) and holds
    (margin > floor), floor = 64 ulps of max(1, |lhs|, |rhs|)."""
    floor = np.abs(lv)
    scratch = np.abs(rv)
    np.maximum(floor, scratch, out=floor)
    # capped at the largest double, the floor keeps infinite margins definite
    # (inf < inf is false); a finite margin never meets an infinite floor
    np.maximum(floor, 1.0, out=floor)
    np.minimum(floor, _MAX_DOUBLE, out=floor)
    floor *= _DEADBAND
    np.negative(floor, out=scratch)
    return margin < scratch, margin > floor


def _at_most(lhs, rhs):
    """lhs <= rhs up to 64 ulps of the larger magnitude, both finite; for
    numbers or elementwise for arrays.  The rule of a bound that is tight
    where rounding alone may put it a few ulps past its target."""
    # an inf or NaN fails the finite test, and a difference that overflows
    # to +-inf still compares right
    with np.errstate(invalid="ignore", over="ignore"):
        close = lhs - rhs <= _DEADBAND * np.maximum(abs(lhs), abs(rhs))
    return close & np.isfinite(lhs) & np.isfinite(rhs)


def _largest_floor(lv: np.ndarray, rv: np.ndarray) -> float:
    """The largest floor _definite gives a point of a block without NaN."""
    return _DEADBAND * min(max(1.0, np.abs(lv).max(), np.abs(rv).max()), _MAX_DOUBLE)


def _smallest5(margin: np.ndarray) -> np.ndarray:
    """np.argsort(margin, kind="stable")[:5], without sorting all of margin."""
    if margin.size > _SMALL:
        kth = np.partition(margin, 4)[4]
        if not math.isnan(kth):  # NaN sorts last: then fewer than 5 are numbers
            idx = np.flatnonzero(margin <= kth)
            return idx[np.argsort(margin[idx], kind="stable")[:5]]
    return np.argsort(margin, kind="stable")[:5]


def _take5(cx: np.ndarray, cm: np.ndarray, x: np.ndarray, margin: np.ndarray,
           lowest: float) -> tuple[np.ndarray, np.ndarray]:
    """The 5 smallest of the candidates (cx, cm), sorted with ties in
    evaluation order, followed by the block (x, margin) whose smallest
    margin is lowest: with 5 held, nothing if that is not below the 5th (a
    tie comes later in evaluation order), else the block's 5 smallest."""
    if cm.size == 5 and lowest >= cm[4]:  # false where either is NaN
        return cx, cm
    sel = _smallest5(margin)
    cx = np.concatenate((cx, x[sel]))
    cm = np.concatenate((cm, margin[sel]))
    keep = _smallest5(cm)
    return cx[keep], cm[keep]


@functools.lru_cache(maxsize=64)
def _grid(lo: float, hi: float, points: int, errstate: tuple, start: int, stop: int) -> np.ndarray:
    """np.linspace(lo, hi, points + 2)[1:-1][start:stop] by linspace's own
    operations, read-only; errstate is only part of the key."""
    k = np.arange(start + 1.0, stop + 1.0)
    step = (delta := np.float64(hi) - lo) / (points + 1)
    x = (k / (points + 1) * delta if step == 0.0 else k * step) + lo  # linspace's zero-step path
    x.flags.writeable = False
    return x


def _evaluate(f: Callable, x: np.ndarray) -> np.ndarray:  # f at x, as an array of x's shape
    v = np.asarray(f(x), dtype=float)
    return v if v.shape == x.shape else np.broadcast_to(v, x.shape)


@functools.lru_cache(maxsize=32)
def _kept(f: Callable, lo: float, hi: float, points: int, errstate: tuple, start: int, stop: int):
    """f on the base-grid block [start:stop], read-only; errstate is only part of the key."""
    v = _evaluate(f, _grid(lo, hi, points, errstate, start, stop)).view()
    v.flags.writeable = False
    return v


def _side(f: Callable, x: np.ndarray, values: dict, block: tuple | None) -> np.ndarray:
    """f at x: by id(f) from the block's values, else from _kept for core.sinc and
    core.sinhc on a base-grid block (block is the key after f), else evaluated."""
    if id(f) not in values:  # by identity: a side need not be hashable
        kept = block is not None and (f is _core.sinc or f is _core.sinhc)
        values[id(f)] = _kept(f, *block) if kept else _evaluate(f, x)
    return values[id(f)]


def _report(case_id: str, grid_points: int, x: np.ndarray, lv: np.ndarray, rv: np.ndarray,
            n_bad: int | None = None, any_good: bool | None = None) -> VerificationReport:
    """The report on the points x with sides lv < rv, given in tie-breaking
    order.  n_bad and any_good, when given, count points beyond these."""
    margin = rv - lv
    violations = []
    if n_bad is None or n_bad:  # points without violations need no floors
        bad, good = _definite(margin, lv, rv)
        if n_bad is None:
            n_bad, any_good = int(np.count_nonzero(bad)), bool(good.any())
        violations = [Violation(float(x[i]), float(lv[i]), float(rv[i]))
                      for i in np.flatnonzero(bad)[:_MAX_STORED_VIOLATIONS]]
    imin = int(np.argmin(margin))
    return VerificationReport(case_id=case_id, grid_points=grid_points,
                              min_margin=float(margin[imin]), argmin_x=float(x[imin]),
                              violations=violations, verdict=_verdict(n_bad, any_good),
                              n_violations=n_bad)


class _Fold:
    """One case's check, reduced block by block.  Each block of the base
    grid, which is in x order, keeps the points that can decide the report:
    its first minimum and its first violations.  A refinement round (at
    most 5 windows of 13 points) is kept whole."""

    def __init__(self, case: InequalityCase, points: int):
        self.case = case
        self.spacing = (case.domain[1] - case.domain[0]) / (points + 1)
        self.n_bad = 0
        self.any_good = False
        self.picks = []
        self.cx = self.cm = np.empty(0)  # refinement candidates and their margins
        self.grid_points = 0
        self.error = None  # the first exception of an evaluation

    def add(self, x, lv, rv, refining: bool, whole: bool):
        margin = rv - lv
        i = int(margin.argmin())
        if refining:
            self.cx, self.cm = _take5(self.cx, self.cm, x, margin, margin[i])
        # Every floor is at least _DEADBAND, so a block whose smallest
        # margin is not below -_DEADBAND has no violation, and a margin
        # above the block's largest floor is a hold.  A block with a NaN
        # margin, or one these bounds do not settle, takes the floors
        # point by point.
        if margin[i] >= -_DEADBAND and (self.any_good or margin.max() > _largest_floor(lv, rv)):
            self.any_good = True
            keep = [i]
        else:
            bad, good = _definite(margin, lv, rv)
            idx = np.flatnonzero(bad)
            self.n_bad += idx.size
            self.any_good = self.any_good or bool(good.any())
            # the sorted union of keep and i; np.union1d would import numpy.ma
            keep = idx[:_MAX_STORED_VIOLATIONS]
            keep = keep if i in keep else np.sort(np.append(keep, i))
        self.picks.append((x, lv, rv) if whole else (x[keep], lv[keep], rv[keep]))

    def report(self) -> VerificationReport:
        if self.error is not None:  # evaluation failure -> inconclusive
            return VerificationReport(case_id=self.case.id, grid_points=self.grid_points,
                                      min_margin=math.nan, argmin_x=math.nan, violations=[],
                                      verdict=Verdict.INCONCLUSIVE,
                                      diagnostic=f"evaluation failed: {self.error!r}")
        x, lv, rv = (np.concatenate(col) for col in zip(*self.picks))
        order = np.argsort(x, kind="stable")  # equal x keeps round order
        return _report(self.case.id, self.grid_points, x[order], lv[order], rv[order],
                       self.n_bad, self.any_good)


def _verify_cases(cases: Sequence[InequalityCase], points: int,
                  refine_rounds: int) -> list[VerificationReport]:
    """[verify(case, points, refine_rounds) for case in cases] in one pass:
    each domain's base grid is built once, and each side is evaluated once
    per block of it for all the cases that read it."""
    points = _core._count(points, "points", 64)
    refine_rounds = _core._count(refine_rounds, "refine_rounds", 0)
    folds = [_Fold(case, points) for case in cases]
    # a round's grids (base-grid keys, then refinement windows), each with its cases
    grids = [((lo, hi, points, tuple(np.geterr().values())),
              [fold for fold in folds if fold.case.domain == (lo, hi)])
             for lo, hi in dict.fromkeys(case.domain for case in cases)]
    for round_no in range(refine_rounds + 1):
        if round_no:  # each case alone, at 3x the density around its 5 smallest margins so far
            left = [fold for _, mine in grids for fold in mine if fold.error is None]
            for fold in left:
                fold.spacing /= 3.0
            grids = [(xs, [fold]) for fold in left
                     if (xs := _refine_windows(fold.cx, fold.spacing, *fold.case.domain)).size]
        for grid, mine in grids:
            size = grid.size if round_no else points
            for start in range(0, size, _BLOCK):
                block = None if round_no else (*grid, start, min(start + _BLOCK, size))
                x = grid[start:start + _BLOCK] if round_no else _grid(*block)
                values = {}
                for fold in [f for f in mine if f.error is None]:
                    try:
                        fold.add(x, _side(fold.case.lhs, x, values, block),
                                 _side(fold.case.rhs, x, values, block),
                                 round_no < refine_rounds, block is None)
                    except (ArithmeticError, ValueError) as exc:
                        fold.error = exc
            for fold in mine:
                if fold.error is None:
                    fold.grid_points += size
    return [fold.report() for fold in folds]


def verify(case: InequalityCase, points: int = 4096, refine_rounds: int = 2) -> VerificationReport:
    """Check lhs < rhs on an interior grid, refining near the worst margins."""
    return _verify_cases([case], points, refine_rounds)[0]


def verify_chain(members: Sequence[tuple[str, Callable]], domain: tuple[float, float],
                 points: int = 4096) -> list[VerificationReport]:
    """One report per adjacent pair of the ordered (id, function) members."""
    if len(members) < 2:
        raise ValueError("a chain needs at least 2 members")
    return _verify_cases([family_case(a, b, domain) for a, b in zip(members, members[1:])], points, 2)


def verify_param_monotone(p_grid: Sequence[float], pairs) -> VerificationReport:
    """mean_family(p, pairs) strictly increasing along p_grid, pairs an
    (a, b) pair of equal-length 1-D arrays; one merged report, whose
    witness coordinate is the pair's half log ratio."""
    p_grid = [float(p) for p in p_grid]
    if len(p_grid) < 2:
        raise ValueError("p_grid needs at least 2 values")
    if any(q <= p for p, q in zip(p_grid, p_grid[1:])):
        raise ValueError("p_grid must be strictly increasing")
    a, b = pairs
    if np.size(a) == np.size(b) == 0:
        raise ValueError("pairs needs at least 1 (a, b) pair")
    coords, values = _means._mean_family_rows(p_grid, a, b)

    # the points row by row, each adjacent pair of p at each pair of means
    return _report("monotone:means", int(values.size), np.tile(coords, len(p_grid) - 1),
                   values[:-1].ravel(), values[1:].ravel())


class SharpnessFamily(enum.Enum):
    SINC_LOWER = "sinc_lower"    # cos_bound(p,.) < sinc on (0, pi/2), valid p <= edge
    SINC_UPPER = "sinc_upper"    # sinc < cos_bound(q,.) on (0, pi/2), valid q >= edge
    SINHC_LOWER = "sinhc_lower"  # cosh_bound(p,.) < sinhc, valid p <= edge
    SINHC_UPPER = "sinhc_upper"  # sinhc < cosh_bound(q,.), valid q >= edge


class ThresholdSide(enum.Enum):
    BELOW = "below"
    ABOVE = "above"


# family -> bound, target, domain, and the constants function that gives its
# edge (looked up on each call, so that a wrapper put on the module sees it)
_SHARP_EDGES = {
    SharpnessFamily.SINC_LOWER: ("cos_bound", "sinc", TRIG_DOMAIN, "solve_sinc_lower_edge"),
    SharpnessFamily.SINC_UPPER: ("cos_bound", "sinc", TRIG_DOMAIN, "sinc_upper_edge"),
    SharpnessFamily.SINHC_LOWER: ("cosh_bound", "sinhc", HYP_DOMAIN, "sinc_upper_edge"),
    SharpnessFamily.SINHC_UPPER: ("cosh_bound", "sinhc", HYP_DOMAIN, "sinhc_upper_edge"),
}
_LOWER = (SharpnessFamily.SINC_LOWER, SharpnessFamily.SINHC_LOWER)  # the bound is the lhs


def expected_sharpness_verdict(family: SharpnessFamily, side: ThresholdSide) -> Verdict:
    """The if-and-only-if content: valid side holds, other side fails."""
    valid_below = family in _LOWER
    below = side is ThresholdSide.BELOW
    return Verdict.HOLDS if below == valid_below else Verdict.FAILS


def edge_case(family: SharpnessFamily, p) -> InequalityCase:
    """bound(p) < target for the two lower families, target < bound(p) for
    the two upper, on the edge's domain; p outside the family raises ValueError."""
    bound, target, domain, _ = _SHARP_EDGES[family]
    fam, tgt = _core.member(bound, _core._check(float(p), domain is TRIG_DOMAIN)), _core.member(target)
    return family_case(fam, tgt, domain) if family in _LOWER else family_case(tgt, fam, domain)


def _merge(a: VerificationReport, b: VerificationReport) -> VerificationReport:
    ranking = {Verdict.FAILS: 0, Verdict.INCONCLUSIVE: 1, Verdict.HOLDS: 2}
    verdict = min((a.verdict, b.verdict), key=ranking.get)
    lead = a if (a.min_margin <= b.min_margin or math.isnan(b.min_margin)) else b
    return VerificationReport(
        case_id=a.case_id,
        grid_points=a.grid_points + b.grid_points,
        min_margin=lead.min_margin,
        argmin_x=lead.argmin_x,
        violations=(a.violations + b.violations)[:_MAX_STORED_VIOLATIONS],
        verdict=verdict,
        n_violations=a.n_violations + b.n_violations,
        diagnostic=a.diagnostic or b.diagnostic,
    )


def verify_sharpness(family: SharpnessFamily, side: ThresholdSide, offset: float,
                     points: int = 4096) -> VerificationReport:
    """Run edge_case just past (or just inside) its sharp threshold.

    For SINHC_UPPER with a parameter below 1 the violation appears at x far
    beyond any cosh-evaluable grid, so the finite-domain check is merged
    with a scan of the exponentially scaled gap (positive scaled gap means
    the upper bound eventually fails).  An offset below 10x the edge's
    certified radius, or one that leaves the family, raises ValueError.
    """
    threshold = getattr(_constants, _SHARP_EDGES[family][3])()
    if not offset >= 10.0 * threshold.certified_radius:
        raise ValueError("offset must be >= 10x the threshold's certified radius")
    param = threshold.value + (offset if side is ThresholdSide.ABOVE else -offset)
    report = verify(edge_case(family, param), points=points)
    if family is SharpnessFamily.SINHC_UPPER:
        scaled_case = InequalityCase(f"scaled gap({param:.9g}) < 0 at large x",
                                     _core.member("scaled_gap", param)[1], lambda x: 0.0, (1.0, 1e12))
        report = _merge(report, verify(scaled_case, points=points, refine_rounds=0))
    return report


def verify_leibniz_ratio(p, n_max: int) -> VerificationReport:
    """Ratio of consecutive derivative-series terms stays below 11 pi^2/360.

    Terms u_n(x) = (2n-4) a_n(p^2) x^{2n-5} / (3 (2n+1)!) for n >= 3; the
    bound < 1 is what makes the alternating series argument work.  Each
    ratio is a positive multiple of x^2, so its supremum on (0, pi/2) is its
    value at pi/2, where each order n = 3 ... n_max is checked.
    """
    p = _core._check(float(p), True)
    seq = _core.CoefficientSeq(p * p)
    n_max = _core._count(n_max, "n_max", 4)
    x2 = _core._HALF_PI * _core._HALF_PI
    ratios = [(2 * n - 2) / ((2 * n - 4) * (2 * n + 2) * (2 * n + 3)) * (1.0 + seq.ratio_excess(n)) * x2
              for n in range(3, n_max + 1)]
    bad = sum(r >= LEIBNIZ_RATIO_BOUND for r in ratios)
    return VerificationReport(case_id=f"leibniz-ratio p={p:.9g} n<={n_max}",
                              grid_points=len(ratios), min_margin=LEIBNIZ_RATIO_BOUND - max(ratios),
                              argmin_x=_core._HALF_PI, violations=[],
                              verdict=_verdict(bad, True), n_violations=bad)
