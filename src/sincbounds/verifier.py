"""Grid-based inequality verification with local refinement.

Semantics: a sampled margin below -floor (floor = 64 ulps of the local
magnitude) is a trustworthy violation; margins inside the +-floor deadband
are indeterminate at double precision and are tolerated, because every
true inequality in this corpus has margin -> 0 at a domain endpoint.  A
HOLDS verdict therefore means "no violation found and positive evidence
exists somewhere"; it is evidence, not proof.  FAILS always carries a
concrete witness.

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
they must be elementwise.  The base grid is made once per call, by
np.linspace, and each block is a slice of it; the grid is the only
round-sized array.  A block's float64 arrays take 64 KiB, below glibc's
128 KiB mmap threshold, so their memory is reused from the heap; the
temporaries of a whole 65536-point round were mapped and page-faulted in
afresh on every round (about 81,000 minor faults per dense_grid benchmark
cycle, a third of its time in the kernel, against under 1,000 in blocks).

Most blocks are settled by a few whole-block reductions.  Every floor is at
least 64 ulps of 1, so a block whose smallest margin is not below minus
that has no violation; and a margin above the block's largest floor, 64
ulps of max(1, max|lhs|, max|rhs|) capped at the largest double, is a hold,
after which no block needs that test.  A NaN margin fails both
comparisons.  Only a block these bounds do not settle takes the per-point
floors.  The refinement centres of the next round are the 5 smallest
margins so far; once 5 are held, a block offers only its margins below the
5th, kth, as a margin equal to kth comes later in evaluation order and so
cannot displace it.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from . import constants as _constants
from . import core as _core
from . import means as _means
from .constants import LEIBNIZ_RATIO_BOUND

_EPS = math.ulp(1.0)
FLOOR_ULPS = 64.0
_MAX_DOUBLE = sys.float_info.max
_BLOCK = 8192  # points per lhs/rhs call; see the module docstring
_DEADBAND = FLOOR_ULPS * _EPS  # the smallest floor
_SMALL = 256  # _smallest5 sorts arrays up to this size outright

TRIG_DOMAIN = (0.0, _core._HALF_PI)
HYP_DOMAIN = (0.0, 50.0)  # cosh overflow margin; large-x behaviour is
                          # delegated to the exponentially scaled gap scan


class Verdict(enum.Enum):
    HOLDS = "holds"
    FAILS = "fails"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class InequalityCase:
    """Claim lhs(x) < rhs(x) on the open interval domain.

    lhs and rhs take a float64 array of points and return the values at
    those points, an array of its shape or a scalar.  verify calls them on
    consecutive slices of each round, so a value may depend on its own
    point only.
    """

    id: str
    lhs: Callable
    rhs: Callable
    domain: tuple[float, float]

    def __post_init__(self):
        lo, hi = self.domain
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"domain endpoints must be finite, got {self.domain!r}")
        if not lo < hi:
            raise ValueError(f"domain must satisfy xmin < xmax, got {self.domain!r}")


def family_case(lhs: str, p: float | None, rhs: str, q: float | None, domain) -> InequalityCase:
    """lhs < rhs on domain.  A side with a parameter is the family member
    partial(core.<name>, p); cos_power and cosh_power name the power forms."""
    def side(name, p):
        fn = getattr(_core, name + "_bound" if name.endswith("_power") else name)
        return (name, fn) if p is None else (f"{name}({p:.9g})", partial(fn, p))

    (a, f), (b, g) = side(lhs, p), side(rhs, q)
    return InequalityCase(f"{a} < {b}", f, g, domain)


@dataclass(frozen=True)
class Violation:
    x: float
    lhs: float
    rhs: float


@dataclass(frozen=True)
class VerificationReport:
    case_id: str
    grid_points: int
    min_margin: float
    argmin_x: float
    violations: list[Violation]
    verdict: Verdict
    n_violations: int = 0
    diagnostic: str = ""


_MAX_STORED_VIOLATIONS = 50


def _verdict(bad, good) -> Verdict:
    """FAILS on a definite violation, else HOLDS on a definite hold."""
    return Verdict.FAILS if bad else Verdict.HOLDS if good else Verdict.INCONCLUSIVE


def _interior_grid(lo: float, hi: float, points: int) -> np.ndarray:
    return np.linspace(lo, hi, points + 2)[1:-1]


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
    return fresh[(fresh > lo) & (fresh < hi)]


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
    margin is lowest.

    Once 5 candidates are held, their 5th-smallest margin kth bounds the
    block: only its margins below kth can enter, as a margin equal to kth
    comes later in evaluation order than the 5 held.
    """
    kth = cm[4] if cm.size == 5 else math.nan
    if lowest >= kth:  # false where either is NaN
        return cx, cm
    sel = _smallest5(margin) if math.isnan(kth) else np.flatnonzero(margin < kth)
    cx = np.concatenate((cx, x[sel]))
    cm = np.concatenate((cm, margin[sel]))
    keep = _smallest5(cm)
    return cx[keep], cm[keep]


def _side(f: Callable, x: np.ndarray) -> np.ndarray:
    v = np.asarray(f(x), dtype=float)
    return v if v.shape == x.shape else np.broadcast_to(v, x.shape)


def verify(case: InequalityCase, points: int = 4096, refine_rounds: int = 2) -> VerificationReport:
    """Check lhs < rhs on an interior grid, refining near the worst margins."""
    if points < 64:
        raise ValueError("points must be >= 64")
    if refine_rounds < 0:
        raise ValueError("refine_rounds must be >= 0")
    lo, hi = case.domain
    spacing = (hi - lo) / (points + 1)
    xs = _interior_grid(lo, hi, points)
    grid_points = 0
    # Each block of the base grid, which is in x order, keeps the points that
    # can decide the report: its first minimum and its first violations.  A
    # refinement round (at most 5 windows of 13 points) is kept whole.
    n_bad = 0
    any_good = False
    picks = []
    cx = cm = np.empty(0)  # refinement candidates and their margins
    try:
        for round_no in range(refine_rounds + 1):
            refining = round_no < refine_rounds
            for start in range(0, xs.size, _BLOCK):
                x = xs[start:start + _BLOCK]
                lv = _side(case.lhs, x)
                rv = _side(case.rhs, x)
                margin = rv - lv
                i = int(margin.argmin())
                if refining:
                    cx, cm = _take5(cx, cm, x, margin, margin[i])
                # Every floor is at least _DEADBAND, so a block whose smallest
                # margin is not below -_DEADBAND has no violation, and a margin
                # above the block's largest floor is a hold.  A block with a
                # NaN margin, or one these bounds do not settle, takes the
                # floors point by point.
                if margin[i] >= -_DEADBAND and (any_good or margin.max() > _largest_floor(lv, rv)):
                    any_good = True
                    keep = [i]
                else:
                    bad, good = _definite(margin, lv, rv)
                    idx = np.flatnonzero(bad)
                    n_bad += idx.size
                    any_good = any_good or bool(good.any())
                    keep = np.union1d(idx[:_MAX_STORED_VIOLATIONS], i)
                picks.append((x, lv, rv) if round_no else (x[keep], lv[keep], rv[keep]))
            grid_points += xs.size
            if not refining:
                break
            # triple the density around the 5 smallest margins of all rounds
            # so far (ties in evaluation order)
            spacing /= 3.0
            xs = _refine_windows(cx, spacing, lo, hi)
            if xs.size == 0:
                break
    except (ArithmeticError, ValueError) as exc:  # evaluation failure -> inconclusive
        return VerificationReport(
            case_id=case.id,
            grid_points=grid_points,
            min_margin=math.nan,
            argmin_x=math.nan,
            violations=[],
            verdict=Verdict.INCONCLUSIVE,
            diagnostic=f"evaluation failed: {exc!r}",
        )

    x, lv, rv = (np.concatenate(col) for col in zip(*picks))
    order = np.argsort(x, kind="stable")  # equal x keeps round order
    x, lv, rv = x[order], lv[order], rv[order]
    margin = rv - lv
    bad, _ = _definite(margin, lv, rv)
    imin = int(np.argmin(margin))
    violations = [Violation(float(x[i]), float(lv[i]), float(rv[i]))
                  for i in np.flatnonzero(bad)[:_MAX_STORED_VIOLATIONS]]
    return VerificationReport(
        case_id=case.id,
        grid_points=grid_points,
        min_margin=float(margin[imin]),
        argmin_x=float(x[imin]),
        violations=violations,
        verdict=_verdict(n_bad, any_good),
        n_violations=n_bad,
    )


def verify_chain(members: Sequence[tuple[str, Callable]], domain: tuple[float, float],
                 points: int = 4096) -> list[VerificationReport]:
    """One report per adjacent pair of the ordered member list."""
    if len(members) < 2:
        raise ValueError("a chain needs at least 2 members")
    reports = []
    for (name_a, fa), (name_b, fb) in zip(members, members[1:]):
        case = InequalityCase(id=f"{name_a} < {name_b}", lhs=fa, rhs=fb, domain=domain)
        reports.append(verify(case, points=points))
    return reports


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
    coords, values = _means._mean_family_rows(p_grid, a, b)

    diffs = values[1:] - values[:-1]            # (len(p)-1, len(x))
    floor = _DEADBAND * np.maximum(1.0, np.abs(values).max(axis=0))
    bad = diffs < -floor
    good = diffs > floor
    row, col = np.unravel_index(int(np.argmin(diffs)), diffs.shape)
    viol_rows, viol_cols = np.nonzero(bad)
    violations = [Violation(float(coords[c]), float(values[r][c]), float(values[r + 1][c]))
                  for r, c in list(zip(viol_rows, viol_cols))[:_MAX_STORED_VIOLATIONS]]
    return VerificationReport(
        case_id="monotone:means",
        grid_points=int(values.size),
        min_margin=float(diffs[row, col]),
        argmin_x=float(coords[col]),
        violations=violations,
        verdict=_verdict(bad.any(), good.any()),
        n_violations=int(bad.sum()),
    )


class SharpnessFamily(enum.Enum):
    SINC_LOWER = "sinc_lower"    # cos_bound(p,.) < sinc on (0, pi/2), valid p <= edge
    SINC_UPPER = "sinc_upper"    # sinc < cos_bound(q,.) on (0, pi/2), valid q >= edge
    SINHC_LOWER = "sinhc_lower"  # cosh_bound(p,.) < sinhc, valid p <= edge
    SINHC_UPPER = "sinhc_upper"  # sinhc < cosh_bound(q,.), valid q >= edge


class ThresholdSide(enum.Enum):
    BELOW = "below"
    ABOVE = "above"


# family -> lhs, rhs, domain, and the constants function that gives its edge
# (looked up on each call, so that a wrapper put on the module sees it)
_SHARP_EDGES = {
    SharpnessFamily.SINC_LOWER: ("cos_bound", "sinc", TRIG_DOMAIN, "solve_sinc_lower_edge"),
    SharpnessFamily.SINC_UPPER: ("sinc", "cos_bound", TRIG_DOMAIN, "sinc_upper_edge"),
    SharpnessFamily.SINHC_LOWER: ("cosh_bound", "sinhc", HYP_DOMAIN, "sinc_upper_edge"),
    SharpnessFamily.SINHC_UPPER: ("sinhc", "cosh_bound", HYP_DOMAIN, "sinhc_upper_edge"),
}


def expected_sharpness_verdict(family: SharpnessFamily, side: ThresholdSide) -> Verdict:
    """The if-and-only-if content: valid side holds, other side fails."""
    valid_below = family in (SharpnessFamily.SINC_LOWER, SharpnessFamily.SINHC_LOWER)
    below = side is ThresholdSide.BELOW
    return Verdict.HOLDS if below == valid_below else Verdict.FAILS


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
    """Run the family check just past (or just inside) its sharp threshold.

    For SINHC_UPPER with a parameter below 1 the violation appears at x far
    beyond any cosh-evaluable grid, so the finite-domain check is merged
    with a scan of the exponentially scaled gap (positive scaled gap means
    the upper bound eventually fails).  An offset below 10x the edge's
    certified radius, or one that puts the parameter outside its family (p
    in [0, 1] on the trig side, p >= 0 on the hyperbolic), raises ValueError.
    """
    lhs, rhs, domain, edge = _SHARP_EDGES[family]
    threshold = getattr(_constants, edge)()
    if not offset >= 10.0 * threshold.certified_radius:
        raise ValueError("offset must be >= 10x the threshold's certified radius")
    param = _core._check(threshold.value + (offset if side is ThresholdSide.ABOVE else -offset),
                         domain is TRIG_DOMAIN)
    p, q = (param, None) if lhs.endswith("_bound") else (None, param)
    report = verify(family_case(lhs, p, rhs, q, domain), points=points)
    if family is SharpnessFamily.SINHC_UPPER:
        scaled_case = InequalityCase(
            id=f"scaled gap({param:.9g}) < 0 at large x",
            lhs=lambda x: _core.sinhc_gap_scaled(param, x),
            rhs=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            domain=(1.0, 1e12),
        )
        report = _merge(report, verify(scaled_case, points=points, refine_rounds=0))
    return report


def verify_leibniz_ratio(p, n_max: int, points: int = 256) -> VerificationReport:
    """Ratio of consecutive derivative-series terms stays below 11 pi^2/360.

    Terms u_n(x) = (2n-4) a_n(p^2) x^{2n-5} / (3 (2n+1)!) for n >= 3; the
    bound < 1 is what makes the alternating series argument work.
    """
    p = _core._check(float(p), True)
    c = p * p
    if not 0.0 < c <= _core._C_MAX:
        raise ValueError("p^2 must lie in (0, 3/5]")
    if n_max < 4:
        raise ValueError("n_max must be >= 4")
    xs = _interior_grid(*TRIG_DOMAIN, points)
    x2 = xs * xs
    worst = -math.inf
    worst_x = xs[0]
    bad = 0
    for n in range(3, n_max + 1):
        a_n = _core.gap_series_coeff(n, c)
        a_n1 = _core.gap_series_coeff(n + 1, c)
        factor = (2 * n - 2) / ((2 * n - 4) * (2 * n + 2) * (2 * n + 3))
        ratios = factor * (a_n1 / a_n) * x2
        i = int(np.argmax(ratios))
        if ratios[i] > worst:
            worst, worst_x = float(ratios[i]), float(xs[i])
        bad += int(np.count_nonzero(ratios >= LEIBNIZ_RATIO_BOUND))
    verdict = Verdict.HOLDS if bad == 0 else Verdict.FAILS
    return VerificationReport(
        case_id=f"leibniz-ratio p={p:.9g} n<={n_max}",
        grid_points=points * (n_max - 2),
        min_margin=LEIBNIZ_RATIO_BOUND - worst,
        argmin_x=worst_x,
        violations=[],
        verdict=verdict,
        n_violations=bad,
    )
