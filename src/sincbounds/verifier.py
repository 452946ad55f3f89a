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
they were evaluated.  verify reduces each round on its own and merges the
few points each round keeps, so it never sorts all the points.

Each round is evaluated and reduced in blocks of _BLOCK = 8192 consecutive
points: lhs and rhs are called once per block, on a slice of the round, so
they must be elementwise.  A block's float64 arrays take 64 KiB, below
glibc's 128 KiB mmap threshold, so their memory is reused from the heap;
arrays of a whole 65536-point round were mapped and page-faulted in afresh
on every round (about 81,000 minor faults per dense_grid benchmark cycle,
a third of its time in the kernel, against under 1,000 in blocks).
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import constants as _constants
from . import core as _core
from . import means as _means

_EPS = math.ulp(1.0)
FLOOR_ULPS = 64.0
_MAX_DOUBLE = sys.float_info.max
_BLOCK = 8192  # points per lhs/rhs call; see the module docstring


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
    strict: bool = True

    def __post_init__(self):
        lo, hi = self.domain
        if not lo < hi:
            raise ValueError(f"domain must satisfy xmin < xmax, got {self.domain!r}")


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
    # linspace's path for a step that underflows to zero
    fresh = np.where(step == 0.0, ramp / 12.0 * delta, ramp * step)
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
    np.clip(floor, 1.0, _MAX_DOUBLE, out=floor)
    floor *= FLOOR_ULPS * _EPS
    np.negative(floor, out=scratch)
    return margin < scratch, margin > floor


def _smallest5(margin: np.ndarray) -> np.ndarray:
    """np.argsort(margin, kind="stable")[:5], without sorting all of margin."""
    if margin.size > 5:
        kth = np.partition(margin, 4)[4]
        if not math.isnan(kth):  # NaN sorts last: then fewer than 5 are numbers
            idx = np.flatnonzero(margin <= kth)
            return idx[np.argsort(margin[idx], kind="stable")[:5]]
    return np.argsort(margin, kind="stable")[:5]


def _side(f: Callable, x: np.ndarray) -> np.ndarray:
    v = np.asarray(f(x), dtype=float)
    return v if v.shape == x.shape else np.broadcast_to(v, x.shape)


def _block(case: InequalityCase, xs: np.ndarray, start: int):
    """x, lhs and rhs of the block of xs that starts at start."""
    x = xs[start:start + _BLOCK]
    try:
        return x, _side(case.lhs, x), _side(case.rhs, x)
    except Exception:
        # Unblocked, lhs is evaluated on the whole round before rhs: raise
        # what that raises, not an rhs error that comes first in the blocks.
        _side(case.lhs, xs)
        _side(case.rhs, xs)
        raise


def verify(case: InequalityCase, points: int = 4096, refine_rounds: int = 2) -> VerificationReport:
    """Check lhs < rhs on an interior grid, refining near the worst margins."""
    if points < 64:
        raise ValueError("points must be >= 64")
    if refine_rounds < 0:
        raise ValueError("refine_rounds must be >= 0")
    lo, hi = case.domain
    xs = _interior_grid(lo, hi, points)
    spacing = (hi - lo) / (points + 1)
    grid_points = 0
    # Each block keeps, in x order, the points that can decide the report:
    # its first minimum and its first violations.  The report is read off
    # those points in x order.
    n_bad = 0
    any_good = False
    picks = []
    cx = cm = np.empty(0)  # refinement centres and their margins
    try:
        for round_no in range(refine_rounds + 1):
            cands = [(cx, cm)]
            for start in range(0, xs.size, _BLOCK):
                x, lv, rv = _block(case, xs, start)
                margin = rv - lv
                if round_no < refine_rounds:
                    keep = _smallest5(margin)
                    cands.append((x[keep], margin[keep]))
                if round_no:  # the base grid is in x order already
                    order = np.argsort(x, kind="stable")
                    x, lv, rv, margin = x[order], lv[order], rv[order], margin[order]
                bad, good = _definite(margin, lv, rv)
                idx = np.flatnonzero(bad)
                n_bad += idx.size
                any_good = any_good or bool(good.any())
                keep = np.union1d(idx[:_MAX_STORED_VIOLATIONS], np.argmin(margin))
                picks.append((x[keep], lv[keep], rv[keep]))
            grid_points += xs.size
            if round_no == refine_rounds:
                break
            # triple the density around the 5 smallest margins of all rounds
            # so far (ties in evaluation order); they are among the last 5
            # centres and the 5 smallest of each block of this round
            cx, cm = (np.concatenate(col) for col in zip(*cands))
            keep = _smallest5(cm)
            cx, cm = cx[keep], cm[keep]
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
    if n_bad:
        verdict = Verdict.FAILS
    elif any_good or not case.strict:
        verdict = Verdict.HOLDS
    else:
        verdict = Verdict.INCONCLUSIVE
    return VerificationReport(
        case_id=case.id,
        grid_points=grid_points,
        min_margin=float(margin[imin]),
        argmin_x=float(x[imin]),
        violations=violations,
        verdict=verdict,
        n_violations=n_bad,
    )


def verify_chain(members: Sequence[tuple[str, Callable]], domain: tuple[float, float],
                 points: int = 4096, refine_rounds: int = 2) -> list[VerificationReport]:
    """One report per adjacent pair of the ordered member list."""
    if len(members) < 2:
        raise ValueError("a chain needs at least 2 members")
    reports = []
    for (name_a, fa), (name_b, fb) in zip(members, members[1:]):
        case = InequalityCase(id=f"{name_a} < {name_b}", lhs=fa, rhs=fb, domain=domain)
        reports.append(verify(case, points=points, refine_rounds=refine_rounds))
    return reports


class MonotoneFamily(enum.Enum):
    COS_FAMILY = "cos"       # cos_bound increasing in p on [0, 1]
    COSH_FAMILY = "cosh"     # cosh_bound increasing in p on [0, inf)
    MEAN_FAMILY = "means"    # mean_family increasing in p on [0, inf)


def verify_param_monotone(family: MonotoneFamily, p_grid: Sequence[float],
                          x_grid: Sequence[float] | None = None,
                          pairs: Sequence | None = None) -> VerificationReport:
    """Strict increase along p_grid at every x (or pair); one merged report.

    For MEAN_FAMILY, pairs is a sequence of pairs (MeanPoints or (a, b));
    they are evaluated together as one array pair, and the witness
    coordinate is the pair's half log ratio.
    """
    p_grid = [float(p) for p in p_grid]
    if any(q <= p for p, q in zip(p_grid, p_grid[1:])):
        raise ValueError("p_grid must be strictly increasing")

    if family is MonotoneFamily.MEAN_FAMILY:
        if pairs is None:
            raise ValueError("MEAN_FAMILY needs pairs")
        ab = np.array([(m.a, m.b) if isinstance(m, _means.MeanPoint) else m for m in pairs],
                      dtype=float)
        if ab.ndim != 2 or ab.shape[1] != 2:
            raise ValueError("pairs must be a sequence of (a, b) pairs")
        coords, values = _means._mean_family_rows(p_grid, ab[:, 0], ab[:, 1])
    else:
        if x_grid is None:
            raise ValueError("x_grid required for bound families")
        coords = np.asarray(x_grid, dtype=float)
        fn = _core.cos_bound if family is MonotoneFamily.COS_FAMILY else _core.cosh_bound
        values = np.array([np.broadcast_to(np.asarray(fn(p, coords), dtype=float), coords.shape)
                           for p in p_grid])

    diffs = values[1:] - values[:-1]            # (len(p)-1, len(x))
    scale = np.maximum(1.0, np.abs(values).max(axis=0))
    floor = FLOOR_ULPS * _EPS * scale
    bad = diffs < -floor
    good = diffs > floor
    flat_idx = int(np.argmin(diffs))
    row, col = np.unravel_index(flat_idx, diffs.shape)
    viol_rows, viol_cols = np.nonzero(bad)
    violations = [Violation(float(coords[c]), float(values[r][c]), float(values[r + 1][c]))
                  for r, c in list(zip(viol_rows, viol_cols))[:_MAX_STORED_VIOLATIONS]]
    if bad.any():
        verdict = Verdict.FAILS
    elif good.any():
        verdict = Verdict.HOLDS
    else:
        verdict = Verdict.INCONCLUSIVE
    return VerificationReport(
        case_id=f"monotone:{family.value}",
        grid_points=int(values.size),
        min_margin=float(diffs[row, col]),
        argmin_x=float(coords[col]),
        violations=violations,
        verdict=verdict,
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


_HYP_DOMAIN = (0.0, 50.0)  # cosh overflow margin; large-x behaviour is
                           # delegated to the exponentially scaled gap scan


def _default_threshold(family: SharpnessFamily) -> _constants.SharpConstant:
    if family is SharpnessFamily.SINC_LOWER:
        return _constants.solve_sinc_lower_edge(1e-12)
    if family is SharpnessFamily.SINHC_UPPER:
        return _constants.sinhc_upper_edge()
    return _constants.sinc_upper_edge()  # shared by SINC_UPPER and SINHC_LOWER


def expected_sharpness_verdict(family: SharpnessFamily, side: ThresholdSide) -> Verdict:
    """The if-and-only-if content: valid side holds, other side fails."""
    valid_below = family in (SharpnessFamily.SINC_LOWER, SharpnessFamily.SINHC_LOWER)
    below = side is ThresholdSide.BELOW
    return Verdict.HOLDS if below == valid_below else Verdict.FAILS


def _family_case(family: SharpnessFamily, param: float) -> InequalityCase:
    half_pi = math.pi / 2.0
    if family is SharpnessFamily.SINC_LOWER:
        return InequalityCase(f"cos_bound({param:.9g}) < sinc", lambda x: _core.cos_bound(param, x),
                              _core.sinc, (0.0, half_pi))
    if family is SharpnessFamily.SINC_UPPER:
        return InequalityCase(f"sinc < cos_bound({param:.9g})", _core.sinc,
                              lambda x: _core.cos_bound(param, x), (0.0, half_pi))
    if family is SharpnessFamily.SINHC_LOWER:
        return InequalityCase(f"cosh_bound({param:.9g}) < sinhc",
                              lambda x: _core.cosh_bound(param, x), _core.sinhc, _HYP_DOMAIN)
    return InequalityCase(f"sinhc < cosh_bound({param:.9g})", _core.sinhc,
                          lambda x: _core.cosh_bound(param, x), _HYP_DOMAIN)


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
                     threshold: _constants.SharpConstant | None = None,
                     points: int = 4096) -> VerificationReport:
    """Run the family check just past (or just inside) its sharp threshold.

    For SINHC_UPPER with a parameter below 1 the violation appears at x far
    beyond any cosh-evaluable grid, so the finite-domain check is merged
    with a scan of the exponentially scaled gap (positive scaled gap means
    the upper bound eventually fails).
    """
    if threshold is None:
        threshold = _default_threshold(family)
    if not offset >= 10.0 * threshold.certified_radius:
        raise ValueError("offset must be >= 10x the threshold's certified radius")
    param = threshold.value + (offset if side is ThresholdSide.ABOVE else -offset)
    report = verify(_family_case(family, param), points=points)
    if family is SharpnessFamily.SINHC_UPPER:
        scaled_case = InequalityCase(
            id=f"scaled gap({param:.9g}) < 0 at large x",
            lhs=lambda x: _core.sinhc_gap_scaled(param, x),
            rhs=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            domain=(1.0, 1e12),
        )
        report = _merge(report, verify(scaled_case, points=points, refine_rounds=0))
    return report


LEIBNIZ_RATIO_BOUND = 11.0 * math.pi ** 2 / 360.0


def verify_leibniz_ratio(p, n_max: int, points: int = 256) -> VerificationReport:
    """Ratio of consecutive derivative-series terms stays below 11 pi^2/360.

    Terms u_n(x) = (2n-4) a_n(p^2) x^{2n-5} / (3 (2n+1)!) for n >= 3; the
    bound < 1 is what makes the alternating series argument work.
    """
    p = _core._param(p, _core.Family.TRIG)
    c = p * p
    if not 0.0 < c <= 0.6 * (1.0 + 1e-12):
        raise ValueError("p^2 must lie in (0, 3/5]")
    if n_max < 4:
        raise ValueError("n_max must be >= 4")
    xs = _interior_grid(0.0, math.pi / 2.0, points)
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
