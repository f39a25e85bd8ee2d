"""Families of spaces whose dimension-at-scale is engineered level by level.

The schedules here pick a strictly growing weight a_n for each level n
so that the level-n piece is too coarse to cover with one family at
scale a_n under any control up to n*a_n, while everything assembled
before level n is small enough to hide inside a single cluster at the
scale just below a_n.  Gluing the pieces (as an l1 direct sum of
weighted cyclic groups, or as a wedge of weighted circles or intervals)
yields finite spaces whose dimension profile rises at the weights and
collapses to zero just under them, with the gap widening as the level
grows.

check_conditions verifies the four structural properties the argument
needs, per level and by direct computation; profile measures the actual
dimension profile of a built space.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .solver import DEFAULT_NODE_BUDGET, dim_at_scale, lambda_components
from .spaces import (DEFAULT_PRODUCT_CAP, FiniteMetricSpace, cyclic_group,
                     interval, l1_blocks, l1_sum, wedge, wedge_points)

SCHEDULE_MODES = ("group", "wedge", "interval-wedge")


class SmallCircleWarning(UserWarning):
    """A scheduled circle is too short for its level: its diameter does
    not exceed level * weight, so the single-family infeasibility that
    the schedule is designed around fails at that level."""


@dataclass(frozen=True)
class WeightSchedule:
    """Weights a_1..a_N for one of the schedule modes.

    Instances built by hand are not validated; weight_schedule() is the
    factory that guarantees the defining recurrence holds.
    """

    p: int
    weights: tuple[int, ...]
    mode: str

    @property
    def levels(self) -> int:
        return len(self.weights)

    def weight(self, n: int) -> int:
        """a_n, with n counted from 1."""
        return self.weights[n - 1]

    def __iter__(self) -> Iterator[int]:
        return iter(self.weights)


def _piece_eccentricity(p: int, n: int, a_n: int, mode: str) -> int:
    # Largest distance from the basepoint within the level-n piece.
    if mode == "interval-wedge":
        return a_n * (n + 2)
    return a_n * (p**n // 2)


def weight_schedule(p: int, levels: int, mode: str = "group") -> WeightSchedule:
    """Build the weight sequence a_1..a_levels for a schedule mode.

    Each a_n is one more than the diameter of everything assembled from
    the earlier levels: the l1 sum of the earlier circles in group mode,
    or their wedge in the wedge modes (where the diameter is the sum of
    the two largest arm eccentricities).  Mode "interval-wedge" uses
    intervals of k = n+2 steps instead of circles and ignores p.

    Emits SmallCircleWarning for any level whose circle has fewer than
    2*(level+1) points.
    """
    return WeightSchedule(p, tuple(_weights(p, levels, mode)), mode)


def _weights(p: int, levels: int, mode: str) -> Iterator[int]:
    # weight_schedule's weights one at a time, each after its warning.
    if mode not in SCHEDULE_MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {SCHEDULE_MODES}")
    if not isinstance(p, int) or p < 2:
        raise ValueError(f"p must be an integer >= 2, got {p!r}")
    if not isinstance(levels, int) or levels < 1:
        raise ValueError(f"levels must be a positive integer, got {levels!r}")
    # The prior assembly's diameter, kept as it grows: the sum of all
    # eccentricities in group mode, the two largest in the wedge modes.
    total = first = second = 0
    for n in range(1, levels + 1):
        a_n = 1 + (total if mode == "group" else first + second)
        if mode != "interval-wedge" and p**n < 2 * (n + 1):
            warnings.warn(
                f"level {n}: the circle has {p**n} points, so its diameter "
                f"{a_n * (p**n // 2)} is at most {n} * a_{n}; the "
                f"single-family step fails at this level",
                SmallCircleWarning, stacklevel=3)
        yield a_n
        ecc = _piece_eccentricity(p, n, a_n, mode)
        total += ecc
        second, first = sorted((first, second, ecc))[1:]


def truncation_factors(schedule: WeightSchedule) -> list[FiniteMetricSpace]:
    """The level pieces of a schedule, in level order."""
    out = []
    for n in range(1, schedule.levels + 1):
        a_n = schedule.weight(n)
        if schedule.mode == "interval-wedge":
            out.append(interval(n + 2, a_n))
        else:
            out.append(cyclic_group(schedule.p**n, a_n))
    return out


def _truncation(p: int, levels: int, mode: str, label: str) -> FiniteMetricSpace:
    """The schedule's pieces, summed in group mode and wedged otherwise;
    points are counted against the cap before the (slow) schedule."""
    size = n = 1
    while n <= levels and size <= DEFAULT_PRODUCT_CAP and p >= 2:
        size = size * p**n if mode == "group" else size + p**n - 1
        n += 1
    if size > DEFAULT_PRODUCT_CAP:
        raise ValueError(f"{label} would have at least {size} points, "
                         f"over the cap {DEFAULT_PRODUCT_CAP}")
    glue = l1_sum if mode == "group" else wedge
    return glue(truncation_factors(weight_schedule(p, levels, mode)), label=label)


def group_truncation(p: int, levels: int) -> FiniteMetricSpace:
    """l1 direct sum of the first ``levels`` weighted cyclic groups
    Z_{p^n} under the group-mode schedule."""
    return _truncation(p, levels, "group", f"group({p},{levels})")


def wedge_truncation(p: int, levels: int) -> FiniteMetricSpace:
    """Wedge of the first ``levels`` weighted circles under the
    wedge-mode schedule."""
    return _truncation(p, levels, "wedge", f"wedgegroup({p},{levels})")


# -- distinguished subsets ---------------------------------------------------


def l1_axis_subsets(factors: Sequence[FiniteMetricSpace]) -> list[list[int]]:
    """For an l1 sum of the given factors: the index sets of the axes,
    one per factor (all other coordinates held at their basepoints).
    The axis subspace is isometric to its factor."""
    return [l1_blocks(factors, [[range(g.size)] if i == f else [[g.basepoint]]
                                for i, g in enumerate(factors)])[0]
            for f in range(len(factors))]


def wedge_arm_subsets(factors: Sequence[FiniteMetricSpace]) -> list[list[int]]:
    """For a wedge of the given factors: the index sets of the arms,
    each including the wedge point, one per factor.  The arm subspace is
    isometric to its factor."""
    return [wedge_points(factors, f, range(g.size))
            for f, g in enumerate(factors)]


# -- the structural conditions ------------------------------------------------


@dataclass(frozen=True)
class ConditionLevel:
    """Results of the four per-level checks.

    discrete_ok: the level piece keeps distinct points at distance at
    least its weight.  rise_ok: one family cannot cover the piece at
    scale (a_n, c*a_n), for each multiplier c = 1..n.  prefix_diameter_ok
    (None at level 1): everything before this level has diameter under
    a_n.  separation_ok (None at the last level): every later piece
    keeps distinct points strictly further than a_n apart.
    length_prerequisite: the piece's diameter exceeds n*a_n, the size
    floor the rise checks rely on.
    """

    n: int
    weight: int
    discrete_ok: bool
    rise_ok: tuple[tuple[int, bool], ...]
    prefix_diameter_ok: Optional[bool]
    separation_ok: Optional[bool]
    length_prerequisite: bool
    notes: str = ""

    def rises_hold(self) -> bool:
        return all(ok for _, ok in self.rise_ok)


@dataclass(frozen=True)
class ConditionsReport:
    """Per-level condition results for a schedule.

    ok demands discreteness, prefix-diameter and separation at every
    level, and the rise checks at levels meeting the length
    prerequisite.  strict_ok additionally demands the rises at the
    undersized levels, where they are known to fail by a diameter count;
    the gap between the two is exactly those levels.
    """

    schedule: WeightSchedule
    levels: tuple[ConditionLevel, ...]

    @property
    def ok(self) -> bool:
        for lv in self.levels:
            if not lv.discrete_ok:
                return False
            if lv.prefix_diameter_ok is False or lv.separation_ok is False:
                return False
            if lv.length_prerequisite and not lv.rises_hold():
                return False
        return True

    @property
    def strict_ok(self) -> bool:
        return self.ok and all(lv.rises_hold() for lv in self.levels)

    def describe(self) -> str:
        lines = []
        for lv in self.levels:
            rises = " ".join(f"c={c}:{'ok' if ok else 'FAIL'}"
                             for c, ok in lv.rise_ok)
            parts = [f"level {lv.n} (a={lv.weight}):",
                     f"discrete={'ok' if lv.discrete_ok else 'FAIL'}",
                     f"rise[{rises}]"]
            if lv.prefix_diameter_ok is not None:
                parts.append(f"prefix={'ok' if lv.prefix_diameter_ok else 'FAIL'}")
            if lv.separation_ok is not None:
                parts.append(f"separation={'ok' if lv.separation_ok else 'FAIL'}")
            if not lv.length_prerequisite:
                parts.append("(undersized piece)")
            if lv.notes:
                parts.append(f"-- {lv.notes}")
            lines.append(" ".join(parts))
        lines.append(f"overall: ok={self.ok} strict_ok={self.strict_ok}")
        return "\n".join(lines)


def _prefix_diameter(schedule: WeightSchedule,
                     factors: Sequence[FiniteMetricSpace], n: int) -> int:
    # Diameter of the assembly of levels 1..n-1 (0 when empty).
    prior = factors[:n - 1]
    if not prior:
        return 0
    if schedule.mode == "group":
        return sum(f.diameter() for f in prior)
    return wedge(prior).diameter()


def check_conditions(schedule: WeightSchedule) -> ConditionsReport:
    """Verify the structural conditions of a schedule by computation.

    The rise checks scan the a_n-components of each piece once: one
    family covers the piece at (a_n, c*a_n) exactly when no component is
    wider than c*a_n, so the widest component decides every c.  The
    report reflects the spaces as built, not the intended design.
    """
    factors = truncation_factors(schedule)
    levels = []
    for n in range(1, schedule.levels + 1):
        a_n = schedule.weight(n)
        piece = factors[n - 1]
        discrete_ok = piece.is_lambda_discrete(a_n)
        widest = lambda_components(piece, a_n).max_diameter()
        rises = [(c, widest > c * a_n) for c in range(1, n + 1)]
        prereq = piece.diameter() > n * a_n
        prefix_ok = None
        if n > 1:
            prefix_ok = _prefix_diameter(schedule, factors, n) < a_n
        sep_ok = None
        if n < schedule.levels:
            sep_ok = all(f.size < 2 or f.min_positive_distance() > a_n
                         for f in factors[n:])
        notes = ""
        if not prereq:
            notes = (f"piece diameter {piece.diameter()} <= {n} * {a_n}; "
                     f"rises cannot all hold")
        levels.append(ConditionLevel(n, a_n, discrete_ok, tuple(rises),
                                     prefix_ok, sep_ok, prereq, notes))
    return ConditionsReport(schedule, tuple(levels))


# -- dimension profiles -------------------------------------------------------

DEFAULT_SEARCH_SIZE_CAP = 500


@dataclass(frozen=True)
class ProfileSample:
    """The dimension measured at one separation scale.

    status "exact" means value is the dimension; "lower-bound" means the
    computation stopped early by policy (size cap) with value proven as
    a lower bound; "unknown" means the node budget ran out, again with
    value a proven lower bound.
    """

    lam: int
    control: int
    value: int
    status: str


@dataclass(frozen=True)
class Profile:
    label: str
    c: int
    samples: tuple[ProfileSample, ...]


def profile(space: FiniteMetricSpace, c: int, lambdas: Sequence[int], *,
            node_budget: int = DEFAULT_NODE_BUDGET) -> Profile:
    """Measure the dimension of a space at control c*lam over a list of
    separation scales.

    Spaces of at most DEFAULT_SEARCH_SIZE_CAP points get the exact
    search.  Larger spaces get certified bounds instead.  The factors of
    a sum or wedge (each isometric to an axis or arm, so a subspace) that
    fit the cap are searched exactly; a positive value among them is a
    lower bound, since dimension is monotone under taking subspaces.
    Otherwise a whole-space component scan certifies zeroes and a single
    two-family search follows.
    """
    if not isinstance(c, int) or c < 1:
        raise ValueError(f"c must be a positive integer, got {c!r}")
    over = space.size > DEFAULT_SEARCH_SIZE_CAP
    probes = []
    if over and space.structure is not None:
        probes = [f for f in space.structure[1]
                  if f.size <= DEFAULT_SEARCH_SIZE_CAP]
    samples = []
    for lam in lambdas:
        control = c * lam
        best = 0
        for factor in probes:
            r = dim_at_scale(factor, lam, control, node_budget=node_budget)
            if r.status == "exact" and r.value > best:
                best = r.value
        if best >= 1:
            samples.append(ProfileSample(lam, control, best, "lower-bound"))
            continue
        r = dim_at_scale(space, lam, control, node_budget=node_budget,
                         max_n=1 if over else None)
        samples.append(ProfileSample(lam, control, r.lower_bound, r.status))
    return Profile(space.label, c, tuple(samples))


def profile_csv(prof: Profile) -> str:
    lines = ["c,lambda,control,dim,status"]
    for s in prof.samples:
        lines.append(f"{prof.c},{s.lam},{s.control},{s.value},{s.status}")
    return "\n".join(lines) + "\n"


def schedule_csv(schedule: Iterable[int]) -> str:
    """The weights a_1, a_2, ... of a schedule as CSV, read one at a
    time.  A weight too long for the interpreter's integer-to-text limit
    is a ValueError naming its level, and no later weight is read."""
    lines = ["n,a_n"]
    for n, a_n in enumerate(schedule, 1):
        try:
            lines.append(f"{n},{a_n}")
        except ValueError:
            raise ValueError(
                f"schedule level {n}: weight a_{n} has about "
                f"{int(math.log10(a_n)) + 1} decimal digits, too many to "
                f"print (levels 1..{n - 1} print)") from None
    return "\n".join(lines) + "\n"
