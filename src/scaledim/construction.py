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

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

from .covers import ScaledCover, validate_cover
from .solver import (DEFAULT_NODE_BUDGET, INFEASIBLE, dim_at_scale, dim_le,
                     lambda_components)
from .spaces import FiniteMetricSpace, cyclic_group, interval, l1_sum, subspace, wedge

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
    if mode not in SCHEDULE_MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {SCHEDULE_MODES}")
    if not isinstance(p, int) or p < 2:
        raise ValueError(f"p must be an integer >= 2, got {p!r}")
    if not isinstance(levels, int) or levels < 1:
        raise ValueError(f"levels must be a positive integer, got {levels!r}")
    weights: list[int] = []
    eccs: list[int] = []
    for n in range(1, levels + 1):
        if n == 1:
            a_n = 1
        elif mode == "group":
            a_n = 1 + sum(eccs)
        else:
            top = sorted(eccs)[-2:]
            a_n = 1 + sum(top)
        weights.append(a_n)
        eccs.append(_piece_eccentricity(p, n, a_n, mode))
        if mode != "interval-wedge" and p**n < 2 * (n + 1):
            warnings.warn(
                f"level {n}: the circle has {p**n} points, so its diameter "
                f"{a_n * (p**n // 2)} is at most {n} * a_{n}; the "
                f"single-family step fails at this level",
                SmallCircleWarning, stacklevel=2)
    return WeightSchedule(p, tuple(weights), mode)


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


def group_truncation(p: int, levels: int) -> FiniteMetricSpace:
    """l1 direct sum of the first ``levels`` weighted cyclic groups
    Z_{p^n} under the group-mode schedule."""
    schedule = weight_schedule(p, levels, "group")
    return l1_sum(truncation_factors(schedule), label=f"group({p},{levels})")


def wedge_truncation(p: int, levels: int) -> FiniteMetricSpace:
    """Wedge of the first ``levels`` weighted circles under the
    wedge-mode schedule."""
    schedule = weight_schedule(p, levels, "wedge")
    return wedge(truncation_factors(schedule),
                 label=f"wedgegroup({p},{levels})")


def interval_wedge_truncation(levels: int) -> FiniteMetricSpace:
    """Wedge of weighted discrete intervals under the interval-wedge
    schedule (no circles, p plays no role)."""
    schedule = weight_schedule(2, levels, "interval-wedge")
    return wedge(truncation_factors(schedule), label=f"wedgeintervals({levels})")


# -- distinguished subsets ---------------------------------------------------


def l1_axis_subsets(factors: Sequence[FiniteMetricSpace]) -> list[list[int]]:
    """For an l1 sum of the given factors: the index sets of the axes,
    one per factor (all other coordinates held at their basepoints).
    The axis subspace is isometric to its factor."""
    strides = []
    s = 1
    for f in factors:
        strides.append(s)
        s *= f.size
    base = sum(f.basepoint * strides[i] for i, f in enumerate(factors))
    out = []
    for i, f in enumerate(factors):
        start = base - f.basepoint * strides[i]
        out.append(sorted(start + x * strides[i] for x in range(f.size)))
    return out


def wedge_arm_subsets(factors: Sequence[FiniteMetricSpace]) -> list[list[int]]:
    """For a wedge of the given factors: the index sets of the arms,
    each including the wedge point, one per factor.  The arm subspace is
    isometric to its factor."""
    out = []
    start = 1
    for f in factors:
        out.append([0] + list(range(start, start + f.size - 1)))
        start += f.size - 1
    return out


def witness_subsets(space: FiniteMetricSpace) -> list[list[int]]:
    """Distinguished subsets worth probing when a space is too large for
    the exact search: the factor axes of an l1 sum, the arms of a wedge,
    and none for any other space."""
    if space.structure is None:
        return []
    kind, factors = space.structure
    if kind == "sum":
        return l1_axis_subsets(factors)
    return wedge_arm_subsets(factors)


def l1_prefix_indices(factors: Sequence[FiniteMetricSpace], n: int) -> list[int]:
    """Indices of the sub-sum of the first n factors inside the full l1
    sum (later coordinates at their basepoints).  Contiguous because the
    first factor varies fastest and basepoints sit at index 0 for the
    scheduled factors."""
    strides = []
    s = 1
    for f in factors:
        strides.append(s)
        s *= f.size
    count = 1
    for f in factors[:n]:
        count *= f.size
    tail_base = sum(f.basepoint * strides[i]
                    for i, f in enumerate(factors) if i >= n)
    return [tail_base + x for x in range(count)]


def wedge_prefix_indices(factors: Sequence[FiniteMetricSpace], n: int) -> list[int]:
    """Indices of the wedge of the first n arms inside the full wedge."""
    count = 1 + sum(f.size - 1 for f in factors[:n])
    return list(range(count))


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
    eccs = sorted(max(f.dist(q, f.basepoint) for q in range(f.size))
                  for f in prior)
    best = max(f.diameter() for f in prior)
    if len(eccs) >= 2:
        best = max(best, eccs[-1] + eccs[-2])
    return best


def check_conditions(schedule: WeightSchedule,
                     factors: Optional[Sequence[FiniteMetricSpace]] = None, *,
                     node_budget: int = DEFAULT_NODE_BUDGET) -> ConditionsReport:
    """Verify the structural conditions of a schedule by computation.

    The rise checks run the real feasibility search on each piece, so
    the report reflects the spaces as built, not the intended design.
    """
    if factors is None:
        factors = truncation_factors(schedule)
    if len(factors) != schedule.levels:
        raise ValueError(f"expected {schedule.levels} factors, got {len(factors)}")
    levels = []
    for n in range(1, schedule.levels + 1):
        a_n = schedule.weight(n)
        piece = factors[n - 1]
        discrete_ok = piece.is_lambda_discrete(a_n)
        rises = []
        for c in range(1, n + 1):
            outcome = dim_le(piece, a_n, c * a_n, 0, node_budget=node_budget)
            rises.append((c, outcome.status == INFEASIBLE))
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


def dip_scales(schedule: WeightSchedule) -> list[int]:
    """The separation scales a_n - 1 just under each weight, where the
    assembled space collapses to dimension zero."""
    return [schedule.weight(n) - 1 for n in range(1, schedule.levels + 1)]


def dim_zero_witness(space: FiniteMetricSpace, prefix: Sequence[int],
                     lam: int, control: int) -> ScaledCover:
    """Exhibit dimension zero at (lam, control) with a designated prefix.

    Builds the single-family cover whose clusters are the given prefix
    set plus the lam-components of its complement, validates it, and
    returns it; an invalid cover raises ValueError with the violation.
    The complement scan enumerates points directly, so keep this to
    spaces of moderate size.
    """
    prefix_set = sorted(set(int(p) for p in prefix))
    inside = set(prefix_set)
    complement = [q for q in range(space.size) if q not in inside]
    clusters: list[Sequence[int]] = [prefix_set] if prefix_set else []
    if complement:
        clusters.extend(lambda_components(space, lam, complement).blocks)
    cover = ScaledCover.of(lam, control, [clusters])
    report = validate_cover(space, cover)
    if not report.ok:
        raise ValueError(f"no single-family cover with this prefix: "
                         f"{report.describe()}")
    return cover


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


def _sample_large(space: FiniteMetricSpace, lam: int, control: int,
                  witness_subsets: Sequence[Sequence[int]],
                  cap: int, node_budget: int) -> ProfileSample:
    # Policy for spaces over the size cap: cheap certified bounds only.
    best = 0
    for idx in witness_subsets:
        if len(idx) > cap:
            continue
        sub = subspace(space, idx)
        r = dim_at_scale(sub, lam, control, node_budget=node_budget)
        if r.status == "exact" and r.value > best:
            best = r.value
    if best >= 1:
        return ProfileSample(lam, control, best, "lower-bound")
    r = dim_at_scale(space, lam, control, max_n=1, node_budget=node_budget)
    if r.status == "exact":
        return ProfileSample(lam, control, r.value, "exact")
    if r.lower_bound > 1:
        return ProfileSample(lam, control, 2, "lower-bound")
    return ProfileSample(lam, control, 1, "unknown")


def profile(space: FiniteMetricSpace, c: int, lambdas: Sequence[int], *,
            witness_subsets: Optional[Sequence[Sequence[int]]] = None,
            search_size_cap: int = DEFAULT_SEARCH_SIZE_CAP,
            node_budget: int = DEFAULT_NODE_BUDGET) -> Profile:
    """Measure the dimension of a space at control c*lam over a list of
    separation scales.

    Spaces within the size cap get the exact search.  Larger spaces get
    certified bounds instead: the best exact dimension among the witness
    subspaces (a lower bound, since dimension is monotone under taking
    subspaces), a whole-space component scan to certify zeroes, and a
    single two-family probe.
    """
    if not isinstance(c, int) or c < 1:
        raise ValueError(f"c must be a positive integer, got {c!r}")
    samples = []
    for lam in lambdas:
        control = c * lam
        if space.size <= search_size_cap:
            r = dim_at_scale(space, lam, control, node_budget=node_budget)
            if r.status == "exact":
                samples.append(ProfileSample(lam, control, r.value, "exact"))
            else:
                samples.append(ProfileSample(lam, control, r.lower_bound,
                                             "unknown"))
        else:
            samples.append(_sample_large(space, lam, control,
                                         witness_subsets or [],
                                         search_size_cap, node_budget))
    return Profile(space.label, c, tuple(samples))


def profile_csv(prof: Profile) -> str:
    lines = ["c,lambda,control,dim,status"]
    for s in prof.samples:
        lines.append(f"{prof.c},{s.lam},{s.control},{s.value},{s.status}")
    return "\n".join(lines) + "\n"


def schedule_csv(schedule: WeightSchedule) -> str:
    lines = ["n,a_n"]
    for n in range(1, schedule.levels + 1):
        lines.append(f"{n},{schedule.weight(n)}")
    return "\n".join(lines) + "\n"
