"""Exact dimension-at-scale computation.

The dimension of a finite space at scale (lam, control) is the least n
such that the space admits a valid cover by n+1 families.  A family is
valid when its clusters are pairwise at set distance strictly greater
than lam and each cluster has diameter at most control.

Assigning every point to exactly one family loses no generality
(shrinking a valid cover to a partition keeps it valid), and within a
family the clusters can always be taken to be the lam-components of the
family's point set.  The search is therefore a graph colouring with a
side constraint: colour points with at most n+1 colours so that every
lam-component of every colour class has diameter at most control.  A
depth-first search with exact incremental component tracking decides
feasibility; exhausting the tree is a proof of infeasibility.  A node
budget converts oversized searches into an explicit "unknown" rather
than a wrong answer.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .covers import ScaledCover, validate_cover
from .spaces import (MATRIX_CACHE_LIMIT, FiniteMetricSpace, ScalePair,
                     random_metric_space)

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
UNKNOWN = "unknown"

DEFAULT_NODE_BUDGET = 100_000_000
# Above this size, skip the O(size^2) degree-ordering pass.
_DEGREE_ORDER_LIMIT = 20_000


# -- lam-components ---------------------------------------------------------


@dataclass(frozen=True)
class ComponentPartition:
    """The lam-components of a point set: blocks sorted by least member,
    with the exact diameter of each block."""

    blocks: tuple[tuple[int, ...], ...]
    diameters: tuple[int, ...]

    def max_diameter(self) -> int:
        return max(self.diameters, default=0)


def _exact_diameter(space: FiniteMetricSpace, members: Sequence[int]) -> int:
    if len(members) < 2:
        return 0
    arr = np.asarray(members, dtype=np.intp)
    best = 0
    for p in members:
        m = int(space.dist_row(int(p), arr).max())
        if m > best:
            best = m
    return best


def _components(space: FiniteMetricSpace, lam: int,
                points: Sequence[int]) -> list[list[int]]:
    # Level-synchronous BFS over a mask of the points not yet reached,
    # seeded from the sorted ``points`` in order, so the blocks come out
    # sorted by least member.
    pts = np.asarray(points, dtype=np.intp)
    unvisited = np.ones(pts.size, dtype=bool)
    blocks = []
    for k in range(pts.size):
        if not unvisited[k]:
            continue
        unvisited[k] = False
        seed = int(pts[k])
        members = [seed]
        frontier = [seed]
        while frontier and unvisited.any():
            open_ = np.flatnonzero(unvisited)
            targets = pts[open_]
            hit = np.zeros(open_.size, dtype=bool)
            for i in frontier:
                hit |= space.dist_row(i, targets) <= lam
            reached = open_[hit]
            unvisited[reached] = False
            frontier = pts[reached].tolist()
            members.extend(frontier)
        members.sort()
        blocks.append(members)
    return blocks


def _components_product(factors: Sequence[FiniteMetricSpace],
                        lam: int) -> ComponentPartition:
    # In an l1 sum, a single step of cost <= lam splits into per-factor
    # steps of cost <= lam, so components factor into products of the
    # factors' components, and block diameters add across factors.
    # Varying the last factor's block slowest lists the blocks sorted by
    # least member, as the index is mixed-radix with factor 1 fastest.
    parts = [lambda_components(f, lam) for f in factors]
    strides = []
    s = 1
    for f in factors:
        strides.append(s)
        s *= f.size
    blocks = []
    diams = []
    for combo in itertools.product(*(range(len(p.blocks))
                                     for p in reversed(parts))):
        members = [0]
        diam = 0
        for f, bi in enumerate(reversed(combo)):
            block = parts[f].blocks[bi]
            members = [m + q * strides[f] for q in block for m in members]
            diam += parts[f].diameters[bi]
        members.sort()
        blocks.append(tuple(members))
        diams.append(diam)
    return ComponentPartition(tuple(blocks), tuple(diams))


def _components_wedge(factors: Sequence[FiniteMetricSpace],
                      lam: int) -> ComponentPartition:
    # In a wedge, a step between two arms costs the sum of both ends'
    # distances to the wedge point, so it only joins points already in
    # the wedge point's component of their own arms.  The components are
    # therefore the arms' components, with the blocks holding the
    # basepoint glued into one block around point 0.  Two points of that
    # block in different arms are as far apart as their distances to the
    # wedge point add up to.  Arms occupy increasing index ranges in
    # order, so listing the glued block first, then each arm's other
    # blocks in arm order, keeps the blocks sorted by least member.
    glued = [0]
    glued_diam = 0
    eccs = []
    rest = []
    rest_diams = []
    start = 1
    for f in factors:
        b = f.basepoint
        parts = lambda_components(f, lam)
        for block, diam in zip(parts.blocks, parts.diameters):
            pts = np.asarray(block, dtype=np.intp)
            arm = pts[pts != b]
            mapped = (start + arm - (arm > b)).tolist()
            if arm.size < pts.size:
                glued.extend(mapped)
                glued_diam = max(glued_diam, diam)
                eccs.append(int(f.dist_row(b, pts).max()))
            else:
                rest.append(tuple(mapped))
                rest_diams.append(diam)
        start += f.size - 1
    top = sorted(eccs)[-2:]
    if len(top) == 2:
        glued_diam = max(glued_diam, top[0] + top[1])
    return ComponentPartition((tuple(glued),) + tuple(rest),
                              (glued_diam,) + tuple(rest_diams))


def lambda_components(space: FiniteMetricSpace, lam: int,
                      subset: Optional[Sequence[int]] = None) -> ComponentPartition:
    """Partition a point set into lam-components.

    Two points are in the same component when a chain of single steps,
    each of distance at most lam, connects them inside the set.  With
    subset=None the whole space is partitioned.
    """
    if not isinstance(lam, int) or isinstance(lam, bool) or lam < 0:
        raise ValueError(f"lam must be a nonnegative integer, got {lam!r}")
    if subset is None:
        if space.size == 0:
            return ComponentPartition((), ())
        # Known-discrete spaces split into singletons without any BFS.
        if space._minpos is not None and space._minpos > lam:
            return ComponentPartition(
                tuple((i,) for i in range(space.size)),
                (0,) * space.size)
        if space.structure is not None:
            kind, factors = space.structure
            if kind == "sum":
                return _components_product(factors, lam)
            if kind == "wedge":
                return _components_wedge(factors, lam)
        points = np.arange(space.size)
    else:
        points = sorted(set(int(p) for p in subset))
        if not points:
            return ComponentPartition((), ())
        if points[0] < 0 or points[-1] >= space.size:
            raise ValueError(f"subset index out of range for size {space.size}")
    blocks = _components(space, lam, points)
    return ComponentPartition(
        tuple(tuple(b) for b in blocks),
        tuple(_exact_diameter(space, b) for b in blocks))


def is_valid_color_class(space: FiniteMetricSpace, lam: int, control: int,
                         points: Sequence[int]) -> bool:
    """True when every lam-component of the point set has diameter at
    most control, i.e. the set works as one family of a cover."""
    if not points:
        return True
    parts = lambda_components(space, lam, points)
    return parts.max_diameter() <= control


# -- incremental colour classes ---------------------------------------------


class _Comp:
    __slots__ = ("members", "diam")

    def __init__(self, members: list[int], diam: int):
        self.members = members
        self.diam = diam


class _ColorClass:
    """One colour class of the search: its lam-components with exact
    diameters, maintained incrementally with undo."""

    __slots__ = ("space", "lam", "control", "comps", "next_id")

    def __init__(self, space: FiniteMetricSpace, lam: int, control: int):
        self.space = space
        self.lam = lam
        self.control = control
        self.comps: dict[int, _Comp] = {}
        self.next_id = 0

    def try_insert(self, p: int):
        """Insert point p if the class stays valid; return an undo token
        or None when insertion would push a component over the control."""
        touching = []
        for cid, comp in self.comps.items():
            row = self.space.dist_row(p, comp.members)
            dmin = int(row.min())
            if dmin <= self.lam:
                dmax = int(row.max())
                if dmax > self.control:
                    return None
                touching.append((cid, comp, dmax))
        if not touching:
            cid = self.next_id
            self.next_id += 1
            self.comps[cid] = _Comp([p], 0)
            return ("single", cid)
        diam = max(max(comp.diam for _, comp, _ in touching),
                   max(dmax for _, _, dmax in touching))
        if diam > self.control:
            return None
        if len(touching) > 1:
            # Merging several components: their cross distances become
            # internal, so the exact merged diameter needs the pairwise
            # maxima between the merged member sets as well.
            for a in range(len(touching)):
                for b in range(a + 1, len(touching)):
                    ca = touching[a][1]
                    cb = touching[b][1]
                    arr = np.asarray(cb.members, dtype=np.intp)
                    for q in ca.members:
                        m = int(self.space.dist_row(q, arr).max())
                        if m > diam:
                            diam = m
                    if diam > self.control:
                        return None
        main_cid, main, _ = touching[0]
        old_len = len(main.members)
        old_diam = main.diam
        removed = []
        for cid, comp, _ in touching[1:]:
            main.members.extend(comp.members)
            removed.append((cid, comp))
            del self.comps[cid]
        main.members.append(p)
        main.diam = diam
        return ("merge", main_cid, old_len, old_diam, removed)

    def undo(self, token) -> None:
        if token[0] == "single":
            del self.comps[token[1]]
            return
        _, main_cid, old_len, old_diam, removed = token
        main = self.comps[main_cid]
        del main.members[old_len:]
        main.diam = old_diam
        for cid, comp in removed:
            self.comps[cid] = comp

    def clusters(self) -> list[frozenset]:
        return [frozenset(comp.members) for comp in self.comps.values()]


# -- feasibility search -----------------------------------------------------


@dataclass(frozen=True)
class ExhaustionEvidence:
    """Why a feasibility search answered INFEASIBLE."""

    method: str
    detail: str
    nodes: int


@dataclass(frozen=True)
class SearchOutcome:
    status: str
    certificate: Optional[ScaledCover]
    nodes: int
    evidence: Optional[ExhaustionEvidence] = None


def _search_order(space: FiniteMetricSpace, lam: int) -> list[int]:
    # Densify first where allowed: the degree pass and the search both
    # read every row.
    m = space.size
    if m <= MATRIX_CACHE_LIMIT:
        space.densify()
    if m > _DEGREE_ORDER_LIMIT:
        return list(range(m))
    deg = [0] * m
    for i in range(m):
        deg[i] = int((space.dist_row(i) <= lam).sum()) - 1
    return sorted(range(m), key=lambda i: (-deg[i], i))


def _scan(space: FiniteMetricSpace, lam: int, control: int,
          top: int) -> tuple[ComponentPartition, Optional[list[int]]]:
    # The component partition, and the search order when a search for
    # some n <= top will be needed: n = 0 is settled by the partition
    # alone, and so is every n once one family suffices.
    parts = lambda_components(space, lam)
    order = None
    if top >= 1 and parts.max_diameter() > control:
        order = _search_order(space, lam)
    return parts, order


def _search(space: FiniteMetricSpace, lam: int, control: int, n: int,
            parts: ComponentPartition, order: Optional[list[int]],
            node_budget: int) -> SearchOutcome:
    # dim_le on a precomputed _scan of the space.
    # One family suffices exactly when every lam-component is small
    # enough; this settles n = 0 outright and short-circuits larger n.
    if parts.max_diameter() <= control:
        families: list[list] = [list(parts.blocks)]
        families.extend([] for _ in range(n))
        cover = ScaledCover.of(lam, control, families)
        return SearchOutcome(FEASIBLE, cover, 0)
    if n == 0:
        bad = max(range(len(parts.blocks)), key=lambda b: parts.diameters[b])
        ev = ExhaustionEvidence(
            "component-diameter",
            f"the lam-component containing point {parts.blocks[bad][0]} has "
            f"diameter {parts.diameters[bad]} > {control}",
            0)
        return SearchOutcome(INFEASIBLE, None, 0, ev)

    m = space.size
    kmax = n + 1
    classes = [_ColorClass(space, lam, control) for _ in range(kmax)]
    choice = [-1] * m
    undos: list = [None] * m
    used_before = [0] * m
    used = 0
    nodes = 0
    t = 0
    while 0 <= t < m:
        p = order[t]
        c = choice[t] + 1
        limit = min(used + 1, kmax)
        placed = False
        while c < limit:
            nodes += 1
            if nodes > node_budget:
                return SearchOutcome(UNKNOWN, None, nodes)
            token = classes[c].try_insert(p)
            if token is not None:
                choice[t] = c
                undos[t] = token
                used_before[t] = used
                if c == used:
                    used += 1
                placed = True
                break
            c += 1
        if placed:
            t += 1
        else:
            choice[t] = -1
            t -= 1
            if t >= 0:
                classes[choice[t]].undo(undos[t])
                used = used_before[t]
    if t < 0:
        ev = ExhaustionEvidence(
            "exhaustive-search",
            f"every assignment of {m} points to {kmax} families fails",
            nodes)
        return SearchOutcome(INFEASIBLE, None, nodes, ev)
    cover = ScaledCover.of(lam, control, [cls.clusters() for cls in classes])
    return SearchOutcome(FEASIBLE, cover, nodes)


def dim_le(space: FiniteMetricSpace, lam: int, control: int, n: int, *,
           node_budget: int = DEFAULT_NODE_BUDGET) -> SearchOutcome:
    """Decide whether the space has dimension at most n at (lam, control).

    Returns FEASIBLE with a certificate cover of exactly n+1 families
    (some possibly empty), INFEASIBLE with exhaustion evidence, or
    UNKNOWN when the node budget runs out.  The search is sequential and
    fully deterministic.
    """
    ScalePair(lam, control)
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    parts, order = _scan(space, lam, control, n)
    return _search(space, lam, control, n, parts, order, node_budget)


@dataclass(frozen=True)
class DimResult:
    """Outcome of an exact dimension computation.

    status "exact": value is the dimension, certificate witnesses the
    upper bound, and lower_bound_evidence (absent when value is 0) shows
    value-1 families were impossible.  status "unknown": the node budget
    ran out; value is None and lower_bound is the best proven bound.
    """

    status: str
    value: Optional[int]
    lower_bound: int
    certificate: Optional[ScaledCover]
    lower_bound_evidence: Optional[ExhaustionEvidence]
    nodes: int


def dim_at_scale(space: FiniteMetricSpace, lam: int, control: int, *,
                 node_budget: int = DEFAULT_NODE_BUDGET,
                 max_n: Optional[int] = None) -> DimResult:
    """Exact dimension at (lam, control): least n admitting a valid
    cover by n+1 families.

    Tries n = 0, 1, ... in turn; n = size-1 always succeeds, so the loop
    terminates with an exact value unless the per-call node budget gives
    out first (status "unknown") or max_n cuts the scan short.
    """
    ScalePair(lam, control)
    top = space.size - 1 if max_n is None else min(max_n, space.size - 1)
    top = max(top, 0)
    parts, order = _scan(space, lam, control, top)
    total_nodes = 0
    evidence = None
    n = 0
    while n <= top:
        outcome = _search(space, lam, control, n, parts, order, node_budget)
        total_nodes += outcome.nodes
        if outcome.status == FEASIBLE:
            return DimResult("exact", n, n, outcome.certificate, evidence,
                             total_nodes)
        if outcome.status == UNKNOWN:
            return DimResult("unknown", None, n, None, evidence, total_nodes)
        evidence = outcome.evidence
        n += 1
    return DimResult("unknown", None, top + 1, None, evidence, total_nodes)


# -- independent brute-force oracle -----------------------------------------

_BRUTE_LIMIT = 10


def _brute_family_ok(space: FiniteMetricSpace, lam: int, control: int,
                     points: list[int]) -> bool:
    # Deliberately self-contained: plain BFS components plus a direct
    # diameter sweep, sharing nothing with the search code above.
    left = set(points)
    while left:
        seed = min(left)
        comp = {seed}
        queue = [seed]
        left.discard(seed)
        while queue:
            q = queue.pop()
            for r in list(left):
                if space.dist(q, r) <= lam:
                    left.discard(r)
                    comp.add(r)
                    queue.append(r)
        comp = sorted(comp)
        for a in range(len(comp)):
            for b in range(a + 1, len(comp)):
                if space.dist(comp[a], comp[b]) > control:
                    return False
    return True


def _brute_cover_from_blocks(space: FiniteMetricSpace, lam: int, control: int,
                             blocks: list[list[int]]) -> ScaledCover:
    families = []
    for pts in blocks:
        left = set(pts)
        clusters = []
        while left:
            seed = min(left)
            comp = {seed}
            queue = [seed]
            left.discard(seed)
            while queue:
                q = queue.pop()
                for r in list(left):
                    if space.dist(q, r) <= lam:
                        left.discard(r)
                        comp.add(r)
                        queue.append(r)
            clusters.append(comp)
        families.append(clusters)
    return ScaledCover.of(lam, control, families)


def dim_at_scale_bruteforce(space: FiniteMetricSpace, lam: int,
                            control: int) -> tuple[int, ScaledCover]:
    """Reference dimension by enumerating set partitions of the points
    into families (restricted growth strings, with pruning).  Only for
    spaces of at most 10 points; exists to cross-check dim_at_scale.
    """
    ScalePair(lam, control)
    m = space.size
    if m == 0:
        return 0, ScaledCover.of(lam, control, [[]])
    if m > _BRUTE_LIMIT:
        raise ValueError(f"brute force limited to {_BRUTE_LIMIT} points, "
                         f"got {m}")
    best_b = m
    best_blocks = [[i] for i in range(m)]
    blocks: list[list[int]] = [[0]]

    def extend(i: int) -> None:
        nonlocal best_b, best_blocks
        if i == m:
            if len(blocks) < best_b:
                best_b = len(blocks)
                best_blocks = [list(b) for b in blocks]
            return
        top = len(blocks)
        for label in range(min(top + 1, best_b - 1, m)):
            if label < top:
                blocks[label].append(i)
            else:
                blocks.append([i])
            if _brute_family_ok(space, lam, control, blocks[label]):
                extend(i + 1)
            if label < top:
                blocks[label].pop()
            else:
                blocks.pop()

    extend(1)
    cover = _brute_cover_from_blocks(space, lam, control, best_blocks)
    report = validate_cover(space, cover)
    if not report.ok:
        raise AssertionError(f"brute-force cover failed validation: "
                             f"{report.describe()}")
    return best_b - 1, cover


# -- consistency checking between solver and oracle --------------------------


@dataclass(frozen=True)
class OracleMismatch:
    seed: int
    case: int
    size: int
    lam: int
    control: int
    solver_value: Optional[int]
    brute_value: int


@dataclass(frozen=True)
class OracleReport:
    cases: int
    checks: int
    mismatches: tuple[OracleMismatch, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def oracle_check(*, seed: int = 0, cases: int = 100, size_max: int = 7,
                 grid: int = 4) -> OracleReport:
    """Compare dim_at_scale with the brute-force oracle on seeded random
    spaces over a grid of scales drawn from each space's distances."""
    if size_max > _BRUTE_LIMIT:
        raise ValueError(f"size_max must be at most {_BRUTE_LIMIT}")
    rng = random.Random(seed)
    checks = 0
    mismatches = []
    for case in range(cases):
        size = rng.randint(2, size_max)
        space = random_metric_space(size, rng)
        dists = sorted({int(space.dist(i, j)) for i in range(size)
                        for j in range(i + 1, size)})
        pool = [0] + dists
        lams = [pool[(k * (len(pool) - 1)) // max(grid - 1, 1)]
                for k in range(grid)]
        controls = [pool[(k * (len(pool) - 1)) // max(grid - 1, 1)]
                    for k in range(grid)]
        for lam in lams:
            for control in controls:
                fast = dim_at_scale(space, lam, control)
                brute_value, _ = dim_at_scale_bruteforce(space, lam, control)
                checks += 1
                if fast.status != "exact" or fast.value != brute_value:
                    mismatches.append(OracleMismatch(
                        seed, case, size, lam, control, fast.value,
                        brute_value))
    return OracleReport(cases, checks, tuple(mismatches))


# -- lifting covers through l1 sums ------------------------------------------


def lift_product_cover(spaces: Sequence[FiniteMetricSpace], k: int,
                       cover_on_k: ScaledCover, *,
                       size_cap: int = 10**6) -> ScaledCover:
    """Lift a valid cover of factor k (1-based) to the full l1 sum.

    Each cluster C of factor k becomes one cluster per choice of the
    coordinates after k: all points whose k-th coordinate lies in C,
    whose trailing coordinates equal that fixed choice, and whose
    leading coordinates are arbitrary.  The family structure is kept.

    This preserves validity at scale (lam, prefix + control) where
    prefix is the summed diameter of the factors before k: two lifted
    clusters in one family differ either in the trailing coordinates
    (distance at least the minimum positive distance of some later
    factor) or project to distinct clusters of the factor-k family
    (distance strictly over lam).  The later factors must therefore all
    be lam-discrete with no pair at distance exactly lam; a factor
    violating that strict bound raises ValueError naming it.
    """
    spaces = list(spaces)
    if not (1 <= k <= len(spaces)):
        raise ValueError(f"factor index k={k} out of range 1..{len(spaces)}")
    factor = spaces[k - 1]
    lam = cover_on_k.scale.lam
    control = cover_on_k.scale.control
    report = validate_cover(factor, cover_on_k)
    if not report.ok:
        raise ValueError(f"cover is not valid on factor {k} "
                         f"({factor.label}): {report.describe()}")
    for j in range(k, len(spaces)):
        sp = spaces[j]
        if sp.size >= 2 and sp.min_positive_distance() <= lam:
            raise ValueError(
                f"factor {j + 1} ({sp.label}) has two points at distance "
                f"{sp.min_positive_distance()} <= lam={lam}; lifting needs "
                f"every later factor strictly lam-separated")
    total = 1
    for sp in spaces:
        total *= sp.size
    if total > size_cap:
        raise ValueError(f"lifted cover would list {total} points, over the "
                         f"cap {size_cap}")

    prefix_count = 1
    for sp in spaces[:k - 1]:
        prefix_count *= sp.size
    prefix_diam = sum(sp.diameter() for sp in spaces[:k - 1])
    k_stride = prefix_count * factor.size
    tail_sizes = [sp.size for sp in spaces[k:]]
    tail_count = 1
    for s in tail_sizes:
        tail_count *= s

    def tail_offset(u: int) -> int:
        off = 0
        stride = k_stride
        for s in tail_sizes:
            off += (u % s) * stride
            stride *= s
            u //= s
        return off

    families = []
    for fam in cover_on_k.families:
        lifted = []
        for cl in fam:
            pts = sorted(cl)
            for u in range(tail_count):
                off = tail_offset(u)
                lifted.append([off + x * prefix_count + pre
                               for x in pts for pre in range(prefix_count)])
        families.append(lifted)
    return ScaledCover.of(lam, prefix_diam + control, families)
