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

The search visits points in decreasing order of their number of
lam-neighbours.  The pass that counts them reads the distances once,
block by block, and keeps each point's row: its lam-neighbours and its
control ball, the points within control of it, each as an int bitmask.
Each colour class keeps the bitmask of its points, a list naming the
component that holds each point, and per component a bitmask of its
members, its ``reach``, the AND of their balls, and its ``touch``, the
members and the OR of their neighbour masks.  Inserting a point ANDs
its neighbour mask with the class's and peels the result one touched
component at a time: the lowest bit names a component, whose member mask
then clears it.  The point may join the components it touches exactly
when it lies in each one's reach, one bit test, and on a merge when each
smaller component's mask lies in the reach merged so far, one AND per
component.  So an insert costs a few integer operations per touched
component and no numpy call.  Rows hold only d(p, .), so both tests
take the distances as symmetric, as forward checking does.  The search
reads distances only to re-read rows it could not keep.

At its first backtrack the search starts forward checking: each class
keeps the points it blocks, the OR of ``touch & ~reach`` over its
components.
Lemma: a point q blocked in a class cannot join it.  Such a q is within
lam of some member x of a component K and farther than control from
some member y; joining, q would share a lam-component with x, hence
with y, and that component's diameter would pass the control.  Classes
only grow as the search descends, so the blocked sets only grow, and
an undo restores them.  The search therefore skips blocked classes,
refuses an insert that leaves some unplaced point blocked in every
class (no class being empty then), and visits next the least unplaced
point blocked in all classes but one, or else the next point of the
degree order.  Until the first backtrack it runs without the blocked
masks, so a search that never backtracks pays nothing for them.

Restricted growth (a point may open only the least empty class) stays
complete under this state-dependent order.  Take any valid colouring
chi with at most n+1 colours.  Along one branch, the placed points are
coloured as chi up to a renaming of its colours in order of first use:
the next point, whichever the state picks, gets either a colour already
used, which the search tries, or a new one, which it renames to the
least empty class.  Each partial colouring on that branch is a
restriction of a renamed chi, so it is valid, and by the lemma no
unplaced point is blocked in the class chi gives it, which is never
skipped and leaves no point blocked everywhere.  So the search reaches
a full colouring unless an earlier branch did.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .covers import ScaledCover, validate_cover
from .spaces import (DEFAULT_PRODUCT_CAP, FiniteMetricSpace, ScalePair,
                     _check_nonnegative, l1_blocks, random_metric_space,
                     wedge_points)

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
UNKNOWN = "unknown"

DEFAULT_NODE_BUDGET = 100_000_000
# Above this size, skip the O(size^2) degree-ordering pass.
_DEGREE_ORDER_LIMIT = 20_000
# oracle_check tries this many lams and as many controls per space.
ORACLE_GRID = 4


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
    return max(int(block.max()) for _, block in space.row_blocks(arr, arr))


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
        frontier = pts[k:k + 1]
        members = [int(pts[k])]
        while frontier.size and unvisited.any():
            open_ = np.flatnonzero(unvisited)
            hit = np.zeros(open_.size, dtype=bool)
            for _, block in space.row_blocks(frontier, pts[open_]):
                hit |= (block <= lam).any(axis=0)
            reached = open_[hit]
            unvisited[reached] = False
            frontier = pts[reached]
            members.extend(frontier.tolist())
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
    blocks = l1_blocks(factors, [p.blocks for p in parts])
    diams = itertools.product(*(p.diameters for p in reversed(parts)))
    return ComponentPartition(tuple(map(tuple, blocks)),
                              tuple(map(sum, diams)))


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
    for f, g in enumerate(factors):
        parts = lambda_components(g, lam)
        for block, diam in zip(parts.blocks, parts.diameters):
            mapped = wedge_points(factors, f, block)
            if mapped[0] == 0:
                glued.extend(mapped[1:])
                glued_diam = max(glued_diam, diam)
                eccs.append(int(g.dist_row(g.basepoint, block).max()))
            else:
                rest.append(tuple(mapped))
                rest_diams.append(diam)
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
    _check_nonnegative("lam", lam)
    if subset is None:
        if space.size == 0:
            return ComponentPartition((), ())
        # Known-discrete spaces split into singletons without any BFS,
        # and spaces known to be connected at lam form one block.
        minpos = space.known_min_positive
        if minpos is not None and minpos > lam:
            return ComponentPartition(
                tuple((i,) for i in range(space.size)),
                (0,) * space.size)
        step = space.known_chain_step
        if step is not None and step <= lam:
            return ComponentPartition((tuple(range(space.size)),),
                                      (space.diameter(),))
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


# -- incremental colour classes ---------------------------------------------

# Row words kept in memory by one search, counting each 64-bit word of a
# near mask and of a ball; past this, a point's row is read again at
# each visit.
_NEIGHBOUR_LIMIT = 1 << 22


class _Neighbours:
    """Each point's row ``(nlo, near, blo, ball)``: its lam-neighbours
    other than itself as the bitmask ``near``, whose bit k stands for
    point nlo + k, nlo being the least neighbour (the point itself when
    it has none); and its control ball, the points within control of it,
    as the bitmask ``ball`` relative to its least point blo.  So a mask
    is as wide as the index span of its points, not as the space.

    Rows are kept while their masks hold at most _NEIGHBOUR_LIMIT words
    in all, so a dense lam-graph on many points costs rereads rather
    than memory; a row not kept is read again on each use.
    """

    __slots__ = ("space", "lam", "control", "rows", "kept")

    def __init__(self, space: FiniteMetricSpace, lam: int, control: int):
        self.space = space
        self.lam = lam
        self.control = control
        self.rows: list[Optional[tuple]] = [None] * space.size
        self.kept = 0

    def __call__(self, p: int) -> tuple:
        row = self.rows[p]
        if row is None:
            row = self.read(p, self.space.dist_row(p)[None])[0]
        return row

    def read(self, start: int, block: np.ndarray) -> list[tuple]:
        """The rows of points start, start + 1, ... from their block of
        distances to every point, keeping those that fit."""
        near = block <= self.lam
        np.fill_diagonal(near[:, start:], False)
        ball = block <= self.control
        nlos = near.argmax(axis=1).tolist()
        blos = ball.argmax(axis=1).tolist()
        nbuf = np.packbits(near, axis=1, bitorder="little").tobytes()
        bbuf = np.packbits(ball, axis=1, bitorder="little").tobytes()
        width = len(nbuf) // len(block)
        out = []
        for r, (nlo, blo) in enumerate(zip(nlos, blos)):
            end = (r + 1) * width
            near_r = int.from_bytes(nbuf[r * width + (nlo >> 3):end],
                                    "little") >> (nlo & 7)
            if not near_r:
                nlo = start + r
            ball_r = int.from_bytes(bbuf[r * width + (blo >> 3):end],
                                    "little") >> (blo & 7)
            row = (nlo, near_r, blo, ball_r)
            out.append(row)
            cost = (near_r.bit_length() + 63) // 64 + \
                (ball_r.bit_length() + 63) // 64
            if self.kept + cost <= _NEIGHBOUR_LIMIT:
                self.rows[start + r] = row
                self.kept += cost
        return out


def _union(lo: int, bits: int, lo2: int, bits2: int) -> tuple[int, int]:
    # The union of two bitmasks, each relative to its least point.
    if lo2 < lo:
        return lo2, bits2 | (bits << (lo - lo2))
    return lo, bits | (bits2 << (lo2 - lo))


def _meet(lo: int, bits: int, lo2: int, bits2: int) -> tuple[int, int]:
    # The intersection of two bitmasks, each relative to its lo.
    if lo2 > lo:
        return lo2, (bits >> (lo2 - lo)) & bits2
    return lo, bits & (bits2 >> (lo - lo2))


class _ColorClass:
    """One colour class of the search: its lam-components, maintained
    incrementally with undo.

    ``mask`` has bit q set when q is in the class, and ``owner[q]`` is
    then the id of the component holding q, one of its points.  ``comps``
    maps ids to ``[lo, bits, rlo, reach, tlo, touch, members]``: the
    member bitmask relative to the least member lo, as in a ball; the
    reach, the AND of the members' balls, relative to rlo; the touch
    mask, the members and the OR of their near masks, relative to tlo;
    and the member list.  Every component has diameter at most the
    control, so a point may join the components it touches exactly when
    it lies in the reach of each and, on a merge, each lies in the reach
    of the others.
    """

    __slots__ = ("owner", "mask", "comps")

    def __init__(self, size: int):
        self.owner = [-1] * size
        self.mask = 0
        self.comps: dict[int, list] = {}

    def try_insert(self, p: int, row: tuple):
        """Insert point p, whose row is ``row``, if the class stays
        valid; return an undo token, or None when insertion would push a
        component over the control.  A refused insert changes nothing."""
        nlo, near, blo, ball = row
        comps, owner = self.comps, self.owner
        hit = (self.mask >> nlo) & near
        if not hit:
            owner[p] = p
            self.mask |= 1 << p
            comps[p] = [p, 1, blo, ball, *_union(nlo, near, p, 1), [p]]
            return (p, p, (), None)
        # Peel the touched components off hit, least neighbour first: the
        # lowest bit names one, and its member mask clears it from hit.
        touched = []
        while hit:
            c = owner[nlo + (hit & -hit).bit_length() - 1]
            lo, bits, rlo, reach, _, _, _ = comps[c]
            if p < rlo or not reach >> (p - rlo) & 1:
                return None
            touched.append(c)
            hit &= ~(bits << (lo - nlo) if lo >= nlo else bits >> (nlo - lo))
        main = (c if len(touched) == 1 else
                max(touched, key=lambda c: len(comps[c][6])))
        comp = comps[main]
        lo, bits, rlo, reach, tlo, touch, big = comp
        old = (lo, bits, rlo, reach, tlo, touch, len(big))
        touched.remove(main)
        # On a merge the cross distances become internal: each smaller
        # component must lie in the reach merged so far, which starts as
        # the largest one's.
        for c in touched:
            clo, cbits, crlo, creach, ctlo, ctouch, _ = comps[c]
            if clo < rlo or (reach >> (clo - rlo)) & cbits != cbits:
                return None
            lo, bits = _union(lo, bits, clo, cbits)
            rlo, reach = _meet(rlo, reach, crlo, creach)
            tlo, touch = _union(tlo, touch, ctlo, ctouch)
        moved = tuple((c, comps.pop(c)) for c in touched) if touched else ()
        token = (p, main, moved, old)
        for c, other in moved:
            big.extend(other[6])
            for q in other[6]:
                owner[q] = main
        comp[0], comp[1] = _union(lo, bits, p, 1)
        comp[2], comp[3] = _meet(rlo, reach, blo, ball)
        comp[4], comp[5] = _union(tlo, touch, nlo, near)
        big.append(p)
        owner[p] = main
        self.mask |= 1 << p
        return token

    def undo(self, token) -> None:
        # The grown component gets its saved fields back and drops the
        # members it gained; the components it absorbed come back from
        # the token as they were.
        p, main, moved, old = token
        owner, comps = self.owner, self.comps
        owner[p] = -1
        self.mask ^= 1 << p
        if old is None:
            del comps[main]
            return
        comp = comps[main]
        comp[:6] = old[:6]
        del comp[6][old[6]:]
        for c, other in moved:
            comps[c] = other
            for q in other[6]:
                owner[q] = c

    def clusters(self) -> list[frozenset]:
        return [frozenset(comp[6]) for comp in self.comps.values()]


class _Forward:
    """Forward-checking state of a search, built at its first backtrack.

    ``blocked[c]`` has bit q set when q is in the touch mask of some
    component of ``classes[c]`` and not in its reach, and ``free`` has
    the bits of the unplaced points; both count from point 0.
    ``forced`` holds the unplaced points blocked in all classes but one
    after the last insert, and ``cursor[t]`` the position in the degree
    order before which every point was placed when depth t chose.
    """

    __slots__ = ("order", "classes", "blocked", "free", "forced", "saved",
                 "cursor")

    def __init__(self, classes: list[_ColorClass], order: list[int]):
        m = len(order)
        self.order = order
        self.classes = classes
        self.blocked = [0] * len(classes)
        self.free = (1 << m) - 1
        self.forced = 0
        self.saved: list = [None] * m
        self.cursor = list(range(m))

    def grow(self, t: int, c: int, token) -> int:
        """Record the insert at depth t into class c, whose undo token
        is ``token``; return the unplaced points it leaves blocked in
        every class."""
        p, main = token[0], token[1]
        _, _, rlo, reach, tlo, touch, _ = self.classes[c].comps[main]
        blocked = self.blocked
        self.saved[t] = (c, p, blocked[c])
        blocked[c] |= (touch << tlo) & ~(reach << rlo)
        self.free ^= 1 << p
        every = self.free
        forced = 0
        for b in blocked:
            forced = (forced & b) | (every & ~b)
            every &= b
        self.forced = forced
        return every

    def undo(self, t: int) -> None:
        c, p, old = self.saved[t]
        self.blocked[c] = old
        self.free |= 1 << p

    def next_point(self, t: int) -> int:
        # The least forced point, else the first unplaced one in the
        # degree order.
        order, free, i = self.order, self.free, self.cursor[t - 1]
        while not free >> order[i] & 1:
            i += 1
        self.cursor[t] = i
        forced = self.forced
        return (forced & -forced).bit_length() - 1 if forced else order[i]


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


def _search_order(space: FiniteMetricSpace, lam: int,
                  control: int) -> tuple[list[int], _Neighbours]:
    # The search order, most lam-neighbours first, and the row table,
    # which the ordering pass fills block by block.  Above
    # _DEGREE_ORDER_LIMIT the order is the index order and rows are read
    # as the search visits.
    m = space.size
    rows = _Neighbours(space, lam, control)
    if m > _DEGREE_ORDER_LIMIT:
        return list(range(m)), rows
    deg = [row[1].bit_count() for start, block in space.row_blocks()
           for row in rows.read(start, block)]
    # A reversed sort is still stable: ties stay in index order.
    return sorted(range(m), key=deg.__getitem__, reverse=True), rows


def _scan(space: FiniteMetricSpace, lam: int, control: int,
          top: int) -> tuple[ComponentPartition, Optional[tuple]]:
    # The component partition, and the _search_order when a search for
    # some n <= top will be needed: n = 0 is settled by the partition
    # alone, and so is every n once one family suffices.
    parts = lambda_components(space, lam)
    order = None
    if top >= 1 and parts.max_diameter() > control:
        order = _search_order(space, lam, control)
    return parts, order


def _search(space: FiniteMetricSpace, lam: int, control: int, n: int,
            parts: ComponentPartition, order: Optional[tuple],
            node_budget: int) -> SearchOutcome:
    # dim_le on a precomputed _scan of the space.
    # One family suffices exactly when every lam-component is small
    # enough; this settles n = 0 outright and short-circuits larger n.
    if parts.max_diameter() <= control:
        families: list = [map(frozenset, parts.blocks)]
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
    points, rows = order
    classes = [_ColorClass(m) for _ in range(kmax)]
    # The point at each depth: the degree order until forward checking
    # starts, which then picks each next point.
    at = points
    fc: Optional[_Forward] = None
    choice = [-1] * m
    undos: list = [None] * m
    used_before = [0] * m
    used = 0
    nodes = 0
    t = 0
    while 0 <= t < m:
        p = at[t]
        row = rows(p)
        c = choice[t] + 1
        limit = min(used + 1, kmax)
        placed = False
        while c < limit:
            if fc is not None and fc.blocked[c] >> p & 1:
                c += 1
                continue
            nodes += 1
            if nodes > node_budget:
                return SearchOutcome(UNKNOWN, None, nodes)
            token = classes[c].try_insert(p, row)
            if token is not None:
                if fc is not None and fc.grow(t, c, token):
                    fc.undo(t)
                    classes[c].undo(token)
                    c += 1
                    continue
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
            if fc is not None and t < m:
                at[t] = fc.next_point(t)
        else:
            choice[t] = -1
            if fc is None:
                # The first backtrack: take the placed points out and
                # place them again, so that each insert is recorded
                # with the reach and touch it had at its depth.
                for d in reversed(range(t)):
                    classes[choice[d]].undo(undos[d])
                at = list(points)
                fc = _Forward(classes, points)
                for d in range(t):
                    undos[d] = classes[choice[d]].try_insert(at[d],
                                                             rows(at[d]))
                    fc.grow(d, choice[d], undos[d])
            t -= 1
            if t >= 0:
                classes[choice[t]].undo(undos[t])
                fc.undo(t)
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
    _check_nonnegative("n", n)
    parts, order = _scan(space, lam, control, n)
    return _search(space, lam, control, n, parts, order, node_budget)


@dataclass(frozen=True)
class DimResult:
    """Outcome of an exact dimension computation.

    status "exact": value is the dimension, certificate witnesses the
    upper bound, and lower_bound_evidence (absent when value is 0) shows
    value-1 families were impossible.  status "lower-bound": max_n ended
    the scan; every n <= max_n was refuted, so value is None, lower_bound
    is max_n + 1 and lower_bound_evidence refutes n = max_n.  status
    "unknown": the node budget ran out; value is None and lower_bound is
    the best proven bound.
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
    out first (status "unknown") or max_n cuts the scan short (status
    "lower-bound").
    """
    ScalePair(lam, control)
    top = max(space.size - 1, 0)
    if max_n is not None:
        _check_nonnegative("max_n", max_n)
        top = min(top, max_n)
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
    return DimResult("lower-bound", None, top + 1, None, evidence, total_nodes)


# -- independent brute-force oracle -----------------------------------------

_BRUTE_LIMIT = 10


def _brute_components(space: FiniteMetricSpace, lam: int,
                      points: list[int]) -> list[list[int]]:
    # Deliberately self-contained, as is the diameter sweep below: plain
    # BFS over the scalar oracle, sharing nothing with the search code.
    left = set(points)
    comps = []
    while left:
        seed = min(left)
        comp = [seed]
        queue = [seed]
        left.discard(seed)
        while queue:
            q = queue.pop()
            for r in list(left):
                if space.dist(q, r) <= lam:
                    left.discard(r)
                    comp.append(r)
                    queue.append(r)
        comps.append(comp)
    return comps


def _brute_family_ok(space: FiniteMetricSpace, lam: int, control: int,
                     points: list[int]) -> bool:
    return all(space.dist(a, b) <= control
               for comp in _brute_components(space, lam, points)
               for a, b in itertools.combinations(comp, 2))


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
    cover = ScaledCover.of(lam, control, [_brute_components(space, lam, b)
                                          for b in best_blocks])
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


def oracle_check(*, seed: int = 0, cases: int = 100,
                 size_max: int = 7) -> OracleReport:
    """Compare dim_at_scale with the brute-force oracle on seeded random
    spaces over an ORACLE_GRID x ORACLE_GRID grid of scales drawn from
    each space's distances."""
    if cases < 1:
        raise ValueError(f"cases must be positive, got {cases}")
    if not 2 <= size_max <= _BRUTE_LIMIT:
        raise ValueError(f"size_max must be between 2 and {_BRUTE_LIMIT}, "
                         f"got {size_max}")
    rng = random.Random(seed)
    checks = 0
    mismatches = []
    for case in range(cases):
        size = rng.randint(2, size_max)
        space = random_metric_space(size, rng)
        dists = sorted({int(space.dist(i, j)) for i in range(size)
                        for j in range(i + 1, size)})
        pool = [0] + dists
        scales = [pool[(k * (len(pool) - 1)) // (ORACLE_GRID - 1)]
                  for k in range(ORACLE_GRID)]
        for lam in scales:
            for control in scales:
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
                       cover_on_k: ScaledCover) -> ScaledCover:
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
    if total > DEFAULT_PRODUCT_CAP:
        raise ValueError(f"lifted cover would list {total} points, over the "
                         f"cap {DEFAULT_PRODUCT_CAP}")

    prefix_diam = sum(sp.diameter() for sp in spaces[:k - 1])
    # Leading coordinates arbitrary, trailing ones fixed one by one.
    choices = ([[range(sp.size)] for sp in spaces[:k - 1]] + [None]
               + [[[q] for q in range(sp.size)] for sp in spaces[k:]])
    families = []
    for fam in cover_on_k.families:
        lifted = []
        for cl in fam:
            choices[k - 1] = [sorted(cl)]
            lifted.extend(l1_blocks(spaces, choices))
        families.append(lifted)
    return ScaledCover.of(lam, prefix_diam + control, families)
