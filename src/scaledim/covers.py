"""Scaled covers and their validation.

A scaled cover of a space at scale (lam, control) is a list of
families; each family is a set of clusters (point sets).  A cover is
valid when every point lies in some cluster, distinct clusters of the
same family sit at set distance strictly greater than lam, and each
cluster has diameter at most control.  The dimension at a scale is one
less than the fewest families of any valid cover, so the validator here
is the ground truth the search code is checked against: it recomputes
every condition from raw distances and shares no logic with the solver.

On a space whose metric is guaranteed (``metric_guaranteed``), the
triangle inequality settles most of the work from one row out of each
cluster's first point p, its pivot.  For x, x' in a cluster C and y in
another cluster,

    d(x, y) >= d(p, y) - d(p, x)      and      d(x, x') <= d(x, p) + d(p, x'),

so with the pivot's reach r = max d(p, C), C is more than lam from C'
when min d(p, C') - r > lam, and C is within the control when 2r is at
most it.  One ``row_blocks`` scan reads the pivots against their
clusters laid end to end; ``np.minimum.reduceat`` over the cluster
offsets gives each pivot's least distance to every cluster, and
``np.maximum.reduceat`` over its own cluster its reach.

An l1 distance splits across the factors, so for clusters A and B of a
sum, with proj_f(A) the coordinates of A's points in factor f,

    min d(A x B) >= sum_f min d_f(proj_f A x proj_f B),
    max d(A x A) <= sum_f max d_f(proj_f A x proj_f A),

with equality when A and B are the products of their projections: the
product hull.  It needs no triangle inequality, so it serves sums of
hand-built oracles too.

A family of an l1 sum takes the hull of every check from per-factor
tables.  Each factor is read once, each distinct projection against
U_f, the union of the projections, block by block; each projection's
least distances to U_f, gathered at each projection's points, give
every pair of projections its least factor distance, and its own
columns its diameter.  The pair bounds are summed over the factors in
blocks of cluster rows.  On product clusters the tables are exact, so
they settle every check that holds and no distance of the sum is read;
what they leave open goes straight to the exhaustive scan, which on a
sum is cheap for a few checks (below).  On a guaranteed metric the
tables are refused when they would read more factor entries than the
family's pivot scan, which then bounds the family alone.  For n
clusters holding N points in all, that scan reads n * N entries of the
sum, each of them one entry of each of the F factors, so the tables
are refused when

    sum_f sum_c |proj_f c| * |U_f| > F * n * N.

Both 1,250-cluster families of the ``dim`` certificate of
sum(circle(2500,1),interval(1,3)) at (1, 2) take the tables; the one
family of sum(circle(3000,1),interval(1,3)) at (1, 3000), two
3,000-point clusters, is refused them and takes the pivot scan alone.
On a space whose metric is not guaranteed no pivot scan runs, so the
tables are always taken; a factor served by a bare oracle is read
through its reader, a call per distance.  The pivot scan alone serves
wedges, ``sub`` spaces and matrices, and on hand-built oracles and
matrices too large to check exhaustively no bound but the hull applies.

What the bounds leave open is scanned exhaustively, block by block;
only that scan reports violations, and it keeps the first extreme pair
in point order whatever the blocks, so a report does not depend on
which pairs the bounds settled.  On an l1 sum the scan cuts its rows
and columns into runs of one last-factor digit, the slowest, so a
sorted cluster has one run per digit.  Between runs of digits u and v,

    d_last(u, v) <= d(x, y) <= d_last(u, v) + sum_{f<last} diam_f,

so the scan reads the run pairs best bound first, from one read of the
last factor's table, and stops at a bound strictly worse than the best
value read; a run pair whose bound ties it is still read.  A cluster's
diameter reads only the run pairs (u, v) with u <= v on a metric, which
is symmetric.  When the plain scan is one block, or has fewer blocks
than run pairs, or there is one run pair, the plain scan runs.  A point
moved between two product clusters of a certify job leaves about 1,500
of their 1.06 million distances to read.  Wedges keep the plain scan.

``validate_cover`` always recomputes, and records on the space the last
cover it passed whose families are tuples of frozenset tuples, as
``ScaledCover.of`` builds them; ``shrink_to_partition`` validates
only a cover that is not it, and gives a partition back on its own
clusters.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from . import spaces
from .spaces import FiniteMetricSpace, ScalePair

CERTIFICATE_HEADER = "scaled-cover 1"
MAX_VIOLATIONS = 16  # validate_cover reports at most this many


@dataclass(frozen=True)
class ScaledCover:
    """An immutable cover: families of clusters at a fixed scale."""

    scale: ScalePair
    families: tuple[tuple[frozenset, ...], ...]

    @staticmethod
    def of(lam: int, control: int,
           families: Iterable[Iterable[Iterable[int]]]) -> "ScaledCover":
        """The cover with each family's clusters ordered by their least
        point.  A nonempty frozenset cluster is taken as given, so it
        should hold Python ints; any other iterable is frozen with
        ``frozenset(map(int, ...))``."""
        norm = []
        for fam in families:
            clusters = []
            for cluster in fam:
                cl = (cluster if isinstance(cluster, frozenset)
                      else frozenset(map(int, cluster)))
                if not cl:
                    raise ValueError("clusters must be nonempty")
                clusters.append(cl)
            clusters.sort(key=min)
            norm.append(tuple(clusters))
        return ScaledCover(ScalePair(lam, control), tuple(norm))

    def point_count(self) -> int:
        return len({p for fam in self.families for cl in fam for p in cl})


@dataclass(frozen=True)
class Violation:
    """One broken cover condition with a concrete witness.

    kind is one of "uncovered-point", "family-separation", or
    "cluster-diameter".  witness identifies the offending points or
    clusters; value is the measured distance or diameter.
    """

    kind: str
    witness: tuple
    value: int

    def describe(self) -> str:
        if self.kind == "uncovered-point":
            return f"point {self.witness[0]} is in no cluster"
        if self.kind == "family-separation":
            f, c1, c2, p, q = self.witness
            return (f"family {f}: clusters {c1} and {c2} are {self.value} "
                    f"apart at points ({p},{q}), need strictly more than lam")
        f, c, p, q = self.witness
        return (f"family {f} cluster {c}: points ({p},{q}) are {self.value} "
                f"apart, over the control")


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def describe(self) -> str:
        if self.ok:
            return "valid cover"
        return "; ".join(v.describe() for v in self.violations)


def _cluster_arrays(fam: Sequence[frozenset], size: int) -> list[np.ndarray]:
    """Each cluster as its sorted index array.  An empty cluster or a
    point outside 0..size-1 is a usage error."""
    arrays = []
    for cl in fam:
        if not cl:
            raise ValueError("clusters must be nonempty")
        try:
            pts = np.fromiter(cl, np.intp, len(cl))
        except OverflowError:  # a point past any index is out of range
            pts = np.array([-1], dtype=np.intp)
        pts.sort()
        if pts[0] < 0 or pts[-1] >= size:
            bad = min(p for p in cl if not 0 <= p < size)
            raise ValueError(f"cover point {bad} out of range for size {size}")
        arrays.append(pts)
    return arrays


def _open_checks(space: FiniteMetricSpace, arrays: Sequence[np.ndarray],
                 lam: int, control: int
                 ) -> tuple[Iterable[tuple[int, int]], Iterable[int]]:
    """The cluster pairs (c1, c2), c1 < c2, and the clusters of one
    family that the pivot bounds leave open, in (c1, c2) and c order:
    every one of them when the metric is not guaranteed.  One scan reads
    each cluster's pivot (its first point) against the whole family; a
    pair is open when the least distance from c1's pivot to c2, less the
    pivot's reach (its largest distance into c1), is at most lam, and a
    cluster when twice its pivot's reach is over the control."""
    n = len(arrays)
    if not space.metric_guaranteed or not n:
        return itertools.combinations(range(n), 2), range(n)
    sizes = [len(pts) for pts in arrays]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    bounds = offsets.tolist()
    # Entry k of the clusters laid end to end lies in cluster owner[k].
    owner = np.repeat(np.arange(n), sizes)
    reach = np.empty(n, dtype=np.int64)
    pairs = []
    for start, block in space.row_blocks([pts[0] for pts in arrays],
                                         np.concatenate(arrays)):
        stop = start + len(block)
        lo, hi = bounds[start], bounds[stop]
        own = block[owner[lo:hi] - start, np.arange(lo, hi)]
        reach[start:stop] = np.maximum.reduceat(own, offsets[start:stop] - lo)
        gap = (np.minimum.reduceat(block, offsets[:-1], axis=1)
               - reach[start:stop, None])
        i, c2 = np.nonzero(gap <= lam)
        keep = c2 > start + i
        pairs += zip((start + i[keep]).tolist(), c2[keep].tolist())
    return pairs, np.flatnonzero(2 * reach > control).tolist()


def _open_family(space: FiniteMetricSpace, arrays: Sequence[np.ndarray],
                 lam: int, control: int
                 ) -> tuple[Iterable[tuple[int, int]], Iterable[int]]:
    """The cluster pairs (c1, c2), c1 < c2, and the clusters of one
    family that no bound settles, in (c1, c2) and c order.  One bound
    serves a family: on an l1 sum the hull tables' open checks, unless
    ``_hull_tables`` refuses the family; otherwise the pivot bounds'."""
    if space.structure is None or space.structure[0] != "sum" or not arrays:
        return _open_checks(space, arrays, lam, control)
    factors = space.structure[1]
    # Each entry of the sum the pivot scan reads is one entry of each
    # factor; with no pivot scan the tables are not weighed against it.
    budget = (len(factors) * len(arrays) * sum(len(pts) for pts in arrays)
              if space.metric_guaranteed else None)
    tables = _hull_tables(factors, _projections(factors, arrays), budget)
    if tables is None:
        return _open_checks(space, arrays, lam, control)
    return _table_open(tables, len(arrays), lam, control)


def _hull_tables(factors: Sequence[FiniteMetricSpace],
                 proj: Sequence[tuple[np.ndarray, np.ndarray]],
                 budget: Optional[int]
                 ) -> Optional[list[tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """The product-hull tables of a family of an l1 sum, per factor:
    each cluster's class (clusters with equal projections on the factor
    share one), a classes x classes table of the least factor distance
    from one class's projection (rows) to another's (columns), and each
    class's projection diameter.  Summed over the factors, they bound
    each least distance between clusters from below and each cluster's
    diameter from above, and are exact on products.

    A factor is read once, each class's projection against U, the union
    of the projections, block by block.  Each block's rows are folded by
    class (``_run_rows``) into the least distance to each point of U,
    and a class's row of the table is gathered once its rows are all
    folded, so no classes x U table is held.  None when sum_f sum_c
    |proj_f c| * |U_f|, which bounds the factor entries read, is over
    ``budget``; never for a budget of None."""
    n = len(proj[0][1]) - 1
    unions = []
    for g, (coords, _) in zip(factors, proj):
        member = np.zeros(g.size, dtype=bool)
        member[coords] = True
        unions.append(member)
    if budget is not None and sum(
            len(coords) * int(member.sum())
            for (coords, _), member in zip(proj, unions)) > budget:
        return None
    tables = []
    for g, (coords, off), member in zip(factors, proj, unions):
        # Each cluster's class, numbered by first appearance, and the
        # first cluster of each class.
        ids, firsts, cls = {}, [], []
        bounds = off.tolist()
        for c in range(n):
            key = coords[bounds[c]:bounds[c + 1]].tobytes()
            k = ids.setdefault(key, len(firsts))
            if k == len(firsts):
                firsts.append(c)
            cls.append(k)
        rows, offsets = _segments(coords, off,
                                  np.array(firsts, dtype=np.intp))
        column = (np.cumsum(member) - 1)[rows]  # each row's column in U
        least = np.empty((len(firsts), len(firsts)), dtype=np.int64)
        diam = np.full(len(firsts), np.iinfo(np.int64).min)
        step = spaces._block_rows(len(rows))
        carry = None  # the folded rows of a class the last block cut
        for start, block in g.row_blocks(rows, np.flatnonzero(member)):
            stop = start + len(block)
            lo, hi, at = _run_rows(offsets, start, stop)
            own = column[offsets[lo] + _run_rows(offsets, offsets[lo],
                                                 offsets[hi])[2]]
            np.maximum(diam[lo:hi], block[at[:, :, None], own[:, None, :]]
                       .max(axis=(1, 2)), out=diam[lo:hi])
            low = block[at].min(axis=1)
            if carry is not None:
                np.minimum(low[0], carry, out=low[0])
            done = hi - int(offsets[hi] > stop)
            carry = low[-1] if done < hi else None
            for r in range(lo, done, step):
                least[r:min(done, r + step)] = np.minimum.reduceat(
                    low[r - lo:min(done, r + step) - lo, column],
                    offsets[:-1], axis=1)
        tables.append((np.array(cls, dtype=np.intp), least, diam))
    return tables


def _run_rows(offsets: np.ndarray, start: int, stop: int
              ) -> tuple[int, int, np.ndarray]:
    """For rows start..stop-1 of a table of runs, run k being the rows
    offsets[k] up to offsets[k + 1]: the runs lo..hi-1 that meet them,
    and each one's rows there, counted from start, as a (hi - lo) x
    width array.  A run shorter than the longest repeats its last row,
    which changes no extreme, so one ``min`` or ``max`` over axis 1 of
    the rows gathered at it folds every run.  ``reduceat`` along the
    rows runs an inner loop per run and column: folding 625 runs of
    three rows against 1,875 columns, in 235 blocks, took it 45 ms
    against 15 ms this way."""
    lo = int(offsets.searchsorted(start, side="right")) - 1
    hi = int(offsets.searchsorted(stop))
    first = np.maximum(offsets[lo:hi], start) - start
    end = np.minimum(offsets[lo + 1:hi + 1], stop) - start
    return lo, hi, np.minimum(first[:, None] + np.arange((end - first).max()),
                              end[:, None] - 1)


def _table_open(tables: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]],
                n: int, lam: int, control: int
                ) -> tuple[list[tuple[int, int]], list[int]]:
    """The pairs (c1, c2), c1 < c2, whose summed least table entry is
    at most lam, and the clusters whose summed projection diameters are
    over the control, in order.  The pair bounds are summed in blocks of
    cluster rows of at most ``spaces._SCAN_ELEMS`` entries, each row from
    its own cluster on, so no clusters x clusters table is held."""
    wide = np.zeros(n, dtype=np.int64)
    for cls, _, diam in tables:
        wide += diam[cls]
    pairs = []
    step = spaces._block_rows(n)
    for start in range(0, n, step):
        stop = min(n, start + step)
        bound = np.zeros((stop - start, n - start), dtype=np.int64)
        for cls, least, _ in tables:
            bound += least[np.ix_(cls[start:stop], cls[start:])]
        i, j = np.nonzero(bound <= lam)
        keep = j > i
        pairs += zip((start + i[keep]).tolist(), (start + j[keep]).tolist())
    return pairs, np.flatnonzero(wide > control).tolist()


def _projections(factors: Sequence[FiniteMetricSpace],
                 arrays: Sequence[np.ndarray]
                 ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each cluster's projection on each factor of an l1 sum: per
    factor, the clusters' coordinates there, each cluster's sorted and
    without repeats, laid end to end, and the clusters' offsets into
    them.  The coordinates are ``spaces.l1_digits``."""
    n = len(arrays)
    owner = np.repeat(np.arange(n), [len(pts) for pts in arrays])
    digits = spaces.l1_digits(factors, np.concatenate(arrays))
    proj = []
    for g, coord in zip(factors, digits):
        keys = np.sort(owner * g.size + coord)
        keys = keys[_run_starts(keys)]
        proj.append((keys % g.size,
                     np.searchsorted(keys, np.arange(n + 1) * g.size)))
    return proj


def _segments(coords: np.ndarray, off: np.ndarray,
              ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """coords[off[i]:off[i + 1]] for each i in ids, laid end to end,
    and their offsets there, one more than ids."""
    count = off[ids + 1] - off[ids]
    offsets = np.zeros(len(ids) + 1, dtype=np.intp)
    np.cumsum(count, out=offsets[1:])
    return (coords[np.arange(offsets[-1])
                   + np.repeat(off[ids] - offsets[:-1], count)], offsets)


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Where each run of equal entries of a sorted array starts, as a
    mask: its distinct entries without ``np.unique``, which imports
    ``numpy.ma`` (about 1.5 MB of resident memory)."""
    first = np.ones(len(values), dtype=bool)
    first[1:] = values[1:] != values[:-1]
    return first


def _first_extreme(space: FiniteMetricSpace, rows: np.ndarray,
                   cols: np.ndarray, *, largest: bool) -> tuple[int, int, int]:
    """The least (or largest) d(p, q) over p in rows and q in cols, as
    (value, p, q) with (p, q) the first pair in position order, row by
    row, to reach it: in (p, q) order, as rows and cols are sorted.

    On an l1 sum only the run pairs of ``_run_pairs`` are read, best
    bound first, up to the first bound strictly worse than the best
    value read; a tie is read, as it may hold an earlier pair."""
    sign = -1 if largest else 1
    best = None
    for bound, r0, r1, c0, c1 in (_run_pairs(space, rows, cols, sign)
                                  or [(0, 0, len(rows), 0, len(cols))]):
        if best is not None and bound > best[0]:
            break
        for start, block in space.row_blocks(rows[r0:r1], cols[c0:c1]):
            k = int(block.argmax() if largest else block.argmin())
            i, j = divmod(k, c1 - c0)
            # (sign * value, i, j) order: a tie keeps the earlier pair.
            found = (sign * int(block.flat[k]), r0 + start + i, c0 + j)
            if best is None or found < best:
                best = found
    value, i, j = best
    return sign * value, int(rows[i]), int(cols[j])


def _run_pairs(space: FiniteMetricSpace, rows: np.ndarray, cols: np.ndarray,
               sign: int) -> Optional[list[tuple[int, int, int, int, int]]]:
    """On an l1 sum, the rows and cols cut into runs of one last-factor
    digit (the slowest, so a sorted array has one run per digit), as
    run pairs (bound, r0, r1, c0, c1) in bound order, where no
    sign * d over rows[r0:r1] x cols[c0:c1] is below the bound: with
    u and v the runs' digits and distances nonnegative,

        d_last(u, v) <= d(p, q) <= d_last(u, v) + sum_{f<last} diam_f.

    When rows is cols on a metric, d is symmetric, so the first pair to
    reach an extreme lies in a run pair with u <= v, and only those are
    listed.  None on any other space, when the plain scan reads
    rows x cols in one block (before any digit is computed), for one run
    pair, and for more run pairs than the plain scan has blocks: each
    run pair read binds a reader of the sum."""
    if space.structure is None or space.structure[0] != "sum":
        return None
    # As many blocks as row_blocks reads over rows x cols.
    blocks = -(-len(rows) // spaces._block_rows(len(cols)))
    if blocks == 1:
        return None
    *rest, last = space.structure[1]
    stride = math.prod(g.size for g in rest)
    row_digits = rows // stride
    col_digits = row_digits if rows is cols else cols // stride
    r = np.flatnonzero(_run_starts(row_digits))
    c = np.flatnonzero(_run_starts(col_digits))
    half = rows is cols and space.metric_guaranteed
    count = len(r) * (len(r) + 1) // 2 if half else len(r) * len(c)
    if not 1 < count <= blocks:
        return None
    u, v = np.indices((len(r), len(c))).reshape(2, -1)
    if half:
        u, v = u[u <= v], v[u <= v]
    near = last.dist_block(row_digits[r], col_digits[c])[u, v]
    bound = near if sign > 0 else -(near + sum(g.diameter() for g in rest))
    r_end, c_end = np.append(r, len(rows)), np.append(c, len(cols))
    order = np.argsort(bound, kind="stable")
    return list(zip(bound[order].tolist(), r[u[order]].tolist(),
                    r_end[u[order] + 1].tolist(), c[v[order]].tolist(),
                    c_end[v[order] + 1].tolist()))


def validate_cover(space: FiniteMetricSpace, cover: ScaledCover) -> ValidationReport:
    """Check a cover against a space.

    Out-of-range point indices and empty clusters (which ScaledCover.of
    refuses) are usage errors and raise ValueError;
    everything else is reported as Violation entries (up to
    MAX_VIOLATIONS of them, coverage first, then separation, then
    diameters).  Cluster pairs and diameters that a family's one bound
    settles skip the exhaustive scan.  On an l1 sum that bound is the
    product hull, from per-factor tables, unless on a guaranteed metric
    they would read more factor entries than the pivot scan; the
    family's pivot scan, when ``space.metric_guaranteed``, serves every
    other family (see the module docstring).  Every bound
    is sound, so it settles only checks that hold, and the scan alone
    produces violations, each at the first extreme pair in point order:
    the report does not depend on which bounds ran.
    """
    families = [_cluster_arrays(fam, space.size) for fam in cover.families]
    found = _violations(space, families, cover.scale.lam, cover.scale.control)
    report = ValidationReport(tuple(itertools.islice(found, MAX_VIOLATIONS)))
    if report.ok and type(cover.families) is tuple and all(
            type(fam) is tuple and all(type(cl) is frozenset for cl in fam)
            for fam in cover.families):
        space._valid = cover
    return report


def _violations(space: FiniteMetricSpace, families: list[list[np.ndarray]],
                lam: int, control: int) -> Iterator[Violation]:
    """Every violation of the cover, in report order."""
    covered = np.zeros(space.size, dtype=bool)
    for arrays in families:
        for pts in arrays:
            covered[pts] = True
    for p in np.flatnonzero(~covered):
        yield Violation("uncovered-point", (int(p),), 0)

    for f, arrays in enumerate(families):
        pairs, clusters = _open_family(space, arrays, lam, control)
        for c1, c2 in pairs:
            best = _first_extreme(space, arrays[c1], arrays[c2], largest=False)
            if best[0] <= lam:
                yield Violation("family-separation",
                                (f, c1, c2, best[1], best[2]), best[0])
        for c in clusters:
            worst = _first_extreme(space, arrays[c], arrays[c], largest=True)
            if worst[0] > control:
                yield Violation("cluster-diameter", (f, c, worst[1], worst[2]),
                                worst[0])


def shrink_to_partition(space: FiniteMetricSpace,
                        cover: ScaledCover) -> ScaledCover:
    """Remove overlaps: each point keeps only its lowest (family, cluster)
    slot.  Validity is preserved (clusters only shrink, so separations
    grow and diameters fall) and the family count is unchanged.  A cover
    that is already a partition, its cluster sizes summing to the
    space's size, comes back equal, on its own frozenset clusters.  An
    invalid cover is a ValueError; the cover last recorded on the space
    is not re-validated.
    """
    if cover is not space._valid and not (
            report := validate_cover(space, cover)).ok:
        raise ValueError(f"cannot shrink an invalid cover: {report.describe()}")
    lam, control = cover.scale.lam, cover.scale.control
    # A valid cover covers every point, so sizes summing to the space's
    # size leave no point in two clusters.
    if sum(len(cl) for fam in cover.families for cl in fam) == space.size:
        return ScaledCover.of(lam, control, cover.families)
    seen: set[int] = set()
    fams = []
    for fam in cover.families:
        new_fam = []
        for cl in fam:
            kept = cl - seen
            seen |= kept
            if kept:
                new_fam.append(kept)
        fams.append(new_fam)
    return ScaledCover.of(lam, control, fams)


# -- certificate files ------------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    """A cover plus the identity of the space it certifies."""

    label: str
    size: int
    cover: ScaledCover


def format_certificate(cert: Certificate) -> str:
    lines = [CERTIFICATE_HEADER,
             f"label: {cert.label}",
             f"size: {cert.size}",
             f"lambda: {cert.cover.scale.lam}",
             f"control: {cert.cover.scale.control}",
             f"families: {len(cert.cover.families)}"]
    for f, fam in enumerate(cert.cover.families):
        lines.append(f"family {f}")
        for cl in fam:
            lines.append("cluster" + " %d" * len(cl) % tuple(sorted(cl)))
    return "\n".join(lines) + "\n"


def parse_certificate(text: str) -> Certificate:
    lines = [ln.rstrip("\n") for ln in text.splitlines()]
    lines = [ln for ln in lines if ln.strip()]
    if not lines or lines[0].strip() != CERTIFICATE_HEADER:
        raise ValueError(f"not a certificate file (expected "
                         f"{CERTIFICATE_HEADER!r} on line 1)")

    fields = {}
    pos = 1
    for key in ("label", "size", "lambda", "control", "families"):
        if pos >= len(lines) or not lines[pos].startswith(key + ":"):
            raise ValueError(f"certificate line {pos + 1}: expected {key!r} field")
        fields[key] = lines[pos][len(key) + 1:].strip()
        pos += 1
    try:
        size = int(fields["size"])
        lam = int(fields["lambda"])
        control = int(fields["control"])
        nfam = int(fields["families"])
    except ValueError:
        raise ValueError("certificate header fields must be integers") from None

    families: list[list[frozenset]] = []
    current: Optional[list[frozenset]] = None
    for ln in lines[pos:]:
        ln = ln.strip()
        tokens = ln.split()
        if tokens[0] == "family":
            if tokens[1:] != [str(len(families))]:
                raise ValueError(f"certificate: expected 'family "
                                 f"{len(families)}', got {ln!r}")
            current = []
            families.append(current)
        elif tokens[0] == "cluster":
            if current is None:
                raise ValueError("certificate: cluster before any family line")
            try:
                pts = frozenset(map(int, tokens[1:]))
            except ValueError:
                raise ValueError(f"certificate: bad cluster line {ln!r}") from None
            if not pts:
                raise ValueError("certificate: empty cluster line")
            current.append(pts)
        else:
            raise ValueError(f"certificate: unrecognised line {ln!r}")
    if len(families) != nfam:
        raise ValueError(f"certificate: header says {nfam} families, "
                         f"found {len(families)}")
    cover = ScaledCover.of(lam, control, families)
    return Certificate(fields["label"], size, cover)


def write_certificate(path, cert: Certificate) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_certificate(cert))


def read_certificate(path) -> Certificate:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_certificate(fh.read())
