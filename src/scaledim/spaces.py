"""Finite metric spaces with exact integer distances.

Points are the indices ``0..size-1``.  Distances come from a pure oracle
function rather than a mandatory stored matrix, so large product spaces
stay queryable without O(size^2) memory.  Every distance is an exact
nonnegative integer below 2**62, so numpy arithmetic on it is exact too.

Distances are served along two paths.  ``dist`` is the scalar oracle: a
leaf computes the pair and a composite asks its parts' oracles, so no
``dist`` reads a table that a kernel wrote.  One block kernel per space
serves every table: ``blocks(J)`` binds the columns J (all points when
None) and returns a reader, which maps rows I to a new table from I to
J.  ``row_blocks``, the one bounded scan, binds one reader for all its
blocks; ``dist_block`` is the same read gathered into one table, and
``dist_row`` is one row of it.  Every read is a new array.  Leaf spaces
compute their tables (``interval`` and ``circle`` in closed form, a bare
oracle once per pair), and a memoized matrix, from ``densify`` or a
matrix constructor, is one more kernel.  A sum adds its factors' tables,
a wedge goes through the wedge point between arms, and ``sub``,
``scale`` and ``relabel`` bind the mapped columns in the space they
wrap; ``scale`` of a sum or a wedge is the sum or wedge of its scaled
factors.

Constructors also pass what they know in closed form: the diameter, the
least positive distance and the chain step, the least lam at which the
whole space is one lam-component (``known_chain_step``), so that a
connected leaf, sum or wedge needs no component scan.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

# Dense matrices are only ever memoized below this size.
MATRIX_CACHE_LIMIT = 2000
# Most points any constructor builds; more is refused up front.
DEFAULT_PRODUCT_CAP = 10**6
# Exhaustive metric-axiom validation below this size, seeded sampling above.
EXHAUSTIVE_CHECK_LIMIT = 200
CHECK_SEED = 0
CHECK_SAMPLES = 20000

_INT64_SAFE = 2**62
# Distances a row_blocks scan reads per block.  On the certify benchmark
# (2-vCPU VM) the peak RSS was 36.5 MB with 2**14, 42.2 MB with 2**18
# and 36.1 MB with one row per point.
_SCAN_ELEMS = 2**14


def _block_rows(width: int) -> int:
    # Rows of a block of at most _SCAN_ELEMS entries, one at least.
    return max(1, _SCAN_ELEMS // max(1, width))


class MetricError(ValueError):
    """A metric axiom failed.  Carries the axiom name and a witness tuple."""

    def __init__(self, axiom: str, witness: tuple, message: str):
        super().__init__(message)
        self.axiom = axiom
        self.witness = witness


@dataclass(frozen=True)
class ScalePair:
    """A (lam, control) pair: lam is the separation scale, control the
    diameter bound.  Both are nonnegative integers."""

    lam: int
    control: int

    def __post_init__(self):
        for name in ("lam", "control"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {v!r}")


class FiniteMetricSpace:
    """A finite metric space served by an exact integer distance oracle.

    Instances are immutable by convention: nothing mutates a space after
    construction except internal memoization, so they are safe to share
    across computations.

    ``dist`` is the scalar oracle and never reads a kernel's table.
    ``blocks(J)`` is the space's one block kernel: ``J`` is an intp array
    of points or None for all points, and it returns a reader, which maps
    an intp array ``I`` to a new ``len(I) x len(J)`` int64 table of their
    distances; a memoized matrix is a kernel too (see the module docstring).

    ``structure`` is ("sum", factors) for an l1 sum, ("wedge", factors)
    for a wedge and None for any other space; factors are in index order.

    ``known_min_positive`` and ``known_chain_step`` are the least and
    the largest weight of a minimum spanning tree, when known without a
    scan: the ``min_positive_hint`` and ``chain_step_hint`` arguments.
    Below the first every point is its own lam-component; from the
    second on the space is one.  ``interval(k, a)`` and ``circle(m, a)``
    have step a, a scaled leaf a times its step, a relabelling its
    space's step, and a sum or wedge the largest step of its factors
    (0 for a one-point factor, None when any factor's is None).
    Subspaces, matrices and bare oracles have none.

    ``metric_guaranteed`` is True only when the constructor knows that the
    oracle obeys the triangle inequality: the library constructors of
    metrics, sums and wedges of such spaces, their subspaces, scalings
    and relabellings, and matrices small enough to be checked
    exhaustively.  A space built directly from an oracle is False.
    """

    __slots__ = ("size", "basepoint", "label", "_oracle", "_blocks",
                 "_matrix", "_diam", "_minpos", "_step", "_structure",
                 "_metric", "_valid")

    def __init__(self, size: int, oracle: Callable[[int, int], int], *,
                 basepoint: Optional[int] = None, label: str = "space",
                 blocks: Optional[Callable] = None,
                 diameter_hint: Optional[int] = None,
                 min_positive_hint: Optional[int] = None,
                 chain_step_hint: Optional[int] = None):
        if not isinstance(size, int) or size < 0:
            raise ValueError(f"size must be a nonnegative integer, got {size!r}")
        if basepoint is not None and not (0 <= basepoint < size):
            raise ValueError(f"basepoint {basepoint} out of range for size {size}")
        self.size = size
        self.basepoint = basepoint
        self.label = label
        self._oracle = oracle
        self._blocks = blocks
        self._matrix: Optional[np.ndarray] = None
        self._diam = diameter_hint
        self._minpos = min_positive_hint
        self._step = chain_step_hint
        self._structure: Optional[tuple] = None
        self._metric = False
        self._valid = None  # the last cover validate_cover passed on it

    @property
    def structure(self) -> Optional[tuple]:
        return self._structure

    @property
    def metric_guaranteed(self) -> bool:
        return self._metric

    @property
    def known_min_positive(self) -> Optional[int]:
        """The least distance between distinct points when it is known
        without a scan: the constructor's hint, or the value an earlier
        ``min_positive_distance`` call computed.  None otherwise."""
        return self._minpos

    @property
    def known_chain_step(self) -> Optional[int]:
        """The least lam at which the whole space is one lam-component,
        the largest weight of a minimum spanning tree, when the
        constructor knows it (``known_min_positive`` is the least
        weight).  None otherwise: no scan ever fills it in."""
        return self._step

    # -- queries ---------------------------------------------------------

    def dist(self, i: int, j: int) -> int:
        """Exact distance between points i and j, from the oracle alone."""
        return self._oracle(i, j)

    def dist_row(self, i: int, targets=None) -> np.ndarray:
        """Distances from point i to ``targets`` (all points when None),
        as a new int64 array: one row of ``dist_block``."""
        return self.dist_block(np.array([i], dtype=np.intp), targets)[0]

    def dist_block(self, rows, cols=None) -> np.ndarray:
        """Distances from each point of ``rows`` to each point of ``cols``
        (all points when None), as a new len(rows) x len(cols) int64
        array, read through the reader bound to ``cols``.

        A read that fits in one ``row_blocks`` block is one reader call;
        a larger one fills the result block by block, so it needs little
        beyond the result: 729 rows against all 6561 points, picked, of
        ``sum(circle(3,1),circle(9,2),circle(27,10),circle(9,140))``
        peak at 37.1 MiB for a 36.5 MiB table (110 MiB as one read)."""
        rows = np.asarray(rows, dtype=np.intp)
        width = self.size if cols is None else len(cols)
        if len(rows) <= _block_rows(width):
            return self._reader(cols)(rows)
        out = np.empty((len(rows), width), dtype=np.int64)
        for start, block in self.row_blocks(rows, cols):
            out[start:start + len(block)] = block
        return out

    def _reader(self, cols) -> Callable:
        """The reader bound to ``cols`` (points, or None for all points):
        given an intp array I of points, it returns the new len(I) x
        len(cols) int64 table of their distances.  The one place a bare
        oracle serves more than one pair."""
        if cols is not None:
            cols = np.asarray(cols, dtype=np.intp)
        if self._blocks is not None:
            return self._blocks(cols)
        targets = range(self.size) if cols is None else cols.tolist()
        oracle = self._oracle

        def read(I):
            return np.fromiter((oracle(i, j) for i in I.tolist() for j in targets),
                               dtype=np.int64, count=len(I) * len(targets)
                               ).reshape(len(I), len(targets))

        return read

    def has_fast_rows(self) -> bool:
        """False only for a bare oracle never densified: every library
        constructor has a kernel."""
        return self._blocks is not None

    def row_blocks(self, rows=None, cols=None):
        """``dist_block(rows, cols)`` (all points for None) as (start,
        block) pairs, block holding rows[start:start + len(block)], in
        blocks of at most _SCAN_ELEMS entries (one row at least), all
        read through one reader bound to ``cols``."""
        rows = (np.arange(self.size, dtype=np.intp) if rows is None
                else np.asarray(rows, dtype=np.intp))
        step = _block_rows(self.size if cols is None else len(cols))
        read = self._reader(cols)
        for start in range(0, len(rows), step):
            yield start, read(rows[start:start + step])

    def densify(self) -> np.ndarray:
        """Build and memoize the full distance matrix, which becomes the
        block kernel.  Only for spaces of size <= MATRIX_CACHE_LIMIT."""
        if self._matrix is None:
            if self.size > MATRIX_CACHE_LIMIT:
                raise ValueError(
                    f"refusing to build a {self.size}x{self.size} matrix "
                    f"(limit {MATRIX_CACHE_LIMIT})")
            mat = np.empty((self.size, self.size), dtype=np.int64)
            for start, block in self.row_blocks():
                mat[start:start + len(block)] = block
            self._matrix, self._blocks = mat, _table_blocks(mat)
        return self._matrix

    def diameter(self) -> int:
        """Largest pairwise distance (0 for spaces with fewer than 2 points)."""
        if self._diam is None:
            self._diam = max((int(block.max()) for _, block in self.row_blocks()),
                             default=0)
        return self._diam

    def min_positive_distance(self) -> int:
        """Smallest distance between two distinct points."""
        if self.size < 2:
            raise ValueError("min_positive_distance needs at least two points")
        if self._minpos is None:
            top = best = np.iinfo(np.int64).max
            for start, block in self.row_blocks():
                np.fill_diagonal(block[:, start:], top)  # skip d(i, i)
                best = min(best, int(block.min()))
            self._minpos = best
        return self._minpos

    def is_lambda_discrete(self, lam: int) -> bool:
        """True when every pair of distinct points is at distance >= lam."""
        if self.size < 2:
            return True
        return self.min_positive_distance() >= lam

    def __repr__(self):
        return f"FiniteMetricSpace({self.label!r}, size={self.size})"


# -- validation ------------------------------------------------------------


def _triangle_error(i: int, j: int, k: int, dij: int, dik: int, dkj: int) -> MetricError:
    return MetricError("triangle", (i, j, k),
                       f"triangle inequality violated at ({i},{j},{k}): "
                       f"d({i},{j})={dij} > d({i},{k})+d({k},{j})={dik + dkj}")


def _int_table(rows: Sequence[Sequence]) -> np.ndarray:
    """``rows`` as an m x m int64 array, once every entry is a Python int
    below 2**62 in magnitude: exact, and no sum of two entries wraps."""
    m = len(rows)
    for i, r in enumerate(rows):
        if len(r) != m:
            raise MetricError("shape", (i,),
                              f"row {i} has {len(r)} entries, expected {m}")
        for j, v in enumerate(r):
            if not isinstance(v, int) or isinstance(v, bool):
                raise MetricError("integrality", (i, j),
                                  f"entry ({i},{j})={v!r} is not an integer")
            if abs(v) >= _INT64_SAFE:
                raise MetricError("magnitude", (i, j),
                                  f"entry ({i},{j}) exceeds the 64-bit range")
    return np.array(rows, dtype=np.int64).reshape(m, m)


def _check_table(mat: np.ndarray) -> None:
    """Check the metric axioms on a full distance table; raise the first
    violation in index order: identity at every point, then each pair
    i < j (symmetry before positivity), then the triangle inequality at
    every (i, j, k) when there are at most EXHAUSTIVE_CHECK_LIMIT points."""
    m = len(mat)
    diag = np.diagonal(mat)
    if diag.any():
        i = int(np.flatnonzero(diag)[0])
        raise MetricError("identity", (i,), f"d({i},{i})={diag[i]} != 0")
    bad = np.triu((mat != mat.T) | (mat <= 0), 1)
    if bad.any():
        i, j = divmod(int(bad.argmax()), m)
        if mat[i, j] != mat[j, i]:
            raise MetricError("symmetry", (i, j),
                              f"d({i},{j})={mat[i, j]} != d({j},{i})={mat[j, i]}")
        raise MetricError("positivity", (i, j),
                          f"d({i},{j})={mat[i, j]} is not positive")
    if m > EXHAUSTIVE_CHECK_LIMIT:
        return
    for i in range(m):
        # bad[j, k]: d(i,j) > d(i,k) + d(k,j), the table being symmetric.
        bad = mat[i][:, None] > mat[i] + mat
        if bad.any():
            j, k = divmod(int(bad.argmax()), m)
            raise _triangle_error(i, j, k, mat[i, j], mat[i, k], mat[k, j])


def _sample_triangle(space: FiniteMetricSpace, rng: random.Random) -> None:
    m = space.size
    for _ in range(CHECK_SAMPLES):
        i, j, k = (rng.randrange(m) for _ in range(3))
        dij, dik, dkj = space.dist(i, j), space.dist(i, k), space.dist(k, j)
        if dij > dik + dkj:
            raise _triangle_error(i, j, k, dij, dik, dkj)


def check_metric(space: FiniteMetricSpace) -> None:
    """Verify the metric axioms by querying the oracle: the whole table
    up to EXHAUSTIVE_CHECK_LIMIT points, CHECK_SAMPLES seeded pairs and
    triples above.  Raises MetricError with a witness on failure."""
    m = space.size
    if m <= EXHAUSTIVE_CHECK_LIMIT:
        _check_table(_int_table([[space.dist(i, j) for j in range(m)]
                                 for i in range(m)]))
        return
    rng = random.Random(CHECK_SEED)
    for _ in range(CHECK_SAMPLES):
        i, j = rng.randrange(m), rng.randrange(m)
        dij = space.dist(i, j)
        if i == j:
            if dij != 0:
                raise MetricError("identity", (i,), f"d({i},{i})={dij} != 0")
            continue
        dji = space.dist(j, i)
        if dij != dji:
            raise MetricError("symmetry", (i, j),
                              f"d({i},{j})={dij} != d({j},{i})={dji}")
        if dij <= 0:
            raise MetricError("positivity", (i, j),
                              f"d({i},{j})={dij} is not positive")
    _sample_triangle(space, rng)


# -- constructors ----------------------------------------------------------


def from_matrix(rows: Sequence[Sequence[int]], *, label: Optional[str] = None,
                basepoint: Optional[int] = None) -> FiniteMetricSpace:
    """Build a space from a full symmetric integer distance matrix.

    The matrix is validated (shape, integrality, identity, symmetry,
    positivity, triangle inequality); violations raise MetricError with
    the axiom name and a witness index tuple.
    """
    mat = _int_table([list(r) for r in rows])
    _check_table(mat)
    m = len(mat)
    space = _matrix_space(mat, label or f"matrix({m})", basepoint,
                          metric=m <= EXHAUSTIVE_CHECK_LIMIT)
    if not space.metric_guaranteed:
        _sample_triangle(space, random.Random(CHECK_SEED))
    return space


def _table_blocks(mat: np.ndarray) -> Callable:
    """The block kernel of a full distance table; rows first, the cheap
    order when rows are few."""
    return lambda J: (lambda I: mat.take(I, axis=0) if J is None
                      else mat.take(I, axis=0).take(J, axis=1))


def _matrix_space(mat: np.ndarray, label: str, basepoint: Optional[int], *,
                  metric: bool) -> FiniteMetricSpace:
    """A space served by a checked int64 distance table."""
    space = FiniteMetricSpace(len(mat), lambda i, j: int(mat[i, j]),
                              basepoint=basepoint, label=label,
                              blocks=_table_blocks(mat))
    space._matrix = mat
    space._metric = metric
    return space


def read_matrix_file(path) -> list[list[int]]:
    """Read a matrix file: first line the size m, then m rows of m integers."""
    with open(path, "r", encoding="utf-8") as fh:
        tokens = fh.read().split()
    if not tokens:
        raise ValueError(f"{path}: empty matrix file")
    try:
        m = int(tokens[0])
    except ValueError:
        raise ValueError(f"{path}: first token {tokens[0]!r} is not a size") from None
    if m < 0:
        raise ValueError(f"{path}: negative size {m}")
    body = tokens[1:]
    if len(body) != m * m:
        raise ValueError(f"{path}: expected {m * m} entries for size {m}, "
                         f"got {len(body)}")
    try:
        flat = [int(t) for t in body]
    except ValueError as exc:
        raise ValueError(f"{path}: non-integer entry ({exc})") from None
    return [flat[i * m:(i + 1) * m] for i in range(m)]


def _check_cap(name: str, size: int) -> None:
    if size > DEFAULT_PRODUCT_CAP:
        raise ValueError(f"{name} would have {size} points, "
                         f"over the cap {DEFAULT_PRODUCT_CAP}")


def interval(k: int, a: int = 1) -> FiniteMetricSpace:
    """Discrete interval: points 0..k at pairwise distance a*|i-j|.
    Refuses more than DEFAULT_PRODUCT_CAP points."""
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"interval needs k >= 1, got {k!r}")
    if not isinstance(a, int) or a < 1:
        raise ValueError(f"interval needs weight a >= 1, got {a!r}")
    _check_cap("interval", k + 1)
    if a * k >= _INT64_SAFE:
        raise ValueError("interval diameter exceeds the 64-bit range")

    def blocks(J):
        t = np.arange(k + 1, dtype=np.int64) if J is None else J
        return lambda I: a * np.abs(t - I[:, None])

    space = FiniteMetricSpace(k + 1, lambda i, j: a * abs(i - j),
                              basepoint=0, label=f"interval({k},{a})",
                              blocks=blocks, diameter_hint=a * k,
                              min_positive_hint=a, chain_step_hint=a)
    space._metric = True
    return space


def cyclic_group(m: int, a: int = 1) -> FiniteMetricSpace:
    """Cyclic group Z_m with the weighted word metric a*min(|i-j|, m-|i-j|).

    Equivalently the vertex set of an m-cycle with edge length a.
    Refuses more than DEFAULT_PRODUCT_CAP points.
    """
    if not isinstance(m, int) or m < 3:
        raise ValueError(f"cyclic_group needs m >= 3, got {m!r}")
    if not isinstance(a, int) or a < 1:
        raise ValueError(f"cyclic_group needs weight a >= 1, got {a!r}")
    _check_cap("cyclic_group", m)
    if a * (m // 2) >= _INT64_SAFE:
        raise ValueError("cyclic_group diameter exceeds the 64-bit range")

    def oracle(i, j):
        d = abs(i - j)
        if d > m - d:
            d = m - d
        return a * d

    def blocks(J):
        t = np.arange(m, dtype=np.int64) if J is None else J

        def read(I):
            d = np.abs(t - I[:, None])
            return a * np.minimum(d, m - d)

        return read

    space = FiniteMetricSpace(m, oracle, basepoint=0, label=f"circle({m},{a})",
                              blocks=blocks, diameter_hint=a * (m // 2),
                              min_positive_hint=a, chain_step_hint=a)
    space._metric = True
    return space


def _joint_chain_step(factors: Sequence[FiniteMetricSpace]) -> Optional[int]:
    # A sum or a wedge is one lam-component exactly when each factor is:
    # two points in different lam-components of a factor are more than
    # lam apart in the sum, and in the wedge too, through the wedge point.
    steps = [0 if sp.size == 1 else sp.known_chain_step for sp in factors]
    return None if None in steps else max(steps)


def wedge(spaces: Sequence[FiniteMetricSpace], *,
          label: Optional[str] = None) -> FiniteMetricSpace:
    """Wedge sum: basepoints of all factors identified into point 0.

    Point layout: index 0 is the common basepoint, followed by the
    non-basepoint points of factor 1 in increasing index order, then
    factor 2, and so on.  Distances between different arms go through
    the basepoint.  Refuses more than DEFAULT_PRODUCT_CAP points.
    """
    spaces = list(spaces)
    if not spaces:
        raise ValueError("wedge needs at least one factor")
    for f, sp in enumerate(spaces):
        if sp.basepoint is None:
            raise ValueError(f"wedge factor {f + 1} ({sp.label}) has no basepoint")
    size = 1 + sum(sp.size - 1 for sp in spaces)
    _check_cap("wedge", size)

    # The layout, one entry per point: the arm it lies in (-1 for the
    # wedge point), its index within that arm, its distance to the wedge
    # point.  The block kernel reads all three, the oracle only the first
    # two, so that no oracle reads a table that a kernel wrote.
    owner = np.full(size, -1, dtype=np.intp)
    local = np.zeros(size, dtype=np.intp)
    to_base = np.zeros(size, dtype=np.int64)
    eccs = []              # per arm: largest and least distance to base
    nearest = []
    start = 1
    for f, sp in enumerate(spaces):
        arm = np.delete(np.arange(sp.size, dtype=np.intp), sp.basepoint)
        stop = start + arm.size
        owner[start:stop] = f
        local[start:stop] = arm
        to_base[start:stop] = sp.dist_row(sp.basepoint, arm)
        if arm.size:
            eccs.append(int(to_base[start:stop].max()))
            nearest.append(int(to_base[start:stop].min()))
        start = stop

    def reach(k):  # d(k, wedge point), from k's arm's oracle
        f = owner[k]
        return 0 if f < 0 else spaces[f].dist(int(local[k]),
                                              spaces[f].basepoint)

    def oracle(i, j):
        if i == j:
            return 0
        oi = owner[i]
        if oi >= 0 and oi == owner[j]:
            return spaces[oi].dist(int(local[i]), int(local[j]))
        return reach(i) + reach(j)

    def blocks(J):  # through the wedge point, except within one arm
        t = slice(None) if J is None else J
        oJ, lJ, bJ = owner[t], local[t], to_base[t]

        def read(I):
            oI = owner[I]
            out = to_base[I][:, None] + bJ
            for f in set(oI.tolist()) - {-1}:
                rows, cols = oI == f, oJ == f
                inner = spaces[f].dist_block(local[I[rows]], lJ[cols])
                out[rows[:, None] & cols] = inner.ravel()  # in row-major order
            return out

        return read

    # Exact closed forms: the diameter is realised inside one arm or
    # through the basepoint between the two most eccentric arms.
    diam = 0
    if eccs:
        diam = max(max(sp.diameter() for sp in spaces), 0)
        if len(eccs) >= 2:
            top = sorted(eccs)[-2:]
            diam = max(diam, top[0] + top[1])
    if diam >= _INT64_SAFE:
        raise ValueError("wedge diameter exceeds the 64-bit range")
    minpos = None
    if size >= 2:
        minpos = min(sp.min_positive_distance() for sp in spaces if sp.size >= 2)
        if len(nearest) >= 2:
            low = sorted(nearest)[:2]
            minpos = min(minpos, low[0] + low[1])

    space = FiniteMetricSpace(
        size, oracle, basepoint=0,
        label=label or "wedge(" + ",".join(sp.label for sp in spaces) + ")",
        blocks=blocks, diameter_hint=diam, min_positive_hint=minpos,
        chain_step_hint=_joint_chain_step(spaces))
    space._structure = ("wedge", tuple(spaces))
    space._metric = all(sp.metric_guaranteed for sp in spaces)
    return space


def wedge_points(factors: Sequence[FiniteMetricSpace], f: int,
                 local: Iterable[int]) -> list[int]:
    """Indices in ``wedge(factors)`` of the points ``local`` of factor f
    (0-based), sorted.  The factor's basepoint maps to the wedge point 0."""
    start = 1 + sum(g.size - 1 for g in factors[:f])
    b = factors[f].basepoint
    return sorted(0 if q == b else start + q - (q > b) for q in local)


def l1_blocks(factors: Sequence[FiniteMetricSpace],
              choices: Sequence[Sequence[Iterable[int]]]) -> list[list[int]]:
    """Index blocks of ``l1_sum(factors)``: for each way to pick one
    index set from every ``choices[f]``, the points whose f-th
    coordinate lies in the set picked for factor f.

    The last factor's pick varies slowest.  Each block is increasing
    when the picked sets are, as factor 1 is the lowest digit.
    """
    blocks = [[0]]
    stride = 1
    for g, sets in zip(factors, choices, strict=True):
        blocks = [[m + q * stride for q in s for m in b]
                  for s in sets for b in blocks]
        stride *= g.size
    return blocks


def l1_digits(factors: Sequence[FiniteMetricSpace],
              points) -> tuple[np.ndarray, ...]:
    """Each factor's coordinate of the given points of
    ``l1_sum(factors)``, one index array per factor; factor 1 is the
    lowest digit."""
    return np.unravel_index(points, [g.size for g in factors], order="F")


def l1_sum(spaces: Sequence[FiniteMetricSpace], *,
           label: Optional[str] = None) -> FiniteMetricSpace:
    """l1 direct sum: point tuples with coordinatewise summed distances.

    Point index encoding is mixed-radix with factor 1 varying fastest:
    index = x_1 + s_1*x_2 + s_1*s_2*x_3 + ...  The basepoint is the
    tuple of factor basepoints.  Refuses more than DEFAULT_PRODUCT_CAP
    points.
    """
    spaces = list(spaces)
    if not spaces:
        raise ValueError("l1_sum needs at least one factor")
    for f, sp in enumerate(spaces):
        if sp.basepoint is None:
            raise ValueError(f"l1_sum factor {f + 1} ({sp.label}) has no basepoint")
        if sp.size < 1:
            raise ValueError(f"l1_sum factor {f + 1} is empty")
    sizes = tuple(sp.size for sp in spaces)
    total = math.prod(sizes)
    _check_cap("l1_sum", total)
    diam = sum(sp.diameter() for sp in spaces)
    if diam >= _INT64_SAFE:
        raise ValueError("l1_sum diameter exceeds the 64-bit range")

    def oracle(x, y):
        total_d = 0
        for sp, s in zip(spaces, sizes):
            total_d += sp.dist(x % s, y % s)
            x //= s
            y //= s
        return total_d

    for sp in spaces:  # a small factor's kernel becomes its memoized table
        if sp.size <= MATRIX_CACHE_LIMIT:
            sp.densify()

    def blocks(J):  # the sum of the factors' blocks
        if J is None:  # each factor's block added as the next, slower digit
            def grid(I):
                out = np.zeros((len(I), 1), dtype=np.int64)
                for sp, ri in zip(spaces, l1_digits(spaces, I)):
                    out = (sp.dist_block(ri)[:, :, None] + out[:, None, :]
                           ).reshape(len(I), sp.size * out.shape[1])
                return out

            return grid
        cols = l1_digits(spaces, J)

        def read(I):
            out = None
            for sp, ri, cj in zip(spaces, l1_digits(spaces, I), cols):
                part = sp.dist_block(ri, cj)
                if out is None:
                    out = part
                else:
                    out += part
            return out

        return read

    base = l1_blocks(spaces, [[[sp.basepoint]] for sp in spaces])[0][0]
    minpos = None
    pos_factors = [sp for sp in spaces if sp.size >= 2]
    if pos_factors:
        minpos = min(sp.min_positive_distance() for sp in pos_factors)
    space = FiniteMetricSpace(
        total, oracle, basepoint=base,
        label=label or "sum(" + ",".join(sp.label for sp in spaces) + ")",
        blocks=blocks, diameter_hint=diam, min_positive_hint=minpos,
        chain_step_hint=_joint_chain_step(spaces))
    space._structure = ("sum", tuple(spaces))
    space._metric = all(sp.metric_guaranteed for sp in spaces)
    return space


def _index_map(space: FiniteMetricSpace, index: Optional[np.ndarray], a: int,
               label: str, basepoint: Optional[int], *,
               diameter_hint: Optional[int] = None,
               min_positive_hint: Optional[int] = None,
               chain_step_hint: Optional[int] = None) -> FiniteMetricSpace:
    """The space whose point i is ``space``'s point index[i] (i itself
    when index is None), with every distance multiplied by a."""
    ids = range(space.size) if index is None else index.tolist()

    def oracle(i, j):
        return a * space.dist(ids[i], ids[j])

    def blocks(J):
        if index is None:
            read = space._reader(J)
            return lambda I: a * read(I)
        read = space._reader(index if J is None else index[J])
        return lambda I: a * read(index[I])

    mapped = FiniteMetricSpace(len(ids), oracle, basepoint=basepoint, label=label,
                               blocks=blocks, diameter_hint=diameter_hint,
                               min_positive_hint=min_positive_hint,
                               chain_step_hint=chain_step_hint)
    mapped._metric = space.metric_guaranteed
    return mapped


def subspace(space: FiniteMetricSpace, indices: Iterable[int]) -> FiniteMetricSpace:
    """Induced subspace on the given point indices.

    Points are renumbered 0..k-1 in increasing order of their original
    index.  The basepoint survives only if it belongs to the subset.
    """
    orig = sorted(set(indices))
    if not orig:
        raise ValueError("subspace needs a nonempty index set")
    if orig[0] < 0 or orig[-1] >= space.size:
        raise ValueError(f"subspace index out of range for size {space.size}")
    base = orig.index(space.basepoint) if space.basepoint in orig else None
    shown = ",".join(str(i) for i in orig[:12]) + (",..." if len(orig) > 12 else "")
    return _index_map(space, np.asarray(orig, dtype=np.intp), 1,
                      f"sub({space.label},[{shown}])", base)


def scale(space: FiniteMetricSpace, a: int) -> FiniteMetricSpace:
    """The same point set with every distance multiplied by a >= 1.

    A sum or a wedge comes back as the sum or wedge of its scaled
    factors, with the same point layout, so it keeps its structure.
    """
    if not isinstance(a, int) or a < 1:
        raise ValueError(f"scale needs an integer factor >= 1, got {a!r}")
    diam = space.diameter() * a
    if diam >= _INT64_SAFE:
        raise ValueError("scaled diameter exceeds the 64-bit range")
    label = f"scale({space.label},{a})"
    if space.structure is not None:
        kind, factors = space.structure
        build = l1_sum if kind == "sum" else wedge
        return build([scale(f, a) for f in factors], label=label)
    minpos = None
    if space.size >= 2:
        minpos = a * space.min_positive_distance()
    step = space.known_chain_step
    return _index_map(space, None, a, label, space.basepoint,
                      diameter_hint=diam, min_positive_hint=minpos,
                      chain_step_hint=None if step is None else a * step)


def relabel(space: FiniteMetricSpace, perm: Sequence[int]) -> FiniteMetricSpace:
    """Isometric copy with point i renamed to perm[i]."""
    perm = list(perm)
    if sorted(perm) != list(range(space.size)):
        raise ValueError("perm must be a permutation of 0..size-1")
    base = None if space.basepoint is None else perm[space.basepoint]
    return _index_map(space, np.argsort(perm), 1, f"relabel({space.label})", base,
                      diameter_hint=space._diam, min_positive_hint=space._minpos,
                      chain_step_hint=space._step)


def random_metric_space(n_points: int, rng, *, max_entry: int = 9,
                        label: Optional[str] = None) -> FiniteMetricSpace:
    """Random integer metric on n_points points.

    Draws a symmetric matrix with entries in 1..max_entry and repairs it
    into a metric by shortest-path closure.  ``rng`` is a seed or a
    random.Random instance, so runs are reproducible.
    """
    if not isinstance(rng, random.Random):
        rng = random.Random(rng)
    if n_points < 1:
        raise ValueError("random_metric_space needs at least one point")
    if max_entry * n_points >= _INT64_SAFE:
        raise ValueError("random_metric_space distances could exceed the "
                         "64-bit range")
    d = np.zeros((n_points, n_points), dtype=np.int64)
    upper = np.triu_indices(n_points, 1)  # row by row, as i < j loops
    d[upper] = [rng.randrange(1, max_entry + 1) for _ in range(len(upper[0]))]
    d += d.T
    for k in range(n_points):  # Floyd-Warshall, one min-plus step per k
        np.minimum(d, d[:, k, None] + d[k], out=d)
    _check_table(d)
    # A shortest-path closure is a metric however many points it has.
    return _matrix_space(d, label or f"random({n_points})", None, metric=True)
