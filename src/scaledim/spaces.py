"""Finite metric spaces with exact integer distances.

Points are the indices ``0..size-1``.  Distances come from a pure oracle
function rather than a mandatory stored matrix, so large product spaces
stay queryable without O(size^2) memory; a dense matrix is memoized
lazily only for small spaces.  Every distance is an exact nonnegative
integer.  Bulk queries are vectorised with numpy where a construction
can supply a fast row kernel, and all such values are kept within the
signed 64-bit range so the vectorised path is exact too.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

# Dense matrices are only ever memoized below this size.
MATRIX_CACHE_LIMIT = 2000
# Default cap on the number of points of an l1 direct sum.
DEFAULT_PRODUCT_CAP = 10**6
# Exhaustive metric-axiom validation below this size, seeded sampling above.
EXHAUSTIVE_CHECK_LIMIT = 200
CHECK_SEED = 0
CHECK_SAMPLES = 20000

_INT64_SAFE = 2**62


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

    ``structure`` is ("sum", factors) for an l1 sum, ("wedge", factors)
    for a wedge and None for any other space; factors are in index order.

    ``metric_guaranteed`` is True only when the constructor knows that the
    oracle obeys the triangle inequality: the library constructors of
    metrics, sums and wedges of such spaces, their subspaces, scalings
    and relabellings, and matrices small enough to be checked
    exhaustively.  A space built directly from an oracle is False.
    """

    __slots__ = ("size", "basepoint", "label", "_oracle", "_rows", "_blocks",
                 "_matrix", "_diam", "_minpos", "_structure", "_metric")

    def __init__(self, size: int, oracle: Callable[[int, int], int], *,
                 basepoint: Optional[int] = None, label: str = "space",
                 rows: Optional[Callable] = None,
                 diameter_hint: Optional[int] = None,
                 min_positive_hint: Optional[int] = None):
        if not isinstance(size, int) or size < 0:
            raise ValueError(f"size must be a nonnegative integer, got {size!r}")
        if basepoint is not None and not (0 <= basepoint < size):
            raise ValueError(f"basepoint {basepoint} out of range for size {size}")
        self.size = size
        self.basepoint = basepoint
        self.label = label
        self._oracle = oracle
        self._rows = rows
        self._blocks: Optional[Callable] = None
        self._matrix: Optional[np.ndarray] = None
        self._diam = diameter_hint
        self._minpos = min_positive_hint
        self._structure: Optional[tuple] = None
        self._metric = False

    @property
    def structure(self) -> Optional[tuple]:
        return self._structure

    @property
    def metric_guaranteed(self) -> bool:
        return self._metric

    # -- queries ---------------------------------------------------------

    def dist(self, i: int, j: int) -> int:
        """Exact distance between points i and j."""
        if self._matrix is not None:
            return int(self._matrix[i, j])
        return self._oracle(i, j)

    def dist_row(self, i: int, targets=None) -> np.ndarray:
        """Distances from point i to ``targets`` (all points when None),
        as an int64 array."""
        if self._matrix is not None:
            row = self._matrix[i]
            if targets is None:
                return row
            return row[np.asarray(targets, dtype=np.intp)]
        if self._rows is not None:
            return self._rows(i, targets)
        if targets is None:
            targets = range(self.size)
        oracle = self._oracle
        return np.fromiter((oracle(i, j) for j in targets), dtype=np.int64)

    def dist_block(self, rows, cols) -> np.ndarray:
        """Distances from each point of ``rows`` to each point of ``cols``,
        as a len(rows) x len(cols) int64 array."""
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        if self._matrix is not None:
            return self._matrix[np.ix_(rows, cols)]
        if self._blocks is not None:
            return self._blocks(rows, cols)
        out = np.empty((len(rows), len(cols)), dtype=np.int64)
        for k, i in enumerate(rows):
            out[k] = self.dist_row(int(i), cols)
        return out

    def has_fast_rows(self) -> bool:
        return self._rows is not None or self._matrix is not None

    def densify(self) -> np.ndarray:
        """Build (and memoize) the full distance matrix.  Only allowed for
        spaces of size <= MATRIX_CACHE_LIMIT."""
        if self._matrix is None:
            if self.size > MATRIX_CACHE_LIMIT:
                raise ValueError(
                    f"refusing to build a {self.size}x{self.size} matrix "
                    f"(limit {MATRIX_CACHE_LIMIT})")
            mat = np.empty((self.size, self.size), dtype=np.int64)
            for i in range(self.size):
                mat[i] = self.dist_row(i)
            self._matrix = mat
        return self._matrix

    def diameter(self) -> int:
        """Largest pairwise distance (0 for spaces with fewer than 2 points)."""
        if self._diam is None:
            if self.size <= 1:
                self._diam = 0
            else:
                best = 0
                for i in range(self.size):
                    m = int(self.dist_row(i).max())
                    if m > best:
                        best = m
                self._diam = best
        return self._diam

    def min_positive_distance(self) -> int:
        """Smallest distance between two distinct points."""
        if self.size < 2:
            raise ValueError("min_positive_distance needs at least two points")
        if self._minpos is None:
            best = None
            for i in range(self.size):
                row = self.dist_row(i).copy()
                row[i] = np.iinfo(np.int64).max
                m = int(row.min())
                if best is None or m < best:
                    best = m
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


def _matrix_space(mat: np.ndarray, label: str, basepoint: Optional[int], *,
                  metric: bool) -> FiniteMetricSpace:
    """A space served by a checked int64 distance table."""
    space = FiniteMetricSpace(len(mat), lambda i, j: int(mat[i, j]),
                              basepoint=basepoint, label=label)
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


def interval(k: int, a: int = 1) -> FiniteMetricSpace:
    """Discrete interval: points 0..k at pairwise distance a*|i-j|."""
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"interval needs k >= 1, got {k!r}")
    if not isinstance(a, int) or a < 1:
        raise ValueError(f"interval needs weight a >= 1, got {a!r}")
    if a * k >= _INT64_SAFE:
        raise ValueError("interval diameter exceeds the 64-bit range")

    def rows(i, targets):
        t = np.arange(k + 1, dtype=np.int64) if targets is None else \
            np.asarray(targets, dtype=np.int64)
        return a * np.abs(t - i)

    space = FiniteMetricSpace(k + 1, lambda i, j: a * abs(i - j),
                              basepoint=0, label=f"interval({k},{a})",
                              rows=rows, diameter_hint=a * k,
                              min_positive_hint=a)
    space._metric = True
    return space


def cyclic_group(m: int, a: int = 1) -> FiniteMetricSpace:
    """Cyclic group Z_m with the weighted word metric a*min(|i-j|, m-|i-j|).

    Equivalently the vertex set of an m-cycle with edge length a.
    """
    if not isinstance(m, int) or m < 3:
        raise ValueError(f"cyclic_group needs m >= 3, got {m!r}")
    if not isinstance(a, int) or a < 1:
        raise ValueError(f"cyclic_group needs weight a >= 1, got {a!r}")
    if a * (m // 2) >= _INT64_SAFE:
        raise ValueError("cyclic_group diameter exceeds the 64-bit range")

    def oracle(i, j):
        d = abs(i - j)
        if d > m - d:
            d = m - d
        return a * d

    def rows(i, targets):
        t = np.arange(m, dtype=np.int64) if targets is None else \
            np.asarray(targets, dtype=np.int64)
        d = np.abs(t - i)
        return a * np.minimum(d, m - d)

    space = FiniteMetricSpace(m, oracle, basepoint=0, label=f"circle({m},{a})",
                              rows=rows, diameter_hint=a * (m // 2),
                              min_positive_hint=a)
    space._metric = True
    return space


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
    if size > DEFAULT_PRODUCT_CAP:
        raise ValueError(f"wedge would have {size} points, "
                         f"over the cap {DEFAULT_PRODUCT_CAP}")

    # The layout, one entry per point: the arm it lies in (-1 for the
    # wedge point), its index within that arm, its distance to the wedge
    # point.  Both the oracle and the row kernel read these arrays.
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

    def oracle(i, j):
        if i == j:
            return 0
        oi = owner[i]
        if oi >= 0 and oi == owner[j]:
            return spaces[oi].dist(int(local[i]), int(local[j]))
        return int(to_base[i] + to_base[j])

    def rows(i, targets):  # through the wedge point, except in i's own arm
        t = slice(None) if targets is None else \
            np.asarray(targets, dtype=np.intp)
        out = to_base[t] + to_base[i]
        oi = owner[i]
        if oi >= 0:
            own = owner[t] == oi
            out[own] = spaces[oi].dist_row(int(local[i]), local[t][own])
        return out

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
        rows=rows, diameter_hint=diam, min_positive_hint=minpos)
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


def l1_sum(spaces: Sequence[FiniteMetricSpace], *,
           size_cap: int = DEFAULT_PRODUCT_CAP,
           label: Optional[str] = None) -> FiniteMetricSpace:
    """l1 direct sum: point tuples with coordinatewise summed distances.

    Point index encoding is mixed-radix with factor 1 varying fastest:
    index = x_1 + s_1*x_2 + s_1*s_2*x_3 + ...  The basepoint is the
    tuple of factor basepoints.
    """
    spaces = list(spaces)
    if not spaces:
        raise ValueError("l1_sum needs at least one factor")
    for f, sp in enumerate(spaces):
        if sp.basepoint is None:
            raise ValueError(f"l1_sum factor {f + 1} ({sp.label}) has no basepoint")
        if sp.size < 1:
            raise ValueError(f"l1_sum factor {f + 1} is empty")
    sizes = [sp.size for sp in spaces]
    total = 1
    for s in sizes:
        total *= s
        if total > size_cap:
            raise ValueError(f"l1_sum would have at least {total} points, "
                             f"over the cap {size_cap}")
    diam = sum(sp.diameter() for sp in spaces)
    if diam >= _INT64_SAFE:
        raise ValueError("l1_sum diameter exceeds the 64-bit range")

    nfac = len(spaces)

    def oracle(x, y):
        total_d = 0
        for sp, s in zip(spaces, sizes):
            total_d += sp.dist(x % s, y % s)
            x //= s
            y //= s
        return total_d

    rows = blocks = None
    if all(s <= MATRIX_CACHE_LIMIT for s in sizes):
        mats = [sp.densify() for sp in spaces]
        state: dict = {}

        def digits(points):  # the digit table, built on first use
            digs = state.get("digits")
            if digs is None:
                digs = np.empty((total, nfac), dtype=np.int64)
                vals = np.arange(total, dtype=np.int64)
                for f, s in enumerate(sizes):
                    digs[:, f] = vals % s
                    vals //= s
                state["digits"] = digs
            return digs if points is None else digs[np.asarray(points, dtype=np.intp)]

        def rows(i, targets):  # vectorised row kernel over the digit table
            sub = digits(targets)
            out = np.zeros(sub.shape[0], dtype=np.int64)
            for f, s in enumerate(sizes):
                i, r = divmod(i, s)
                out += mats[f][r][sub[:, f]]
            return out

        def blocks(I, J):
            # Gather each factor's columns once, then whole rows of the
            # gathered table: about 3x faster than one np.ix_ gather.
            dI, dJ = digits(I), digits(J)
            out = np.zeros((len(I), len(J)), dtype=np.int64)
            for f, mat in enumerate(mats):
                out += mat[:, dJ[:, f]][dI[:, f]]
            return out

    base = l1_blocks(spaces, [[[sp.basepoint]] for sp in spaces])[0][0]
    minpos = None
    pos_factors = [sp for sp in spaces if sp.size >= 2]
    if pos_factors:
        minpos = min(sp.min_positive_distance() for sp in pos_factors)
    space = FiniteMetricSpace(
        total, oracle, basepoint=base,
        label=label or "sum(" + ",".join(sp.label for sp in spaces) + ")",
        rows=rows, diameter_hint=diam, min_positive_hint=minpos)
    space._blocks = blocks
    space._structure = ("sum", tuple(spaces))
    space._metric = all(sp.metric_guaranteed for sp in spaces)
    return space


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
    orig_arr = np.asarray(orig, dtype=np.intp)

    def oracle(i, j):
        return space.dist(orig[i], orig[j])

    rows = None
    if space.has_fast_rows():
        def rows(i, targets):
            t = orig_arr if targets is None else orig_arr[np.asarray(targets, dtype=np.intp)]
            return space.dist_row(orig[i], t)

    base = None
    if space.basepoint is not None and space.basepoint in set(orig):
        base = orig.index(space.basepoint)
    shown = ",".join(str(i) for i in orig[:12]) + (",..." if len(orig) > 12 else "")
    sub = FiniteMetricSpace(len(orig), oracle, basepoint=base,
                            label=f"sub({space.label},[{shown}])", rows=rows)
    sub._metric = space.metric_guaranteed
    return sub


def scale(space: FiniteMetricSpace, a: int) -> FiniteMetricSpace:
    """The same point set with every distance multiplied by a >= 1."""
    if not isinstance(a, int) or a < 1:
        raise ValueError(f"scale needs an integer factor >= 1, got {a!r}")
    diam = space.diameter() * a
    if diam >= _INT64_SAFE:
        raise ValueError("scaled diameter exceeds the 64-bit range")
    rows = None
    if space.has_fast_rows():
        def rows(i, targets):
            return a * space.dist_row(i, targets)
    minpos = None
    if space.size >= 2:
        minpos = a * space.min_positive_distance()
    scaled = FiniteMetricSpace(space.size, lambda i, j: a * space.dist(i, j),
                               basepoint=space.basepoint,
                               label=f"scale({space.label},{a})", rows=rows,
                               diameter_hint=diam, min_positive_hint=minpos)
    scaled._metric = space.metric_guaranteed
    return scaled


def relabel(space: FiniteMetricSpace, perm: Sequence[int]) -> FiniteMetricSpace:
    """Isometric copy with point i renamed to perm[i]."""
    perm = list(perm)
    if sorted(perm) != list(range(space.size)):
        raise ValueError("perm must be a permutation of 0..size-1")
    inv = [0] * space.size
    for i, p in enumerate(perm):
        inv[p] = i
    inv_arr = np.asarray(inv, dtype=np.intp)

    def oracle(i, j):
        return space.dist(inv[i], inv[j])

    rows = None
    if space.has_fast_rows():
        def rows(i, targets):
            t = inv_arr if targets is None else inv_arr[np.asarray(targets, dtype=np.intp)]
            return space.dist_row(inv[i], t)

    base = None if space.basepoint is None else perm[space.basepoint]
    copy = FiniteMetricSpace(space.size, oracle, basepoint=base,
                             label=f"relabel({space.label})", rows=rows,
                             diameter_hint=space._diam,
                             min_positive_hint=space._minpos)
    copy._metric = space.metric_guaranteed
    return copy


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
