"""Metric core: constructors, oracles, and axiom checking."""

import random

import numpy as np
import pytest

from scaledim import spaces
from scaledim import (FiniteMetricSpace, MetricError, ScalePair, check_metric,
                      cyclic_group, from_matrix, group_truncation, interval,
                      l1_sum, lambda_components, random_metric_space,
                      read_matrix_file, relabel, scale, subspace, wedge,
                      wedge_truncation)


def all_pairs_equal(a, b):
    assert a.size == b.size
    for i in range(a.size):
        for j in range(a.size):
            assert a.dist(i, j) == b.dist(i, j), (i, j)


def test_interval_distances():
    sp = interval(3, 2)
    assert sp.size == 4
    assert [sp.dist(0, j) for j in range(4)] == [0, 2, 4, 6]
    assert sp.dist(1, 3) == 4
    assert sp.diameter() == 6
    assert sp.min_positive_distance() == 2
    assert sp.basepoint == 0


def test_interval_rejects_bad_args():
    with pytest.raises(ValueError):
        interval(0, 1)
    with pytest.raises(ValueError):
        interval(3, 0)
    with pytest.raises(ValueError):
        interval(2**40, 2**30)  # diameter would overflow the fast path


def test_circle_distances():
    sp = cyclic_group(5, 1)
    assert [sp.dist(0, j) for j in range(5)] == [0, 1, 2, 2, 1]
    assert sp.diameter() == 2
    sp = cyclic_group(6, 3)
    assert sp.dist(1, 4) == 9
    assert sp.diameter() == 9
    with pytest.raises(ValueError):
        cyclic_group(2, 1)


def test_rows_match_scalar_oracle():
    for sp in (interval(5, 3), cyclic_group(7, 2),
               l1_sum([interval(2, 1), cyclic_group(4, 2)])):
        for i in range(sp.size):
            row = sp.dist_row(i)
            assert row.dtype == np.int64
            assert [int(v) for v in row] == [sp.dist(i, j)
                                             for j in range(sp.size)]
        some = [0, sp.size - 1]
        assert list(sp.dist_row(1, some)) == [sp.dist(1, j) for j in some]


def test_densify_and_cache():
    sp = cyclic_group(9, 2)
    mat = sp.densify()
    assert mat.shape == (9, 9)
    assert int(mat[2, 7]) == sp.dist(2, 7)


def test_wedge_layout_and_distances():
    left = interval(2, 1)
    right = cyclic_group(4, 3)
    w = wedge([left, right])
    # point 0 is the glued basepoint, then interval points 1,2, then
    # circle points 1,2,3
    assert w.size == 6
    assert [w.dist(0, i) for i in range(6)] == [0, 1, 2, 3, 6, 3]
    assert w.dist(1, 2) == 1            # same arm, interval metric
    assert w.dist(2, 4) == 2 + 6        # across arms through the base
    assert w.diameter() == 8            # interval tip to circle antipode
    assert w.min_positive_distance() == 1
    check_metric(w)
    assert w.structure == ("wedge", (left, right))
    assert w.label == "wedge(interval(2,1),circle(4,3))"
    assert wedge([left, right], label="arms").label == "arms"
    with pytest.raises(AttributeError):
        w.structure = None


def test_wedge_rows_match_scalar_oracle(random_wedge):
    for seed in range(8):
        rng = random.Random(seed)
        w = random_wedge(rng)
        assert w.has_fast_rows()
        for i in range(w.size):
            truth = [w.dist(i, j) for j in range(w.size)]
            row = w.dist_row(i)
            assert row.dtype == np.int64
            assert row.tolist() == truth, (seed, i)
            shuffled = list(range(w.size))
            rng.shuffle(shuffled)
            repeats = [rng.randrange(w.size) for _ in range(2 * w.size)]
            for targets in (shuffled, repeats, []):
                got = w.dist_row(i, targets)
                assert got.dtype == np.int64
                assert got.tolist() == [truth[j] for j in targets], (seed, i)
        # The closed forms agree with a sweep over the rows.
        assert w.diameter() == max(max(w.dist_row(i)) for i in range(w.size))
        check_metric(w)


def test_wedge_needs_basepoints():
    anon = from_matrix([[0, 1], [1, 0]])
    with pytest.raises(ValueError, match="factor 1"):
        wedge([anon])


def test_l1_sum_mixed_radix_layout():
    a = interval(1, 1)          # 2 points
    b = cyclic_group(3, 2)      # 3 points
    s = l1_sum([a, b])
    assert s.size == 6
    assert s.basepoint == 0
    # index = x_a + 2 * x_b, first factor varying fastest
    assert s.dist(0, 1) == 1                 # step in the first factor
    assert s.dist(0, 2) == 2                 # step in the second factor
    assert s.dist(1, 4) == a.dist(1, 0) + b.dist(0, 2)
    assert s.diameter() == a.diameter() + b.diameter()
    check_metric(s)
    assert s.structure == ("sum", (a, b))
    assert scale(s, 2).structure[0] == "sum"
    assert subspace(s, [0, 1]).structure is None
    assert a.structure is None


def test_l1_sum_size_cap():
    with pytest.raises(ValueError, match="cap"):
        l1_sum([cyclic_group(100, 1)] * 4)


def test_interval_and_circle_size_cap():
    with pytest.raises(ValueError, match="1000001 points, over the cap"):
        interval(10**6, 1)
    assert interval(999_999, 1).size == 10**6
    with pytest.raises(ValueError, match="1000001 points, over the cap"):
        cyclic_group(10**6 + 1, 1)
    assert cyclic_group(10**6, 1).size == 10**6


def test_wedge_size_cap():
    # 1 + 2 * 599999 points: refused before any per-point work
    with pytest.raises(ValueError, match="1199999 points, over the cap"):
        wedge([cyclic_group(600_000, 1)] * 2)


def test_subspace_renumbers_in_order():
    sp = cyclic_group(8, 1)
    sub = subspace(sp, [6, 0, 3])
    assert sub.size == 3
    # kept order 0, 3, 6
    assert sub.dist(0, 1) == sp.dist(0, 3)
    assert sub.dist(1, 2) == sp.dist(3, 6)
    assert sub.basepoint == 0
    with pytest.raises(ValueError):
        subspace(sp, [9])
    with pytest.raises(ValueError):
        subspace(sp, [])


def test_scale_multiplies_everything():
    sp = cyclic_group(5, 1)
    doubled = scale(sp, 2)
    all_pairs_equal(doubled, cyclic_group(5, 2))
    assert doubled.diameter() == 4
    assert doubled.min_positive_distance() == 2


def test_relabel_is_isometric():
    sp = interval(4, 2)
    perm = [3, 0, 4, 1, 2]
    moved = relabel(sp, perm)
    for i in range(5):
        for j in range(5):
            assert moved.dist(perm[i], perm[j]) == sp.dist(i, j)
    assert moved.basepoint == perm[0]
    with pytest.raises(ValueError):
        relabel(sp, [0, 0, 1, 2, 3])


def test_from_matrix_validates_axioms():
    with pytest.raises(MetricError) as err:
        from_matrix([[0, 1], [2, 0]])
    assert err.value.axiom == "symmetry"
    with pytest.raises(MetricError) as err:
        from_matrix([[0, 5, 1], [5, 0, 1], [1, 1, 0]])
    assert err.value.axiom == "triangle"
    assert err.value.witness in {(0, 1, 2), (1, 0, 2)}
    with pytest.raises(MetricError) as err:
        from_matrix([[1]])
    assert err.value.axiom == "identity"
    with pytest.raises(MetricError) as err:
        from_matrix([[0, 0], [0, 0]])
    assert err.value.axiom == "positivity"
    with pytest.raises(MetricError) as err:
        from_matrix([[0, 1.5], [1.5, 0]])
    assert err.value.axiom == "integrality"


def test_matrix_file_roundtrip(tmp_path):
    rows = [[0, 2, 3], [2, 0, 1], [3, 1, 0]]
    path = tmp_path / "space.txt"
    path.write_text("3\n" + "\n".join(" ".join(str(v) for v in r)
                                      for r in rows) + "\n")
    assert read_matrix_file(path) == rows
    sp = from_matrix(read_matrix_file(path))
    assert sp.dist(0, 2) == 3

    (tmp_path / "short.txt").write_text("3\n0 1\n")
    with pytest.raises(ValueError, match="expected 9 entries"):
        read_matrix_file(tmp_path / "short.txt")
    (tmp_path / "junk.txt").write_text("2\n0 x\nx 0\n")
    with pytest.raises(ValueError, match="non-integer"):
        read_matrix_file(tmp_path / "junk.txt")


def test_random_metric_space_is_metric_and_reproducible():
    for seed in range(12):
        sp = random_metric_space(7, seed)
        check_metric(sp)
        again = random_metric_space(7, seed)
        all_pairs_equal(sp, again)
    r1 = random_metric_space(5, 1)
    r2 = random_metric_space(5, 2)
    diffs = sum(r1.dist(i, j) != r2.dist(i, j)
                for i in range(5) for j in range(5))
    assert diffs > 0


def test_random_metric_space_accepts_shared_rng():
    rng = random.Random(99)
    a = random_metric_space(4, rng)
    b = random_metric_space(4, rng)
    assert any(a.dist(i, j) != b.dist(i, j)
               for i in range(4) for j in range(4)) or True
    check_metric(a)
    check_metric(b)


def test_lambda_discreteness():
    sp = cyclic_group(9, 2)
    assert sp.is_lambda_discrete(2)
    assert sp.is_lambda_discrete(1)
    assert not sp.is_lambda_discrete(3)
    single = from_matrix([[0]])
    assert single.is_lambda_discrete(10**9)
    with pytest.raises(ValueError):
        single.min_positive_distance()


def test_scale_pair_validation():
    assert ScalePair(0, 0).lam == 0
    with pytest.raises(ValueError):
        ScalePair(-1, 2)
    with pytest.raises(ValueError):
        ScalePair(1, -2)


def test_check_metric_catches_broken_oracle():
    # a hand-built "space" that violates symmetry
    bad = FiniteMetricSpace(3, lambda i, j: 0 if i == j else i + 2 * j)
    with pytest.raises(MetricError):
        check_metric(bad)


@pytest.mark.parametrize("dist, axiom", [
    (lambda i, j: abs(i - j) + 1, "identity"),
    (lambda i, j: abs(i - j) + (i > j), "symmetry"),
    (lambda i, j: 0, "positivity"),
    (lambda i, j: (i - j) ** 2, "triangle"),
], ids=["identity", "symmetry", "positivity", "triangle"])
def test_check_metric_samples_above_the_exhaustive_limit(dist, axiom,
                                                         monkeypatch):
    """Past EXHAUSTIVE_CHECK_LIMIT points check_metric reads seeded
    pairs and triples, not the table, and still finds each broken axiom
    of a bare oracle; a metric passes."""
    monkeypatch.setattr(spaces, "_check_table", None)  # never called
    size = spaces.EXHAUSTIVE_CHECK_LIMIT + 1
    with pytest.raises(MetricError) as err:
        check_metric(FiniteMetricSpace(size, dist))
    assert err.value.axiom == axiom
    check_metric(FiniteMetricSpace(size, lambda i, j: abs(i - j)))


def _floyd_warshall(n, seed):
    # The draws of random_metric_space, closed by the plain triple loop.
    rng = random.Random(seed)
    d = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = rng.randint(1, 9)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    return d


@pytest.mark.parametrize("n, seed", [(1, 0), (2, 3), (7, 5), (16, 11),
                                     (40, 1), (60, 6)])
def test_random_metric_space_is_the_shortest_path_closure(n, seed):
    assert random_metric_space(n, seed).densify().tolist() == _floyd_warshall(n, seed)


def _with_triangle_fault_at_the_end():
    # All distances 2, but d(198,199) = 3 > d(198,197) + d(197,199) = 2.
    rows = [[0 if i == j else 2 for j in range(200)] for i in range(200)]
    for i, j, v in ((197, 198, 1), (197, 199, 1), (198, 199, 3)):
        rows[i][j] = rows[j][i] = v
    return rows


@pytest.mark.parametrize("rows, axiom, witness", [
    ([[0, 1], [1, 1]], "identity", (1,)),
    ([[0, 1], [2, 0]], "symmetry", (0, 1)),
    ([[0, 0], [0, 0]], "positivity", (0, 1)),
    ([[0, 5, 1], [5, 0, 1], [1, 1, 0]], "triangle", (0, 1, 2)),
    # an identity fault is reported before an asymmetric pair in an
    # earlier row
    ([[0, 1, 2], [3, 0, 1], [2, 1, 4]], "identity", (2,)),
    # symmetry and positivity faults at different pairs: the first pair
    # in row order wins
    ([[0, 1, 0], [1, 0, 2], [0, 3, 0]], "positivity", (0, 2)),
    ([[0, 3, 1], [2, 0, 0], [1, 0, 0]], "symmetry", (0, 1)),
    # two triangle faults, d(1,2) and d(0,3): the least (i, j, k) wins
    ([[0, 2, 2, 5], [2, 0, 5, 2], [2, 5, 0, 2], [5, 2, 2, 0]],
     "triangle", (0, 3, 1)),
    (_with_triangle_fault_at_the_end(), "triangle", (198, 199, 197)),
], ids=["identity", "symmetry", "positivity", "triangle",
        "identity-before-symmetry", "positivity-first", "symmetry-first",
        "two-triangles", "200-points-last-fault"])
def test_matrix_and_oracle_report_the_same_fault(rows, axiom, witness):
    with pytest.raises(MetricError) as from_rows:
        from_matrix(rows)
    oracle = FiniteMetricSpace(len(rows), lambda i, j: rows[i][j])
    with pytest.raises(MetricError) as from_oracle:
        check_metric(oracle)
    for err in (from_rows.value, from_oracle.value):
        assert (err.axiom, err.witness) == (axiom, witness)
    assert str(from_rows.value) == str(from_oracle.value)


@pytest.mark.parametrize("value, axiom", [(1.5, "integrality"),
                                          (2**62, "magnitude")])
def test_check_metric_rejects_entries_it_cannot_hold_exactly(value, axiom):
    bad = FiniteMetricSpace(3, lambda i, j: 0 if i == j else value)
    with pytest.raises(MetricError) as err:
        check_metric(bad)
    assert (err.value.axiom, err.value.witness) == (axiom, (0, 1))


def test_matrix_file_with_negative_size_is_refused(tmp_path):
    path = tmp_path / "neg.txt"
    path.write_text("-2\n0 1 1 0\n")
    with pytest.raises(ValueError, match="neg.txt: negative size -2"):
        read_matrix_file(path)
    (tmp_path / "empty.txt").write_text("0\n")
    assert read_matrix_file(tmp_path / "empty.txt") == []


def _small_sum():
    return l1_sum([cyclic_group(3, 1), interval(2, 2), cyclic_group(4, 3)])


def _small_wedge():
    return wedge([cyclic_group(5, 1), _small_sum(), interval(2, 4)])


def _bare():
    # No kernel and no matrix: only the oracle serves it.
    return FiniteMetricSpace(6, lambda i, j: 2 * abs(i - j) + (i != j),
                             basepoint=0)


def _oracle_table(sp):
    return np.array([[sp.dist(i, j) for j in range(sp.size)]
                     for i in range(sp.size)], dtype=np.int64)


def _check_blocks(sp):
    # dist_row is one row of the block kernel, so the scalar oracle,
    # which no kernel serves, is the reference for both.
    truth = _oracle_table(sp)
    rng = random.Random(sp.label)
    everything = list(range(sp.size))
    picks = [rng.choices(everything, k=rng.randint(1, sp.size))
             for _ in range(3)]
    for rows in [everything, []] + picks:
        for cols in [None, everything, []] + picks:
            block = sp.dist_block(rows, cols)
            want = truth[rows][:, everything if cols is None else cols]
            assert block.dtype == np.int64
            assert block.shape == want.shape
            assert block.tolist() == want.tolist()
            for k, i in enumerate(rows):
                assert block[k].tolist() == sp.dist_row(i, cols).tolist()


_SUMS = {
    "sum": _small_sum,
    "sum-with-oracle-factor": lambda: l1_sum([_bare(), cyclic_group(3, 2)]),
    "wedge-with-sum-arm": _small_wedge,
    "nested-wedge": lambda: wedge([_small_wedge(), cyclic_group(4, 3),
                                   _small_sum()]),
}


_SPACES = {
    "interval": lambda: interval(6, 3),
    "circle": lambda: cyclic_group(7, 2),
    "matrix": lambda: from_matrix([[0, 2, 3, 1], [2, 0, 1, 3], [3, 1, 0, 2],
                                   [1, 3, 2, 0]]),
    "oracle": _bare,
    "sub-of-oracle": lambda: subspace(_bare(), [0, 2, 3, 5]),
    "scale-of-oracle": lambda: scale(_bare(), 3),
    "relabel-of-oracle": lambda: relabel(_bare(), [4, 0, 5, 2, 1, 3]),
    "sub-of-sum": lambda: subspace(_small_sum(), [0, 3, 4, 9, 17, 20, 35]),
    "scale-of-sum": lambda: scale(_small_sum(), 3),
    "relabel-of-sum": lambda: relabel(_small_sum(),
                                      random.Random(4).sample(range(36), 36)),
    "sub-of-wedge": lambda: subspace(_small_wedge(),
                                     [0, 2, 5, 6, 13, 30, 40, 41]),
    "scale-of-wedge": lambda: scale(_small_wedge(), 2),
    "relabel-of-wedge": lambda: relabel(_small_wedge(),
                                        random.Random(5).sample(range(42), 42)),
    **_SUMS,
}


@pytest.mark.parametrize("make", _SPACES.values(), ids=_SPACES)
def test_dist_block_equals_stacked_rows(make):
    _check_blocks(make())


def _check_scans(sp):
    # With _SCAN_ELEMS at 16, a scan over 2 columns reads blocks of 8
    # rows, over 5 columns blocks of 3 and over 9 columns or all of a
    # sum's points blocks of one.  Rows repeat and leave a shorter last
    # block.
    truth = _oracle_table(sp)
    rng = random.Random(sp.label)
    everything = list(range(sp.size))
    picks = [rng.choices(everything, k=k) for k in (2, 5, 9)]
    for rows in (everything, rng.choices(everything, k=2 * sp.size + 3)):
        for cols in [None, everything, []] + picks:
            width = sp.size if cols is None else len(cols)
            step = max(1, 16 // max(1, width))
            scan = list(sp.row_blocks(rows, cols))
            assert [start for start, _ in scan] == list(
                range(0, len(rows), step))
            got = np.concatenate([block for _, block in scan])
            want = truth[rows][:, everything if cols is None else cols]
            assert got.dtype == np.int64
            assert got.shape == want.shape
            assert got.tolist() == want.tolist()


@pytest.mark.parametrize("make", _SPACES.values(), ids=_SPACES)
def test_multi_block_scans_equal_the_oracle(make, monkeypatch):
    monkeypatch.setattr(spaces, "_SCAN_ELEMS", 16)
    _check_scans(make())


@pytest.mark.parametrize("make", _SPACES.values(), ids=_SPACES)
def test_dist_block_past_one_block_reads_block_by_block(make, monkeypatch):
    # With _SCAN_ELEMS at 16, a read that fits in one block is one
    # reader call, and a longer one fills its result with one call per
    # block of rows, as row_blocks reads them.
    sp = make()
    reader = FiniteMetricSpace._reader
    calls = []

    def spy(self, cols):
        read = reader(self, cols)
        if self is not sp:
            return read

        def counted(I):
            calls.append(len(I))
            return read(I)

        return counted

    monkeypatch.setattr(FiniteMetricSpace, "_reader", spy)
    monkeypatch.setattr(spaces, "_SCAN_ELEMS", 16)
    truth = _oracle_table(sp)
    everything = list(range(sp.size))
    for cols in (None, everything[:5], [0]):
        picked = everything if cols is None else cols
        step = max(1, 16 // len(picked))
        for rows in (everything[:step], (everything * 2)[:step + 1],
                     everything + everything[:3]):
            calls.clear()
            got = sp.dist_block(rows, cols)
            assert got.dtype == np.int64
            assert got.tolist() == truth[rows][:, picked].tolist()
            assert calls == [len(rows[s:s + step])
                             for s in range(0, len(rows), step)]


@pytest.mark.parametrize("make", _SUMS.values(), ids=_SUMS)
def test_sum_blocks_without_factor_matrices(make, monkeypatch):
    # With the matrix limit low, a sum keeps no factor matrix and reads
    # its factors' own kernels, down to the bare oracle's.
    monkeypatch.setattr(spaces, "MATRIX_CACHE_LIMIT", 2)
    sp = make()
    sums = [sp] if sp.structure[0] == "sum" else [
        f for f in sp.structure[1] if f.structure and f.structure[0] == "sum"]
    assert all(f._matrix is None for s in sums for f in s.structure[1])
    _check_blocks(sp)
    monkeypatch.setattr(spaces, "_SCAN_ELEMS", 16)
    _check_scans(sp)


def test_sum_blocks_read_no_rows(monkeypatch):
    # A sum serves blocks from its factors' blocks, and the spaces
    # built on one forward blocks to it, not row by row.
    makers = [_small_sum,
              lambda: subspace(_small_sum(), [0, 3, 4, 9, 17, 20, 35]),
              lambda: scale(_small_sum(), 3),
              lambda: relabel(_small_sum(),
                              random.Random(4).sample(range(36), 36)),
              _small_wedge]
    built = [(make(), make()) for make in makers]
    truths = [_oracle_table(sp) for sp, _ in built]

    def no_rows(*args):
        raise AssertionError("dist_row called")

    monkeypatch.setattr(FiniteMetricSpace, "dist_row", no_rows)
    for (sp, fresh), truth in zip(built, truths):
        pts = [5, 0, sp.size - 1, 4, 4]
        assert (sp.dist_block(pts, range(sp.size)) == truth[pts]).all()
        assert (sp.dist_block(pts) == truth[pts]).all()
        assert (fresh.densify() == truth).all(), fresh.label


def test_l1_digits_are_the_sums_mixed_radix_coordinates():
    # Factor 1 is the lowest digit, and a point's distance to another is
    # the sum of its factors' distances between their digits.
    sp = _small_sum()
    factors = list(sp.structure[1])
    points = np.arange(sp.size)
    digits = spaces.l1_digits(factors, points)
    assert len(digits) == len(factors)
    stride, index = 1, np.zeros(sp.size, dtype=np.int64)
    for f, x in zip(factors, digits):
        assert ((0 <= x) & (x < f.size)).all()
        index += stride * x
        stride *= f.size
    assert index.tolist() == points.tolist()
    some = [11, 0, 35, 17]
    picked = spaces.l1_digits(factors, some)
    assert [x.tolist() for x in picked] == [x[some].tolist() for x in digits]
    truth = _oracle_table(sp)
    for i in some:
        for j in range(sp.size):
            assert truth[i, j] == sum(f.dist(int(x[i]), int(x[j]))
                                      for f, x in zip(factors, digits))


def test_sum_reads_each_factor_once_per_block(monkeypatch):
    # A scan of 5-row blocks binds the sum's reader once, and each block
    # reads each factor (of 3, 3 and 4 points) once, its rows' digits
    # against the columns' digits, through a reader of the factor bound
    # for that read.  A one-row read reads each factor's one row.
    sp = _small_sum()
    factors = list(sp.structure[1])
    truth = _oracle_table(sp)
    reads, binds = [], []
    dist_block, reader = FiniteMetricSpace.dist_block, FiniteMetricSpace._reader

    def spy_block(self, rows, cols=None):
        if self in factors:
            reads.append((factors.index(self), len(rows)))
        return dist_block(self, rows, cols)

    def spy_reader(self, cols):
        binds.append(self)
        return reader(self, cols)

    monkeypatch.setattr(FiniteMetricSpace, "dist_block", spy_block)
    monkeypatch.setattr(FiniteMetricSpace, "_reader", spy_reader)
    monkeypatch.setattr(spaces, "_SCAN_ELEMS", 16)
    cols = [1, 35, 7]
    rows = list(range(sp.size)) + [4, 0, 4]
    scan = list(sp.row_blocks(rows, cols))
    assert [len(block) for _, block in scan] == [5] * 7 + [4]
    got = np.concatenate([block for _, block in scan])
    assert got.tolist() == truth[rows][:, cols].tolist()
    assert reads == [(f, len(block)) for _, block in scan for f in range(3)]
    assert binds == [sp] + factors * len(scan)
    reads.clear()
    assert sp.dist_row(5, cols).tolist() == truth[5, cols].tolist()
    assert reads == [(0, 1), (1, 1), (2, 1)]


@pytest.mark.parametrize("a", [2, 3])
@pytest.mark.parametrize("make", [
    lambda: group_truncation(3, 3),
    lambda: wedge_truncation(3, 4),
    _small_wedge,
    lambda: l1_sum([interval(1, 2), _small_wedge()]),
], ids=["group", "wedgegroup", "wedge-with-sum-arm", "sum-with-wedge-arm"])
def test_scale_of_a_sum_or_wedge_keeps_its_structure(make, a):
    # scale(X, a) is the sum or wedge of the scaled factors: the same
    # points, a times the distances, and the split of X's components.
    x = make()
    y = scale(x, a)
    assert (y.size, y.basepoint) == (x.size, x.basepoint)
    assert y.structure[0] == x.structure[0]
    assert y.label == f"scale({x.label},{a})"
    assert y.metric_guaranteed == x.metric_guaranteed
    assert y.diameter() == a * x.diameter()
    assert y.known_min_positive == a * x.known_min_positive
    rng = random.Random(x.label)
    rows = sorted(rng.sample(range(x.size), min(x.size, 40)))
    for cols in (None, rows[::-1]):
        assert (y.dist_block(rows, cols) == a * x.dist_block(rows, cols)).all()
    assert [y.dist(i, j) for i in rows for j in rows] == [
        a * x.dist(i, j) for i in rows for j in rows]
    lams = {0, x.diameter()} | set(x.dist_row(x.basepoint).tolist())
    for lam in sorted(lams | {v - 1 for v in lams if v}):
        want = lambda_components(x, lam)
        got = lambda_components(y, a * lam)
        assert got.blocks == want.blocks, lam
        assert got.diameters == tuple(a * d for d in want.diameters), lam


@pytest.mark.parametrize("scan_elems", [1, 50, 2**14])
@pytest.mark.parametrize("make", [
    _small_sum,
    _small_wedge,
    lambda: scale(_small_sum(), 2),
    lambda: random_metric_space(12, 3),
    lambda: FiniteMetricSpace(9, lambda i, j: 2 * abs(i - j) + (i != j)),
], ids=["sum", "wedge", "scale-of-sum", "matrix", "oracle"])
def test_whole_space_scans_of_a_hintless_subspace(make, scan_elems,
                                                  monkeypatch):
    # A subspace has no hints, so densify, diameter and the least
    # positive distance all scan it, in row blocks of scan_elems
    # entries.  Plain sweeps of the oracle are the reference.
    monkeypatch.setattr(spaces, "_SCAN_ELEMS", scan_elems)
    pts = sorted(random.Random(scan_elems).sample(range(make().size), 7))
    truth = _oracle_table(subspace(make(), pts))
    off = truth[~np.eye(len(pts), dtype=bool)]
    assert subspace(make(), pts).densify().tolist() == truth.tolist()
    assert subspace(make(), pts).diameter() == int(truth.max())
    sub = subspace(make(), pts)
    assert sub.known_min_positive is None
    assert sub.min_positive_distance() == int(off.min())
    assert sub.known_min_positive == int(off.min())


def test_known_min_positive_is_the_hint_or_the_memo():
    assert cyclic_group(7, 2).known_min_positive == 2
    assert wedge([interval(2, 3), cyclic_group(4, 5)]).known_min_positive == 3
    sp = subspace(interval(9, 2), [1, 4, 6])
    assert sp.known_min_positive is None
    assert sp.min_positive_distance() == 4
    assert sp.known_min_positive == 4
    with pytest.raises(AttributeError):
        sp.known_min_positive = 1


@pytest.mark.parametrize("seed, n, max_entry, matrix", [
    (0, 4, 9, [[0, 7, 7, 1], [7, 0, 5, 8], [7, 5, 0, 8], [1, 8, 8, 0]]),
    (1, 5, 9, [[0, 3, 2, 4, 2], [3, 0, 5, 7, 5], [2, 5, 0, 6, 4],
               [4, 7, 6, 0, 2], [2, 5, 4, 2, 0]]),
    (2, 6, 30, [[0, 9, 21, 2, 3, 3], [9, 0, 12, 11, 6, 12],
                [21, 12, 0, 23, 18, 24], [2, 11, 23, 0, 5, 5],
                [3, 6, 18, 5, 0, 6], [3, 12, 24, 5, 6, 0]]),
    (3, 1, 9, [[0]]),
])
def test_random_metric_space_matrices_are_pinned(seed, n, max_entry, matrix):
    sp = random_metric_space(n, seed, max_entry=max_entry)
    assert sp.densify().tolist() == matrix
    assert sp.label == f"random({n})"
    assert sp.metric_guaranteed


def test_random_metric_space_refuses_entries_past_the_64_bit_range():
    with pytest.raises(ValueError, match="64-bit"):
        random_metric_space(4, 0, max_entry=2**61)


def _faulty_leaf():
    """circle(6,2) whose block kernel adds 1 to every table it reads,
    while its oracle stays right."""
    leaf = cyclic_group(6, 2)
    good = leaf._blocks
    leaf._blocks = lambda J: (lambda I: good(J)(I) + 1)
    return leaf


_ON_A_LEAF = {
    "sum": lambda leaf: l1_sum([interval(2, 1), leaf]),
    "wedge": lambda leaf: wedge([interval(2, 1), leaf, cyclic_group(4, 3)]),
    "scale": lambda leaf: scale(leaf, 3),
    "relabel": lambda leaf: relabel(leaf, [3, 0, 5, 1, 4, 2]),
    "sub": lambda leaf: subspace(leaf, [0, 2, 3, 5]),
}


@pytest.mark.parametrize("build", _ON_A_LEAF.values(), ids=_ON_A_LEAF)
def test_dist_reads_the_leaf_oracles_not_their_kernels(build):
    # dist is the independent path: a fault in a leaf's kernel, which a
    # sum's factor matrix or a wedge's distances to the wedge point are
    # read through, must not reach any composite's dist.
    faulty = _faulty_leaf()
    assert faulty.dist_block([0, 1], [3])[:, 0].tolist() == [7, 5]
    composite, clean = build(faulty), build(cyclic_group(6, 2))
    all_pairs_equal(composite, clean)


@pytest.mark.parametrize("make", [
    lambda: random_metric_space(5, 1),
    lambda: from_matrix([[0, 2, 3, 1], [2, 0, 1, 3], [3, 1, 0, 2],
                         [1, 3, 2, 0]]),
    lambda: cyclic_group(7, 2),
], ids=["random", "matrix", "densified-circle"])
def test_rows_are_new_arrays(make):
    sp = make()
    sp.densify()
    d01 = sp.dist(0, 1)
    for row in (sp.dist_row(0), sp.dist_row(0, [1, 2])):
        row[:] = 999
    assert sp.dist(0, 1) == d01
    assert sp.dist_block([0], [1]).tolist() == [[d01]]
    assert sp.dist_row(0)[1] == d01
