"""Metric core: constructors, oracles, and axiom checking."""

import random

import numpy as np
import pytest

from scaledim import (FiniteMetricSpace, MetricError, ScalePair, check_metric,
                      cyclic_group, from_matrix, interval, l1_sum,
                      random_metric_space, read_matrix_file, relabel, scale,
                      subspace, wedge)


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
    assert scale(s, 2).structure is None
    assert subspace(s, [0, 1]).structure is None
    assert a.structure is None


def test_l1_sum_size_cap():
    with pytest.raises(ValueError, match="cap"):
        l1_sum([cyclic_group(100, 1)] * 4, size_cap=10**6)


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


@pytest.mark.parametrize("make", [
    lambda: interval(6, 3),
    lambda: cyclic_group(7, 2),
    lambda: from_matrix([[0, 2, 3, 1], [2, 0, 1, 3], [3, 1, 0, 2],
                         [1, 3, 2, 0]]),
    lambda: FiniteMetricSpace(6, lambda i, j: 2 * abs(i - j) + (i != j)),
    _small_sum,
    lambda: subspace(_small_sum(), [0, 3, 4, 9, 17, 20, 35]),
    lambda: scale(_small_sum(), 3),
    lambda: relabel(_small_sum(), random.Random(4).sample(range(36), 36)),
    lambda: wedge([cyclic_group(5, 1), _small_sum(), interval(2, 4)]),
], ids=["interval", "circle", "matrix", "oracle", "sum", "sub-of-sum",
        "scale-of-sum", "relabel-of-sum", "wedge-with-sum-arm"])
def test_dist_block_equals_stacked_rows(make):
    sp = make()
    rng = random.Random(sp.label)
    everything = list(range(sp.size))
    picks = [rng.choices(everything, k=rng.randint(1, sp.size))
             for _ in range(3)]
    for rows in [everything, []] + picks:
        for cols in [everything, []] + picks:
            block = sp.dist_block(rows, cols)
            assert block.dtype == np.int64
            assert block.shape == (len(rows), len(cols))
            for k, i in enumerate(rows):
                assert block[k].tolist() == sp.dist_row(i, cols).tolist()


def test_sum_blocks_read_no_rows(monkeypatch):
    # A sum serves blocks from its factors' matrices, not row by row.
    sp = _small_sum()
    expected = np.stack([sp.dist_row(i) for i in range(sp.size)])

    def no_rows(*args):
        raise AssertionError("dist_row called")

    monkeypatch.setattr(FiniteMetricSpace, "dist_row", no_rows)
    pts = [5, 0, 35, 17, 17]
    assert (sp.dist_block(pts, range(sp.size)) == expected[pts]).all()


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
