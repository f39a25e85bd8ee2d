"""Cover validation, shrinking, and certificate files."""

import random

import numpy as np
import pytest

from scaledim import (Certificate, FiniteMetricSpace, ScaledCover, ScalePair,
                      ValidationReport, Violation, covers, cyclic_group,
                      dim_at_scale,
                      format_certificate, from_matrix, interval, l1_sum,
                      parse_certificate, random_metric_space,
                      read_certificate, relabel, scale, shrink_to_partition,
                      subspace, validate_cover, wedge, write_certificate)
from scaledim.spacespec import build_space, parse_spec


def path4():
    return interval(3, 1)  # points 0,1,2,3 in a line


def test_valid_cover_passes():
    cover = ScaledCover.of(1, 2, [[[0, 1, 2]], [[3]]])
    report = validate_cover(path4(), cover)
    assert report.ok
    assert report.describe() == "valid cover"


def test_uncovered_point_reported():
    cover = ScaledCover.of(1, 2, [[[0, 1]], [[3]]])
    report = validate_cover(path4(), cover)
    assert not report.ok
    kinds = [v.kind for v in report.violations]
    assert kinds == ["uncovered-point"]
    assert report.violations[0].witness == (2,)


def test_separation_needs_strict_inequality():
    # clusters {0,1} and {2,3} sit at distance exactly 1 = lam: invalid
    cover = ScaledCover.of(1, 2, [[[0, 1], [2, 3]]])
    report = validate_cover(path4(), cover)
    assert [v.kind for v in report.violations] == ["family-separation"]
    v = report.violations[0]
    assert v.value == 1
    assert v.witness[3:] == (1, 2)  # the realising pair
    # the same clusters in different families are fine
    split = ScaledCover.of(1, 2, [[[0, 1]], [[2, 3]]])
    assert validate_cover(path4(), split).ok


def test_oversized_cluster_reported():
    cover = ScaledCover.of(1, 2, [[[0, 1, 2, 3]]])
    report = validate_cover(path4(), cover)
    assert [v.kind for v in report.violations] == ["cluster-diameter"]
    assert report.violations[0].value == 3


def test_out_of_range_point_is_usage_error():
    cover = ScaledCover.of(1, 2, [[[0, 9]]])
    with pytest.raises(ValueError, match="out of range"):
        validate_cover(path4(), cover)


def test_empty_cluster_rejected_at_construction():
    with pytest.raises(ValueError, match="nonempty"):
        ScaledCover.of(1, 2, [[[]]])
    # a cover built around ScaledCover.of is refused by the validator
    raw = ScaledCover(ScalePair(1, 2), ((frozenset(range(4)), frozenset()),))
    with pytest.raises(ValueError, match="nonempty"):
        validate_cover(path4(), raw)


def test_cluster_normalisation_orders_by_min():
    cover = ScaledCover.of(0, 5, [[[3], [0, 2], [1]]])
    mins = [min(cl) for cl in cover.families[0]]
    assert mins == sorted(mins)


def test_shrink_removes_overlaps_and_is_idempotent():
    sp = path4()
    overlapping = ScaledCover.of(1, 2, [[[0, 1, 2]], [[2, 3]]])
    assert validate_cover(sp, overlapping).ok
    shrunk = shrink_to_partition(sp, overlapping)
    assert shrunk.families == ScaledCover.of(1, 2, [[[0, 1, 2]], [[3]]]).families
    assert len(shrunk.families) == len(overlapping.families)
    assert shrink_to_partition(sp, shrunk) == shrunk
    assert validate_cover(sp, shrunk).ok


def test_shrink_rejects_invalid_cover():
    sp = path4()
    with pytest.raises(ValueError, match="invalid cover"):
        shrink_to_partition(sp, ScaledCover.of(1, 2, [[[0, 1]]]))


def test_shrink_can_drop_emptied_clusters():
    sp = interval(5, 1)
    cover = ScaledCover.of(0, 3, [[[0, 1], [3, 4]], [[0, 1], [2], [5]]])
    assert validate_cover(sp, cover).ok
    shrunk = shrink_to_partition(sp, cover)
    assert shrunk.families[1] == (frozenset({2}), frozenset({5}))
    assert shrunk.point_count() == 6


def test_certificate_text_roundtrip():
    cover = ScaledCover.of(3, 7, [[[0, 2], [5]], [[1, 3, 4]]])
    cert = Certificate("demo", 6, cover)
    text = format_certificate(cert)
    back = parse_certificate(text)
    assert back == cert
    assert text.splitlines()[0] == "scaled-cover 1"
    assert "cluster 0 2" in text


def test_certificate_file_roundtrip(tmp_path):
    cover = ScaledCover.of(1, 2, [[[0, 1, 2]], [[3]]])
    cert = Certificate("interval(3,1)", 4, cover)
    path = tmp_path / "cert.txt"
    write_certificate(path, cert)
    assert read_certificate(path) == cert


@pytest.mark.parametrize("text, message", [
    ("nonsense\n", "not a certificate"),
    ("scaled-cover 1\nlabel: x\nsize: 2\nlambda: 1\n", "expected 'control'"),
    ("scaled-cover 1\nlabel: x\nsize: 2\nlambda: 1\ncontrol: 2\n"
     "families: 2\nfamily 0\ncluster 0 1\n", "says 2 families"),
    ("scaled-cover 1\nlabel: x\nsize: 2\nlambda: 1\ncontrol: 2\n"
     "families: 1\ncluster 0\n", "before any family"),
    ("scaled-cover 1\nlabel: x\nsize: 2\nlambda: a\ncontrol: 2\n"
     "families: 0\n", "must be integers"),
    ("scaled-cover 1\nlabel: x\nsize: 2\nlambda: 1\ncontrol: 2\n"
     "families: 1\nfamily 0\ncluster 0 q\n", "bad cluster"),
    ("scaled-cover 1\nlabel: x\nsize: 2\nlambda: 1\ncontrol: 2\n"
     "families: 1\nfamilyfoo\ncluster 0 1\n", "unrecognised line 'familyfoo'"),
    ("scaled-cover 1\nlabel: x\nsize: 2\nlambda: 1\ncontrol: 2\n"
     "families: 1\nfamily 0\nclusterbar 1\n",
     "unrecognised line 'clusterbar 1'"),
    ("scaled-cover 1\nlabel: x\nsize: 2\nlambda: 1\ncontrol: 2\n"
     "families: 2\nfamily 0\ncluster 0\nfamily 2\ncluster 1\n",
     "expected 'family 1', got 'family 2'"),
    ("scaled-cover 1\nlabel: x\nsize: 2\nlambda: 1\ncontrol: 2\n"
     "families: 1\nfamily 0 whatever\ncluster 0 1\n",
     "expected 'family 0', got 'family 0 whatever'"),
    ("scaled-cover 1\nlabel: x\nsize: 2\nlambda: 1\ncontrol: 2\n"
     "families: 1\nfamily\ncluster 0 1\n",
     "expected 'family 0', got 'family'"),
])
def test_certificate_parse_errors(text, message):
    with pytest.raises(ValueError, match=message):
        parse_certificate(text)


def test_empty_families_roundtrip():
    # a family with no clusters is legal (it pads a certificate to n+1)
    cover = ScaledCover.of(1, 3, [[[0, 1, 2, 3]], []])
    sp = path4()
    assert validate_cover(sp, cover).ok
    cert = Certificate("pad", 4, cover)
    assert parse_certificate(format_certificate(cert)) == cert


# -- pruning by the triangle inequality -----------------------------------


def test_pruning_is_off_where_the_triangle_inequality_fails():
    # d(p,x) = 1, d(p,y) = 10, d(x,y) = 1: from p's row alone {p,x} and
    # {y} look 10 - 1 = 9 > lam apart, yet x and y are 1 apart.
    d = {(0, 1): 1, (0, 2): 10, (1, 2): 1}
    sp = FiniteMetricSpace(3, lambda i, j: 0 if i == j
                           else d[min(i, j), max(i, j)])
    assert not sp.metric_guaranteed
    report = validate_cover(sp, ScaledCover.of(2, 5, [[[0, 1], [2]]]))
    assert report.violations == (
        Violation("family-separation", (0, 0, 1, 1, 2), 1),)


def test_metric_guaranteed_by_constructor():
    circle, line = cyclic_group(5, 2), interval(3, 1)
    small = from_matrix([[0, 1, 2], [1, 0, 1], [2, 1, 0]], basepoint=0)
    rand = random_metric_space(6, 3)
    summed = l1_sum([circle, line, small])
    wedged = wedge([circle, summed, relabel(line, [3, 2, 1, 0])])
    for sp in (circle, line, small, rand, summed, wedged,
               subspace(summed, [0, 4, 7]), scale(wedged, 3),
               relabel(rand, [5, 4, 3, 2, 1, 0]),
               build_space(parse_spec("wedgegroup(3,3)"))):
        assert sp.metric_guaranteed, sp.label

    oracle = FiniteMetricSpace(3, lambda i, j: abs(i - j), basepoint=0)
    big = from_matrix([[abs(i - j) for j in range(201)] for i in range(201)],
                      basepoint=0)
    for sp in (oracle, big, l1_sum([circle, oracle]), wedge([line, oracle]),
               subspace(oracle, [0, 2]), scale(big, 2),
               relabel(oracle, [2, 1, 0])):
        assert not sp.metric_guaranteed, sp.label


def _exact_copy(space):
    """The same distances, served from a table, with no metric
    guarantee: validated with nothing pruned."""
    table = np.stack([space.dist_row(i) for i in range(space.size)])

    def rows(i, targets):
        return table[i] if targets is None else table[i, targets]

    return FiniteMetricSpace(space.size, space.dist, rows=rows)


def _move_one_point(cover, rng):
    """Move one random point from its cluster to another cluster of the
    same family, or into a new cluster of its own."""
    fams = [list(fam) for fam in cover.families]
    f = rng.choice([f for f, fam in enumerate(fams) if fam])
    fam = fams[f]
    a = rng.randrange(len(fam))
    p = rng.choice(sorted(fam[a]))
    fam[a] = fam[a] - {p}
    b = rng.randrange(len(fam) + 1)
    if b == len(fam):
        fam.append(frozenset({p}))
    else:
        fam[b] = fam[b] | {p}
    return ScaledCover.of(cover.scale.lam, cover.scale.control,
                          [[cl for cl in fam if cl] for fam in fams])


@pytest.mark.parametrize("spec, lam, control", [
    ("group(3,3)", 9, 18),
    ("sum(circle(9,2),circle(27,10),circle(9,140))", 139, 278),
    ("wedgegroup(3,4)", 26, 52),
])
def test_pruned_reports_equal_exact_on_solver_covers(spec, lam, control):
    space = build_space(parse_spec(spec))
    assert space.metric_guaranteed
    exact = _exact_copy(space)
    cover = dim_at_scale(space, lam, control).certificate
    assert validate_cover(space, cover) == validate_cover(exact, cover)
    rng = random.Random(spec)
    rejected = 0
    for _ in range(20):
        bad = _move_one_point(cover, rng)
        report = validate_cover(space, bad)
        assert report == validate_cover(exact, bad)
        rejected += not report.ok
    assert rejected


def test_pruned_reports_equal_exact_on_random_covers():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(seed=st.integers(0, 2**32 - 1),
                      size=st.integers(1, 14),
                      families=st.integers(1, 3),
                      max_entry=st.integers(1, 12),
                      data=st.data())
    def check(seed, size, families, max_entry, data):
        space = random_metric_space(size, seed, max_entry=max_entry)
        diam = space.diameter()
        lam = data.draw(st.integers(0, diam + 1), label="lam")
        control = data.draw(st.integers(0, 2 * diam + 1), label="control")
        # owner[p] is p's cluster in the family, -1 leaves p out of it
        labels = st.lists(st.integers(-1, size - 1), min_size=size,
                          max_size=size)
        fams = []
        for _ in range(families):
            owner = data.draw(labels, label="owner")
            fams.append([[p for p in range(size) if owner[p] == c]
                         for c in sorted(set(owner) - {-1})])
        cover = ScaledCover.of(lam, control, fams)
        assert validate_cover(space, cover) == \
            validate_cover(_exact_copy(space), cover)

    check()


# -- block scans -------------------------------------------------------------


def _reference_report(space, cover):
    """validate_cover's report from a plain scan: one full row per point,
    nothing pruned, the first extreme pair in (p, q) order kept."""
    lam, control = cover.scale.lam, cover.scale.control
    found = [Violation("uncovered-point", (p,), 0) for p in range(space.size)
             if not any(p in cl for fam in cover.families for cl in fam)]
    for f, fam in enumerate(cover.families):
        fam = [np.array(sorted(cl)) for cl in fam]
        nearest = {}  # (c1, c2): (d, p, q) at the least d(p, q)
        widest = {}  # c: (d, p, q) at the largest d(p, q)
        for c1, cl in enumerate(fam):
            for p in cl:
                row = space.dist_row(int(p))
                for c2 in range(c1 + 1, len(fam)):
                    q = int(fam[c2][row[fam[c2]].argmin()])
                    if (c1, c2) not in nearest or row[q] < nearest[c1, c2][0]:
                        nearest[c1, c2] = (int(row[q]), int(p), q)
                q = int(cl[row[cl].argmax()])
                if c1 not in widest or row[q] > widest[c1][0]:
                    widest[c1] = (int(row[q]), int(p), q)
        for (c1, c2), (d, p, q) in sorted(nearest.items()):
            if d <= lam:
                found.append(Violation("family-separation", (f, c1, c2, p, q), d))
        for c, (d, p, q) in sorted(widest.items()):
            if d > control:
                found.append(Violation("cluster-diameter", (f, c, p, q), d))
    return ValidationReport(tuple(found[:covers.MAX_VIOLATIONS]))


def _corruptions(cover, seed):
    """Two seeded single-point moves, the first two clusters of the first
    family merged, a tighter control and a larger lam."""
    lam, control = cover.scale.lam, cover.scale.control
    rng = random.Random(seed)
    first = list(cover.families[0])
    merged = [[first[0] | first[1]] + first[2:]] + list(cover.families[1:])
    return [_move_one_point(cover, rng), _move_one_point(cover, rng),
            ScaledCover.of(lam, control, merged),
            ScaledCover.of(lam, control // 4, cover.families),
            ScaledCover.of(2 * lam, control, cover.families)]


@pytest.mark.parametrize("spec, lam, control", [
    ("sum(circle(3,1),circle(9,2),circle(27,10),circle(9,140))", 139, 278),
    ("sum(circle(3,1),circle(9,2),circle(27,10),circle(6,140))", 139, 278),
    ("sum(circle(3,1),circle(9,2),circle(27,10),circle(4,140))", 139, 278),
    ("sum(circle(9,2),circle(27,10),circle(9,140))", 139, 278),
    ("group(3,3)", 9, 18),
])
def test_block_scan_equals_reference_scan(spec, lam, control, monkeypatch):
    space = build_space(parse_spec(spec))
    cover = dim_at_scale(space, lam, control).certificate
    cases = [cover] + _corruptions(cover, spec)
    expected = [_reference_report(space, cv) for cv in cases]
    assert expected[0].ok and sum(not r.ok for r in expected) >= 4
    # Blocks of whole clusters; of about a third of the largest cluster,
    # which leaves a shorter last block; of one row, which reads a row
    # per point and so runs on the smaller spaces only.
    largest = max(len(cl) for fam in cover.families for cl in fam)
    block_sizes = [covers._BLOCK_ELEMS, largest * (largest // 3 + 1)]
    if space.size <= 2187:
        block_sizes.append(1)
    for elems in block_sizes:
        monkeypatch.setattr(covers, "_BLOCK_ELEMS", elems)
        assert [validate_cover(space, cv) for cv in cases] == expected


@pytest.mark.parametrize("elems", [1, 2, covers._BLOCK_ELEMS])
def test_block_scan_reports_the_first_of_tied_extremes(elems, monkeypatch):
    monkeypatch.setattr(covers, "_BLOCK_ELEMS", elems)
    circle = cyclic_group(8, 1)
    # d(0,6) = d(1,3) = 2 is the least distance between the clusters; with
    # one row per block, the two pairs lie in different blocks.
    apart = validate_cover(circle, ScaledCover.of(
        2, 8, [[[0, 1], [3, 4, 5, 6]], [[2], [7]]]))
    assert apart.violations[0] == Violation("family-separation",
                                            (0, 0, 1, 0, 6), 2)
    # d(0,4) = d(1,5) = 4 is the diameter of {0, 1, 4, 5}.
    wide = validate_cover(circle, ScaledCover.of(
        1, 3, [[[0, 1, 4, 5]], [[2, 3, 6, 7]]]))
    assert wide.violations[0] == Violation("cluster-diameter",
                                           (0, 0, 0, 4), 4)
