"""Cover validation, shrinking, and certificate files."""

import random
import tracemalloc

import numpy as np
import pytest

from scaledim import (Certificate, FiniteMetricSpace, ScaledCover, ScalePair,
                      ValidationReport, Violation, covers, cyclic_group,
                      dim_at_scale,
                      format_certificate, from_matrix, interval, l1_sum,
                      parse_certificate, random_metric_space,
                      read_certificate, relabel, scale,
                      shrink_to_partition, solver, spaces, subspace,
                      validate_cover, wedge, write_certificate)
from scaledim.spacespec import build_space, parse_spec


def path4():
    return interval(3, 1)  # points 0,1,2,3 in a line


def test_valid_cover_passes():
    cover = ScaledCover.of(1, 2, [[[0, 1, 2]], [[3]]])
    report = validate_cover(path4(), cover)
    assert report.ok
    assert report.describe() == "valid cover"


def test_violations_describe_their_witness():
    assert Violation("family-separation", (0, 1, 2, 5, 7), 1).describe() == (
        "family 0: clusters 1 and 2 are 1 apart at points (5,7), "
        "need strictly more than lam")


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


def test_frozenset_clusters_are_taken_as_given():
    """A nonempty frozenset cluster is kept as it is; anything else is
    frozen as ints, and an empty cluster is refused either way.  Parsed
    certificates hold frozensets of ints."""
    kept, other = frozenset({3, 4}), frozenset({0})
    cover = ScaledCover.of(1, 2, [[kept, [np.int64(2), 1]], [other]])
    assert cover.families[0][1] is kept and cover.families[1][0] is other
    assert cover.families[0][0] == {1, 2}
    assert {type(p) for p in cover.families[0][0]} == {int}
    for empty in (frozenset(), []):
        with pytest.raises(ValueError, match="clusters must be nonempty"):
            ScaledCover.of(1, 2, [[empty]])
    back = parse_certificate(format_certificate(Certificate("x", 5, cover)))
    assert back.cover == cover
    assert {type(p) for fam in back.cover.families for cl in fam
            for p in cl} == {int}


def test_cluster_arrays_are_sorted_and_name_the_least_bad_point():
    arrays = covers._cluster_arrays([frozenset({5, 1, 3}), frozenset({0})], 6)
    assert [pts.tolist() for pts in arrays] == [[1, 3, 5], [0]]
    assert {pts.dtype for pts in arrays} == {np.dtype(np.intp)}
    # A point past any index overflows the array, and is out of range.
    for cl, bad in [({1, 7, 9}, 7), ({-2, 3, -5, 8}, -5),
                    ({2**70, 7, 1}, 7), ({2**70, 1}, 2**70),
                    ({-2**70, 1}, -2**70)]:
        with pytest.raises(ValueError, match=f"^cover point {bad} out of "
                                             f"range for size 6$"):
            covers._cluster_arrays([frozenset({0}), frozenset(cl)], 6)


def _shrink_by_set_difference(cover):
    """Each point in its lowest (family, cluster) slot, one set
    difference and union per cluster, whatever the cover."""
    seen, fams = set(), []
    for fam in cover.families:
        fams.append([cl - seen for cl in fam if cl - seen])
        seen.update(*fams[-1])
    return ScaledCover.of(cover.scale.lam, cover.scale.control, fams)


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
    assert shrunk == _shrink_by_set_difference(cover)
    assert shrunk.families[1] == (frozenset({2}), frozenset({5}))
    assert shrunk.point_count() == 6


def _certify_partition():
    """A ``certify`` job's space and its solver certificate, one family
    of 2,187 points."""
    space = build_space(parse_spec(
        "sum(circle(9,2),circle(27,10),circle(9,140))"))
    return space, dim_at_scale(space, 139, 278).certificate


@pytest.mark.parametrize("make", [
    _certify_partition,
    lambda: (interval(5, 1),
             ScaledCover.of(0, 3, [[[4, 5], [0, 1]], [[2], [3]]])),
], ids=["certify", "hand-built"])
def test_a_partition_shrinks_to_its_own_clusters(make):
    """A valid cover whose cluster sizes sum to the space's size comes
    back equal to the set-difference shrink, on the very frozensets it
    was given."""
    space, cover = make()
    assert sum(len(cl) for fam in cover.families for cl in fam) == space.size
    shrunk = shrink_to_partition(space, cover)
    assert shrunk == _shrink_by_set_difference(cover) == cover
    assert all(new is old for new_fam, old_fam
               in zip(shrunk.families, cover.families, strict=True)
               for new, old in zip(new_fam, old_fam, strict=True))


@pytest.mark.parametrize("families", [
    [[{4, 5}, {0, 1}], [{2}, {3}]],  # a partition
    [[{4, 5}, {0, 1}], [{1, 2}, {3, 4}]],  # with overlaps
], ids=["partition", "overlaps"])
def test_a_cover_of_sets_shrinks_to_frozensets(families):
    cover = ScaledCover(ScalePair(0, 3),
                        tuple(tuple(fam) for fam in families))
    shrunk = shrink_to_partition(interval(5, 1), cover)
    assert {type(cl) for fam in shrunk.families for cl in fam} == {frozenset}
    assert shrunk == _shrink_by_set_difference(cover)


def _count_validations(monkeypatch):
    """The spaces of every ``validate_cover`` call made through
    ``covers`` from now on."""
    spaces_seen, validate = [], covers.validate_cover

    def counting_validate(space, cover):
        spaces_seen.append(space)
        return validate(space, cover)

    monkeypatch.setattr(covers, "validate_cover", counting_validate)
    return spaces_seen


def _relabelled_group():
    """A relabelled copy of group(3,3): the same metric with no
    structure, so its components take the BFS and its validation binds
    readers of it."""
    group = build_space(parse_spec("group(3,3)"))
    return relabel(group, range(group.size))


def _relabelled_group_cover():
    space = _relabelled_group()
    return space, dim_at_scale(space, 9, 18).certificate


def test_shrink_reuses_the_last_verdict_on_its_space(monkeypatch):
    """Right after ``validate_cover`` passes a cover, shrinking that very
    cover on that space validates nothing again and binds no reader of
    it; validating it again does, and so does shrinking an equal but
    distinct copy."""
    space, cover = _relabelled_group_cover()
    assert validate_cover(space, cover).ok
    binds = _count_binds(monkeypatch, space)
    checks = _count_validations(monkeypatch)
    assert shrink_to_partition(space, cover) == cover
    assert binds == [] and checks == []
    assert covers.validate_cover(space, cover).ok
    assert len(binds) > 0 and checks == [space]
    del binds[:]
    copy = ScaledCover.of(9, 18, cover.families)
    assert copy == cover and copy is not cover
    assert shrink_to_partition(space, copy) == cover
    assert len(binds) > 0 and checks == [space, space]


def test_an_invalid_cover_is_refused_after_a_valid_one():
    space, cover = _relabelled_group_cover()
    assert validate_cover(space, cover).ok
    # Two clusters of the family merged: too wide for the control.
    fam = cover.families[0]
    bad = ScaledCover.of(9, 18, [(fam[0] | fam[1],) + fam[2:]])
    with pytest.raises(ValueError, match="cannot shrink an invalid cover"):
        shrink_to_partition(space, bad)
    assert shrink_to_partition(space, cover) == cover


def test_a_verdict_belongs_to_its_space(monkeypatch):
    """A cover valid on group(3,3) and on its scaled and relabelled
    copies is validated again on each copy, which is its own space."""
    group = build_space(parse_spec("group(3,3)"))
    cover = ScaledCover.of(9, 36,
                           dim_at_scale(group, 9, 18).certificate.families)
    assert validate_cover(group, cover).ok
    checks = _count_validations(monkeypatch)
    copies = [scale(group, 2), relabel(group, range(group.size))]
    for other in copies:
        assert shrink_to_partition(other, cover) == cover
    assert checks == copies
    assert shrink_to_partition(group, cover) == cover
    assert checks == copies


def test_a_cover_of_mutable_sets_is_never_recorded():
    """A ``ScaledCover`` built directly around sets, or around lists,
    validates but is not recorded: its clusters can change after.  The
    same clusters as tuples of frozensets are."""
    sp = path4()
    first, last = {0, 1, 2}, frozenset({3})
    of_sets = ScaledCover(ScalePair(1, 2), ((first,), (last,)))
    for cover in [of_sets,
                  ScaledCover(ScalePair(1, 2), [(frozenset(first),), (last,)]),
                  ScaledCover(ScalePair(1, 2), ([frozenset(first)], (last,)))]:
        assert validate_cover(sp, cover).ok
        assert sp._valid is None
    frozen = ScaledCover(ScalePair(1, 2), ((frozenset(first),), (last,)))
    assert validate_cover(sp, frozen).ok and sp._valid is frozen
    first.add(3)  # the first cluster is now 3 wide, over the control
    with pytest.raises(ValueError, match="cannot shrink an invalid cover"):
        shrink_to_partition(sp, of_sets)


@pytest.mark.parametrize("make, lam, path", [
    (_relabelled_group, 9, "_components"),
    (lambda: build_space(parse_spec("group(3,3)")), 9, "_components_product"),
    (lambda: wedge([interval(3, 1), interval(2, 5)]), 1, "_components_wedge"),
    (lambda: interval(5, 2), 1, None),  # discrete: a block per point
    (lambda: interval(5, 1), 1, None),  # connected: one block
], ids=["bfs", "product", "wedge", "discrete", "connected"])
def test_component_blocks_are_tuples_of_python_ints(make, lam, path,
                                                    monkeypatch):
    """On each path of the component scan the blocks are tuples of
    Python ints, so the one-family cover it settles takes each block as
    a frozenset as it is, without converting its points."""
    space = make()
    ran = []

    def spy(name, scan):
        return lambda *args: ran.append(name) or scan(*args)

    for name in ("_components", "_components_product", "_components_wedge"):
        monkeypatch.setattr(solver, name, spy(name, getattr(solver, name)))
    blocks = solver.lambda_components(space, lam).blocks
    assert ran == ([path] if path else [])
    assert {type(b) for b in blocks} == {tuple}
    assert {type(p) for b in blocks for p in b} == {int}
    cover = dim_at_scale(space, lam, space.diameter()).certificate
    assert cover.families == (tuple(frozenset(b) for b in blocks),)


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
    ("scaled-cover 1\nlabel: x\nsize: 2\nlambda: 1\ncontrol: 2\n"
     "families: 1\nfamily 0\ncluster\n", "^certificate: empty cluster line$"),
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


def _joined_cluster_lines(cover):
    return ["cluster " + " ".join(map(str, sorted(cl)))
            for fam in cover.families for cl in fam]


@pytest.mark.parametrize("point", [int, np.int64], ids=["int", "int64"])
def test_cluster_lines_are_the_joined_points(point):
    """Each cluster line holds the same bytes as its sorted points joined
    by ``str``, for Python and numpy ints alike."""
    rng = random.Random(7)
    points = rng.sample(range(10**6), 300)
    clusters = [frozenset(map(point, points[a:b]))
                for a, b in [(0, 1), (1, 3), (3, 100), (100, 300)]]
    cover = ScaledCover.of(5, 9, [clusters[:2], clusters[2:]])
    lines = format_certificate(Certificate("x", 10**6, cover)).splitlines()
    assert [ln for ln in lines if ln.startswith("cluster")] == \
        _joined_cluster_lines(cover)


def test_certificate_text_roundtrip_on_generated_covers():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    clusters = st.frozensets(st.integers(0, 10**12), min_size=1, max_size=8)

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(lam=st.integers(0, 10**9), control=st.integers(0, 10**9),
                      families=st.lists(st.lists(clusters, max_size=5),
                                        max_size=4))
    def check(lam, control, families):
        cert = Certificate("generated", 10**12 + 1,
                           ScaledCover.of(lam, control, families))
        text = format_certificate(cert)
        assert parse_certificate(text) == cert
        assert [ln for ln in text.splitlines() if ln.startswith("cluster")] \
            == _joined_cluster_lines(cert.cover)

    check()


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

    def blocks(J):
        cols = table if J is None else table[:, J]
        return lambda I: cols[I]

    return FiniteMetricSpace(space.size, space.dist, blocks=blocks)


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
    """validate_cover's report from a plain scan: every row of each
    cluster, a few whole rows per dist_block, against every point of its
    family, nothing pruned, the first extreme pair in (p, q) order kept.
    Whole rows take the kernels' all-points path, not the validator's."""
    lam, control = cover.scale.lam, cover.scale.control
    covered = set().union(*(cl for fam in cover.families for cl in fam))
    found = [Violation("uncovered-point", (p,), 0) for p in range(space.size)
             if p not in covered]
    for f, fam in enumerate(cover.families):
        fam = [np.array(sorted(cl)) for cl in fam]
        if not fam:
            continue
        lens = [len(cl) for cl in fam]
        starts = np.cumsum([0] + lens[:-1])
        points = np.concatenate(fam)
        step = max(1, 2**16 // space.size)  # rows per read, for memory
        wide = []
        for c1, cl in enumerate(fam):
            # The least d(p, q) from cl to every cluster and the largest
            # within cl, with the first (p, q) to reach each.
            near = np.full(len(fam), np.iinfo(np.int64).max)
            widest = (-1,)
            for lo in range(0, len(cl), step):
                block = space.dist_block(cl[lo:lo + step])[:, points]
                near = np.minimum(near, np.minimum.reduceat(
                    block, starts, axis=1).min(axis=0))
                own = block[:, starts[c1]:starts[c1] + len(cl)]
                r, k = divmod(int(own.argmax()), len(cl))
                if own[r, k] > widest[0]:
                    widest = (int(own[r, k]), int(cl[lo + r]), int(cl[k]))
            for c2 in c1 + 1 + np.flatnonzero(near[c1 + 1:] <= lam):
                pair = space.dist_block(cl, fam[c2])
                r, k = divmod(int((pair == near[c2]).argmax()), lens[c2])
                found.append(Violation(
                    "family-separation",
                    (f, c1, int(c2), int(cl[r]), int(fam[c2][k])),
                    int(near[c2])))
            if widest[0] > control:
                wide.append(Violation("cluster-diameter",
                                      (f, c1) + widest[1:], widest[0]))
        found += wide
    return ValidationReport(tuple(found[:covers.MAX_VIOLATIONS]))


def _corruptions(cover, seed):
    """Two seeded single-point moves, the first two clusters of the first
    family merged, the second cluster's least point listed in the first
    cluster too, a tighter control and a larger lam."""
    lam, control = cover.scale.lam, cover.scale.control
    rng = random.Random(seed)
    first = list(cover.families[0])
    merged = [[first[0] | first[1]] + first[2:]] + list(cover.families[1:])
    shared = ([[first[0] | {min(first[1])}] + first[1:]]
              + list(cover.families[1:]))
    return [_move_one_point(cover, rng), _move_one_point(cover, rng),
            ScaledCover.of(lam, control, merged),
            ScaledCover.of(lam, control, shared),
            ScaledCover.of(lam, control // 4, cover.families),
            ScaledCover.of(2 * lam, control, cover.families)]


@pytest.mark.parametrize("spec, lam, control", [
    ("sum(circle(3,1),circle(9,2),circle(27,10),circle(9,140))", 139, 278),
    ("sum(circle(3,1),circle(9,2),circle(27,10),circle(6,140))", 139, 278),
    ("sum(circle(3,1),circle(9,2),circle(27,10),circle(4,140))", 139, 278),
    ("sum(circle(9,2),circle(27,10),circle(9,140))", 139, 278),
    ("group(3,3)", 9, 18),
    ("scale(group(3,3),2)", 18, 36),
    ("sum(circle(2500,1),interval(1,3))", 1, 2),
])
def test_block_scan_equals_reference_scan(spec, lam, control, monkeypatch):
    space = build_space(parse_spec(spec))
    cover = dim_at_scale(space, lam, control).certificate
    cases = [cover] + _corruptions(cover, spec)
    expected = [_reference_report(space, cv) for cv in cases]
    assert expected[0].ok and sum(not r.ok for r in expected) >= 4
    # Blocks of whole clusters; of about a third of the largest cluster,
    # which leaves a shorter last block; of one row, which reads a row
    # per point and so runs on the smaller spaces only.  The hull bound
    # reads its factor terms in the same blocks, a run of checks at a
    # time, so the smaller blocks split its runs too.
    largest = max(len(cl) for fam in cover.families for cl in fam)
    block_sizes = [spaces._SCAN_ELEMS, largest * (largest // 3 + 1)]
    if space.size <= 2187:
        block_sizes.append(1)
    for elems in block_sizes:
        monkeypatch.setattr(spaces, "_SCAN_ELEMS", elems)
        assert [validate_cover(space, cv) for cv in cases] == expected


def _count_extremes(monkeypatch):
    """The argument tuples of every _first_extreme call from now on."""
    calls, first_extreme = [], covers._first_extreme

    def counting_extreme(*args, **kwargs):
        calls.append(args)
        return first_extreme(*args, **kwargs)

    monkeypatch.setattr(covers, "_first_extreme", counting_extreme)
    return calls


def _count_binds(monkeypatch, space):
    """The columns of every reader ``space`` binds from now on."""
    binds, reader = [], FiniteMetricSpace._reader

    def counting_reader(self, cols):
        if self is space:
            binds.append(cols)
        return reader(self, cols)

    monkeypatch.setattr(FiniteMetricSpace, "_reader", counting_reader)
    return binds


def test_one_pivot_scan_per_family(monkeypatch):
    """The pivot bounds of a family come from one scan: the space binds
    one reader per family, and one per pair or cluster left open.  The
    space is a relabelled copy of group(3,3), the same metric with no
    structure, so no hull bound closes the pairs the pivots leave open."""
    group = build_space(parse_spec("group(3,3)"))
    cover = dim_at_scale(group, 9, 18).certificate
    assert [len(fam) for fam in cover.families] == [27]
    space = relabel(group, range(group.size))
    assert space.structure is None and space.metric_guaranteed
    binds = _count_binds(monkeypatch, space)
    extremes = _count_extremes(monkeypatch)
    assert validate_cover(space, cover).ok
    assert extremes
    assert len(binds) == len(cover.families) + len(extremes)


@pytest.mark.parametrize("elems", [1, 7, spaces._SCAN_ELEMS])
def test_pivot_bounds_equal_a_row_by_row_reference(elems, monkeypatch):
    """The pivot scan leaves open a pair (c1, c2), c1 < c2, when the
    least distance from c1's pivot to c2 less the pivot's reach into c1
    is at most lam, and a cluster when twice the pivot's reach is more
    than the control: as a loop over the pivot rows finds, also in
    blocks that split the family's pivots."""
    monkeypatch.setattr(spaces, "_SCAN_ELEMS", elems)
    rng = random.Random(elems)
    for _ in range(40):
        size = rng.randint(1, 30)
        space = random_metric_space(size, rng, max_entry=rng.randint(1, 9))
        owner = [rng.randrange(rng.randint(1, size)) for _ in range(size)]
        arrays = [np.array([p for p in range(size) if owner[p] == c],
                           dtype=np.intp) for c in sorted(set(owner))]
        lam, control = rng.randint(0, 9), rng.randint(0, 18)
        pairs, wide = [], []
        for c1, pts in enumerate(arrays):
            row = space.dist_row(int(pts[0]))
            top = sorted(row[pts].tolist())[-2:]
            pairs += [(c1, c2) for c2 in range(c1 + 1, len(arrays))
                      if row[arrays[c2]].min() - top[-1] <= lam]
            if 2 * top[-1] > control:
                wide.append(c1)
        assert covers._open_checks(space, arrays, lam, control) == (pairs,
                                                                    wide)


def test_twice_the_reach_settles_every_wedge_dip_cluster():
    """The pivot scan alone reads this certificate's one family of
    3,237 clusters, and twice each pivot's reach is within the control
    in every one of them."""
    space = build_space(parse_spec("wedgegroup(3,7)"))
    cover = dim_at_scale(space, 138, 276).certificate
    (fam,) = cover.families
    arrays = covers._cluster_arrays(fam, space.size)
    assert len(arrays) == 3237
    assert covers._open_checks(space, arrays, 138, 276)[1] == []


@pytest.mark.parametrize("spec, lam, control", [
    ("group(3,3)", 9, 18),
    ("group(3,4)", 139, 278),
    ("sum(circle(2500,1),interval(1,3))", 1, 2),
])
def test_sum_covers_need_no_exhaustive_scan(spec, lam, control, monkeypatch):
    """No check of these sums' certificates reaches the exhaustive scan,
    and none binds a reader of the sum: every family takes its hull
    tables, which read only the factors.  They settle the product
    clusters of the two groups, and on the 5000-point sum's families
    they leave open nothing, not even neighbouring clusters exactly
    lam + 1 apart."""
    space = build_space(parse_spec(spec))
    cover = dim_at_scale(space, lam, control).certificate
    binds = _count_binds(monkeypatch, space)
    extremes = _count_extremes(monkeypatch)
    assert validate_cover(space, cover).ok
    assert extremes == [] and binds == []


def test_a_family_refused_the_tables_takes_the_pivot_scan(monkeypatch):
    """The one family of this certificate is two 3,000-point clusters,
    whose tables would read more factor entries than its pivot scan, so
    they are refused: before the first exhaustive scan the sum binds one
    reader, for the pivot scan of the whole family.  The report equals
    the plain scan's on the certificate and on a corrupted copy."""
    spec = "sum(circle(3000,1),interval(1,3))"
    space = build_space(parse_spec(spec))
    cover = dim_at_scale(space, 1, 3000).certificate
    assert [len(cl) for fam in cover.families for cl in fam] == [3000, 3000]
    bad = _move_one_point(cover, random.Random(spec))
    for cv in [cover, bad]:
        expected = _reference_report(space, cv)
        binds = _count_binds(monkeypatch, space)
        tables, hull_tables = [], covers._hull_tables
        monkeypatch.setattr(covers, "_hull_tables", lambda *args: (
            tables.append(hull_tables(*args)) or tables[-1]))
        before_scans, scan = [], covers._first_extreme
        monkeypatch.setattr(covers, "_first_extreme", lambda *args, **kwargs: (
            before_scans.append(len(binds)) or scan(*args, **kwargs)))
        assert validate_cover(space, cv) == expected
        assert tables == [None] and before_scans and before_scans[0] == 1
        assert sorted(binds[0].tolist()) == list(range(space.size))
        monkeypatch.undo()
    assert not expected.ok


@pytest.mark.parametrize("branch", ["tables", "pivots"])
@pytest.mark.parametrize("spec, lam, control", [
    ("group(3,3)", 9, 18),
    ("scale(group(3,3),2)", 18, 36),
    ("sum(circle(9,2),circle(27,10),circle(9,140))", 139, 278),
    ("sum(interval(29,1),interval(29,1))", 1, 2),
])
def test_reports_do_not_depend_on_the_budget(spec, lam, control, branch,
                                             monkeypatch):
    """Each family goes to its tables whatever they read (a budget of
    None), or to the pivot scan alone (the tables refused), and either
    way the report equals the plain scan's, on the certificate and on
    its corrupted copies."""
    space = build_space(parse_spec(spec))
    cover = dim_at_scale(space, lam, control).certificate
    cases = [cover] + _corruptions(cover, spec)
    expected = [_reference_report(space, cv) for cv in cases]
    assert expected[0].ok and sum(not r.ok for r in expected) >= 3
    tables, hull_tables = [], covers._hull_tables
    monkeypatch.setattr(covers, "_hull_tables", lambda factors, proj, budget: (
        tables.append(hull_tables(factors, proj, None)
                      if branch == "tables" else None) or tables[-1]))
    assert [validate_cover(space, cv) for cv in cases] == expected
    assert tables and all((t is None) == (branch == "pivots") for t in tables)


def test_segments_lay_the_named_slices_end_to_end():
    """``_segments`` lays coords[off[i]:off[i + 1]] for each i in ids end
    to end, in the order of ids and with repeats, and gives their
    offsets there, one more than ids."""
    rng = random.Random(5)
    for _ in range(200):
        lengths = [rng.randint(1, 4) for _ in range(rng.randint(1, 8))]
        off = np.concatenate([[0], np.cumsum(lengths)]).astype(np.intp)
        coords = np.array([rng.randrange(50) for _ in range(off[-1])],
                          dtype=np.intp)
        ids = np.array([rng.randrange(len(lengths))
                        for _ in range(rng.randint(1, 6))], dtype=np.intp)
        laid, offsets = covers._segments(coords, off, ids)
        pieces = [coords[off[i]:off[i + 1]].tolist() for i in ids.tolist()]
        assert laid.tolist() == [x for piece in pieces for x in piece]
        assert offsets.tolist() == np.cumsum(
            [0] + [len(piece) for piece in pieces]).tolist()


def test_the_tables_alone_bound_a_corrupted_sum_cover(monkeypatch):
    """With one point moved between two 729-point product clusters of
    the first certify job, the tables leave open exactly that pair and
    the grown cluster, and nothing in the other families.  No pivot scan
    follows them: the sum binds no reader before its first exhaustive
    scan, and the report equals the plain scan's."""
    space = build_space(parse_spec(
        "sum(circle(3,1),circle(9,2),circle(27,10),circle(9,140))"))
    cover = dim_at_scale(space, 139, 278).certificate
    first = list(cover.families[0])
    moved = max(first[0])
    first[0], first[1] = first[0] - {moved}, first[1] | {moved}
    bad = ScaledCover.of(139, 278, [first] + list(cover.families[1:]))
    assert bad.families[0][:2] == (first[0], first[1])
    expected = _reference_report(space, bad)
    binds = _count_binds(monkeypatch, space)
    opened, table_open = [], covers._table_open
    monkeypatch.setattr(covers, "_table_open", lambda *args: (
        opened.append(table_open(*args)) or opened[-1]))
    before_scans, scan = [], covers._first_extreme
    monkeypatch.setattr(covers, "_first_extreme", lambda *args, **kwargs: (
        before_scans.append(len(binds)) or scan(*args, **kwargs)))
    report = validate_cover(space, bad)
    assert report == expected
    assert [v.kind for v in report.violations] == ["family-separation",
                                                   "cluster-diameter"]
    assert opened == ([([(0, 1)], [1])]
                      + [([], [])] * (len(cover.families) - 1))
    assert len(before_scans) == 2 and before_scans[0] == 0


def test_one_block_skips_the_run_pairs(monkeypatch):
    """When rows x cols fits in one ``_SCAN_ELEMS`` block, the plain
    scan reads it in one go, so ``_run_pairs`` gives None before it cuts
    any runs; the same rows in smaller blocks are cut into run pairs."""
    space = build_space(parse_spec("sum(interval(20,1),interval(20,1))"))
    # Three last-factor digits each: nine run pairs.
    rows = np.arange(0, 63, dtype=np.intp)
    cols = np.arange(63, 126, dtype=np.intp)
    assert len(rows) * len(cols) <= spaces._SCAN_ELEMS
    starts, run_starts = [], covers._run_starts
    monkeypatch.setattr(covers, "_run_starts", lambda values: (
        starts.append(len(values)) or run_starts(values)))
    for r, c in [(rows, cols), (rows, rows)]:
        for sign in (1, -1):
            assert covers._run_pairs(space, r, c, sign) is None
    assert starts == []
    monkeypatch.setattr(spaces, "_SCAN_ELEMS", len(cols))
    assert covers._run_pairs(space, rows, cols, 1) and starts


def test_a_bare_oracle_factor_takes_the_tables(monkeypatch):
    """The same cover of a line times a circle is settled by the hull
    tables whether the line is a matrix or a bare oracle, whose every
    distance is a call: neither binds a reader of the sum or runs a
    scan."""
    monkeypatch.setattr(spaces, "MATRIX_CACHE_LIMIT", 10)
    bare = FiniteMetricSpace(30, lambda i, j: abs(i - j), basepoint=0)
    for line in [interval(29, 1), bare]:
        space = l1_sum([line, cyclic_group(5, 1)])
        # Each cluster is one line point times the circle, 1 wide; the
        # families alternate along the line, so theirs are 2 apart.
        cover = ScaledCover.of(1, 2, [
            [spaces.l1_blocks(space.structure[1], [[[x]], [range(5)]])[0]
             for x in range(parity, 30, 2)] for parity in (0, 1)])
        binds = _count_binds(monkeypatch, space)
        extremes = _count_extremes(monkeypatch)
        tables, hull_tables = [], covers._hull_tables
        monkeypatch.setattr(covers, "_hull_tables", lambda *args: (
            tables.append(hull_tables(*args)) or tables[-1]))
        assert validate_cover(space, cover).ok
        assert extremes == [] and binds == []
        assert len(tables) == 2 and None not in tables
        monkeypatch.undo()
        monkeypatch.setattr(spaces, "MATRIX_CACHE_LIMIT", 10)


def _oracle_sum():
    """A sum of two hand-built oracles, neither symmetric nor a metric."""
    left = FiniteMetricSpace(4, lambda i, j: (3 * i + 5 * j) % 7,
                             basepoint=0)
    right = FiniteMetricSpace(3, lambda i, j: 2 * i + j + (i == j),
                              basepoint=1)
    return l1_sum([left, right])


_HULL_SPACES = {
    "group": lambda: build_space(parse_spec("group(3,3)")),
    "scaled": lambda: build_space(parse_spec("scale(group(3,3),2)")),
    "nested": lambda: l1_sum([l1_sum([cyclic_group(3, 1), interval(2, 3)]),
                              cyclic_group(5, 2)]),
    "oracles": _oracle_sum,
}


def _hull_sets(space):
    """Some products of factor sets and some random sets of a sum, as
    sorted arrays, and which of them are products."""
    factors = space.structure[1]
    rng = random.Random(space.label)
    sets, products = [], []
    for _ in range(8):
        picks = [rng.sample(range(g.size), rng.randint(1, min(g.size, 2)))
                 for g in factors]
        sets.append(spaces.l1_blocks(factors, [[p] for p in picks])[0])
        sets.append(rng.sample(range(space.size), rng.randint(1, 5)))
        products += [True, False]
    return [np.array(sorted(s), dtype=np.intp) for s in sets], products


@pytest.mark.parametrize("name", list(_HULL_SPACES))
@pytest.mark.parametrize("elems", [spaces._SCAN_ELEMS, 40, 1])
def test_hull_tables_against_the_oracle(name, elems, monkeypatch):
    """Over every ordered pair of some products of factor sets and some
    random sets, the least tables summed over the factors, the first
    set's projections as rows, are at most the least distance read from
    the scalar oracle, and equal it on two products; the summed
    projection diameters are at least each set's largest distance, and
    equal it on a product: in long blocks, in blocks of a few rows, and
    a row a block.  ``_table_open`` keeps exactly the pairs c1 < c2
    whose least bound is at most lam and the sets whose diameter bound
    is over the control."""
    monkeypatch.setattr(spaces, "_SCAN_ELEMS", elems)
    space = _HULL_SPACES[name]()
    kind, factors = space.structure
    assert kind == "sum"
    arrays, products = _hull_sets(space)
    n = len(arrays)
    tables = covers._hull_tables(
        factors, covers._projections(factors, arrays), None)
    assert len(tables) == len(factors)
    low = sum(least[np.ix_(cls, cls)] for cls, least, _ in tables)
    wide_bound = sum(diam[cls] for cls, _, diam in tables)
    for i in range(n):
        for j in range(n):
            d = [space.dist(p, q) for p in arrays[i] for q in arrays[j]]
            assert low[i, j] <= min(d)
            if products[i] and products[j]:
                assert low[i, j] == min(d)
            if i == j:
                assert wide_bound[i] >= max(d)
                if products[i]:
                    assert wide_bound[i] == max(d)
    for lam, control in [(0, 0), (int(np.median(low)),
                                  int(np.median(wide_bound)))]:
        pairs, wide = covers._table_open(tables, n, lam, control)
        assert pairs == [(i, j) for i in range(n) for j in range(i + 1, n)
                         if low[i, j] <= lam]
        assert wide == [c for c in range(n) if wide_bound[c] > control]


def test_hull_tables_hold_little_beyond_the_least_table():
    """On each family of the 5000-point sum's certificate, 1,250
    clusters of 625 circle classes, the tables peak at 10 MiB at most:
    about the 3 MiB least table, not the classes x U tables of minima
    and maxima a family once held (24.3 MiB)."""
    space = build_space(parse_spec("sum(circle(2500,1),interval(1,3))"))
    factors = space.structure[1]
    cover = dim_at_scale(space, 1, 2).certificate
    assert [len(fam) for fam in cover.families] == [1250, 1250]
    for fam in cover.families:
        proj = covers._projections(
            factors, covers._cluster_arrays(fam, space.size))
        tracemalloc.start()
        try:
            assert covers._hull_tables(factors, proj, None) is not None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 2**20


def test_run_rows_name_each_runs_rows_in_a_block():
    """For any rows start..stop-1 of a table of runs, ``_run_rows`` names
    exactly the runs that meet them, and each one's row of the index
    holds its rows there and no other, its last one repeated."""
    rng = random.Random(3)
    for _ in range(300):
        lengths = [rng.choice([1, 1, 2, 3, 9])
                   for _ in range(rng.randint(1, 12))]
        offsets = np.concatenate([[0], np.cumsum(lengths)]).astype(np.intp)
        start = rng.randrange(offsets[-1])
        stop = rng.randint(start + 1, offsets[-1])
        lo, hi, at = covers._run_rows(offsets, start, stop)
        meet = [k for k in range(len(lengths))
                if offsets[k] < stop and offsets[k + 1] > start]
        assert list(range(lo, hi)) == meet
        for k, row in zip(meet, at.tolist()):
            inside = [p - start for p in range(max(offsets[k], start),
                                               min(offsets[k + 1], stop))]
            assert row == inside + [inside[-1]] * (len(row) - len(inside))


def test_hull_tables_are_taken_within_the_budget(monkeypatch):
    """The tables are refused when sum_f sum_c |proj_f c| * |U_f| is
    over the budget, taken at it, and always taken for a budget of None,
    also on a factor served by a bare oracle."""
    monkeypatch.setattr(spaces, "MATRIX_CACHE_LIMIT", 2)
    oracles = _oracle_sum()
    assert not oracles.structure[1][0].has_fast_rows()
    for space in [_HULL_SPACES["group"](), oracles]:
        factors = space.structure[1]
        arrays, _ = _hull_sets(space)
        for n in (1, len(arrays)):
            proj = covers._projections(factors, arrays[:n])
            reads = sum(len(coords) * len(np.unique(coords))
                        for coords, _ in proj)
            assert covers._hull_tables(factors, proj, reads) is not None
            assert covers._hull_tables(factors, proj, reads - 1) is None
            assert covers._hull_tables(factors, proj, None) is not None


def test_hull_tables_read_a_bare_oracle_once_per_class_point():
    """A factor above the matrix limit served by a bare oracle makes a
    call per distance.  The tables call it once for each point of each
    class's projection and each point of U, the union of the
    projections, and never twice for one pair: clusters sharing a
    projection share its reads."""
    calls = []

    def oracle(i, j):
        calls.append((i, j))
        return abs(i - j)

    size = spaces.MATRIX_CACHE_LIMIT + 1
    line = FiniteMetricSpace(size, oracle, basepoint=0,
                             diameter_hint=size - 1)
    space = l1_sum([line, cyclic_group(3, 1)])
    factors = space.structure[1]
    assert not factors[0].has_fast_rows()
    rng = random.Random(0)
    # Four disjoint line sets, each the projection of two clusters.
    picks = rng.sample(range(size), 12)
    classes = [sorted(picks[k:k + 3]) for k in range(0, 12, 3)]
    arrays = [np.array(sorted(spaces.l1_blocks(factors, [[ls], [[c]]])[0]),
                       dtype=np.intp) for ls in classes for c in (0, 2)]
    calls.clear()
    tables = covers._hull_tables(
        factors, covers._projections(factors, arrays), None)
    expected = [(p, q) for ls in classes for p in ls for q in sorted(picks)]
    assert sorted(calls) == sorted(expected)
    assert len(set(calls)) == len(calls)
    cls, least, _ = tables[0]
    for i, j in [(0, 2), (2, 7), (5, 1)]:
        assert least[cls[i], cls[j]] == min(abs(p - q) for p in classes[i // 2]
                                            for q in classes[j // 2])


@pytest.mark.parametrize("elems", [1, 2, spaces._SCAN_ELEMS])
def test_block_scan_reports_the_first_of_tied_extremes(elems, monkeypatch):
    monkeypatch.setattr(spaces, "_SCAN_ELEMS", elems)
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


def _random_factor(rng, size):
    """A factor of a random sum with ``size`` points and a basepoint:
    a circle, an interval, a checked matrix, or a bare oracle that is
    a line, the uniform metric (ties everywhere) or neither symmetric
    nor a metric."""
    kind = rng.choice(["circle", "interval", "matrix", "line", "uniform",
                       "skew"])
    a = rng.randint(1, 3)
    if kind == "circle" and size >= 3:
        return cyclic_group(size, a)
    if kind == "interval" and size >= 2:
        return interval(size - 1, a)
    if kind == "matrix":
        rm = random_metric_space(size, rng, max_entry=4)
        return from_matrix([rm.dist_row(i).tolist() for i in range(size)],
                           basepoint=0)
    oracle = {"uniform": lambda i, j: a * (i != j),
              "skew": lambda i, j: (3 * i + 5 * j) % 7
              }.get(kind, lambda i, j: a * abs(i - j))
    return FiniteMetricSpace(size, oracle, basepoint=0, label=kind)


@pytest.mark.parametrize("elems", [1, 2, spaces._SCAN_ELEMS])
def test_split_scan_equals_plain_scan_on_sums(elems, monkeypatch):
    """On random sums of 2-4 factors, the first extreme pair read run
    pair by run pair equals the one from a single read of the whole
    table, least and largest: on random sorted sets, on rows that are
    the columns, and on sets with ties planted across last-factor
    digits.  Each block size runs both the split and the plain scan."""
    monkeypatch.setattr(spaces, "_SCAN_ELEMS", elems)
    rng = random.Random(elems)
    split = plain = 0
    for _ in range(80):
        sizes = [rng.randint(1, 6) for _ in range(rng.randint(1, 3))]
        sizes.append(rng.randint(2, 5))
        if rng.random() < 0.3:
            sizes[0] = rng.randint(20, 60)  # wide runs, for whole blocks
        space = l1_sum([_random_factor(rng, s) for s in sizes])
        stride = space.size // sizes[-1]
        for _ in range(6):
            rows, cols = (np.array(sorted(rng.sample(
                range(space.size), rng.randint(1, min(space.size, 400)))),
                dtype=np.intp) for _ in range(2))
            if rng.random() < 0.3:
                # The same offsets under every last digit: each run
                # pair of a uniform or repeating last factor ties.
                base = np.unique(rows % stride)[:rng.randint(1, 40)]
                rows = np.concatenate([base + u * stride
                                       for u in range(sizes[-1])])
            if rng.random() < 0.4:
                cols = rows
            for largest in (False, True):
                table = space.dist_block(rows, cols)
                k = int(table.argmax() if largest else table.argmin())
                i, j = divmod(k, len(cols))
                expected = (int(table.flat[k]), int(rows[i]), int(cols[j]))
                assert covers._first_extreme(
                    space, rows, cols, largest=largest) == expected
                if covers._run_pairs(space, rows, cols,
                                     -1 if largest else 1) is None:
                    plain += 1
                else:
                    split += 1
    assert split and plain


def test_corrupted_sum_cover_reads_few_pairs(monkeypatch):
    """With one point moved between two 729-point product clusters of
    the first certify job, the hull tables leave the pair and the grown
    cluster open.  Their scans read the sum's kernel only in
    the run pairs a last-factor bound leaves in reach: under 3,000
    distances, of the 1.06 million that the two plain scans read."""
    space = build_space(parse_spec(
        "sum(circle(3,1),circle(9,2),circle(27,10),circle(9,140))"))
    cover = dim_at_scale(space, 139, 278).certificate
    first = list(cover.families[0])
    moved = max(first[0])
    first[0], first[1] = first[0] - {moved}, first[1] | {moved}
    bad = ScaledCover.of(139, 278, [first] + list(cover.families[1:]))
    scanned, read, inside = [], [], []
    reader, first_extreme = FiniteMetricSpace._reader, covers._first_extreme

    def counting_reader(self, cols):
        bound = reader(self, cols)
        if self is not space:
            return bound

        def counted(I):
            block = bound(I)
            if inside:
                read.append(block.size)
            return block

        return counted

    def flagged_extreme(space, rows, cols, **kwargs):
        scanned.append(len(rows) * len(cols))
        inside.append(True)
        try:
            return first_extreme(space, rows, cols, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(FiniteMetricSpace, "_reader", counting_reader)
    monkeypatch.setattr(covers, "_first_extreme", flagged_extreme)
    report = validate_cover(space, bad)
    assert [v.kind for v in report.violations] == ["family-separation",
                                                   "cluster-diameter"]
    assert report == _reference_report(space, bad)
    assert sum(scanned) > 10**6
    assert 0 < sum(read) <= 3000
