"""Feasibility search, exact dimension, components, and the lift."""

import math
import random

import numpy as np
import pytest

from scaledim import solver, spaces
from scaledim import (FEASIBLE, INFEASIBLE, UNKNOWN, FiniteMetricSpace,
                      cyclic_group, dim_at_scale, dim_at_scale_bruteforce,
                      dim_le, from_matrix, interval, l1_sum,
                      lambda_components, lift_product_cover,
                      oracle_check, random_metric_space, relabel, scale,
                      ScaledCover, shrink_to_partition, subspace,
                      validate_cover, wedge, wedge_truncation)
from scaledim.spacespec import build_space, parse_spec


def exact_dim(space, lam, control, **kw):
    result = dim_at_scale(space, lam, control, **kw)
    assert result.status == "exact", result
    return result


# -- components ---------------------------------------------------------------


def test_components_of_interval():
    sp = interval(5, 2)
    parts = lambda_components(sp, 1)
    assert parts.blocks == tuple((i,) for i in range(6))
    assert parts.diameters == (0,) * 6
    parts = lambda_components(sp, 2)
    assert parts.blocks == (tuple(range(6)),)
    assert parts.diameters == (10,)


def test_components_respect_subsets():
    sp = interval(9, 1)
    # remove point 4 from the set: the chain breaks there
    parts = lambda_components(sp, 1, [0, 1, 2, 3, 5, 6, 7, 8, 9])
    assert parts.blocks == ((0, 1, 2, 3), (5, 6, 7, 8, 9))
    assert parts.diameters == (3, 4)


def test_components_product_path_matches_generic():
    s = l1_sum([cyclic_group(3, 1), cyclic_group(4, 2), interval(2, 5)])
    # A scaled sum or wedge is the sum or wedge of its scaled factors.
    scaled_wedge = scale(wedge([cyclic_group(3, 1), s]), 3)
    for sp in (s, scale(s, 2), scaled_wedge):
        for lam in (0, 1, 2, 3, 4, 5, 8, 9, 10, 15, 18, 27):
            fast = lambda_components(sp, lam)          # product or arm split
            slow = lambda_components(sp, lam, range(sp.size))  # plain BFS
            assert fast.blocks == slow.blocks, (sp.label, lam)
            assert fast.diameters == slow.diameters, (sp.label, lam)
    # 2187 points, above MATRIX_CACHE_LIMIT: the BFS runs on the block kernel
    big = l1_sum([cyclic_group(3, 1), cyclic_group(27, 2),
                  cyclic_group(27, 10)])
    assert big.size == 2187
    for lam in (1, 2, 10):
        fast = lambda_components(big, lam)
        slow = lambda_components(big, lam, range(big.size))
        assert fast.blocks == slow.blocks, lam
        assert fast.diameters == slow.diameters, lam
    # Factors whose basepoint is not point 0: a relabelled circle and a
    # seeded matrix space.
    rng = random.Random(5)
    perm = list(range(6))
    rng.shuffle(perm)
    rm = random_metric_space(4, rng)
    rows = [[rm.dist(i, j) for j in range(4)] for i in range(4)]
    mixed = l1_sum([relabel(cyclic_group(6, 2), perm),
                    from_matrix(rows, basepoint=2), interval(2, 3)])
    dists = {int(v) for i in range(mixed.size) for v in mixed.dist_row(i)}
    for lam in sorted(dists):
        fast = lambda_components(mixed, lam)
        slow = lambda_components(mixed, lam, range(mixed.size))
        assert fast.blocks == slow.blocks, lam
        assert fast.diameters == slow.diameters, lam
    # Spaces with a known chain step form one block from it on, with no
    # scan: just below, at and just above it, against the plain BFS.  A
    # sum with a stepless factor has no step and is checked at all its
    # distances.
    stepped = [interval(5, 2), cyclic_group(7, 3), scale(cyclic_group(7, 3), 2),
               relabel(cyclic_group(6, 2), perm),
               wedge([interval(3, 2), cyclic_group(5, 1)]),
               l1_sum([interval(3, 2), subspace(interval(2, 1), [0])]),
               l1_sum([cyclic_group(5, 1), from_matrix(rows, basepoint=2)])]
    for sp in stepped:
        step = sp.known_chain_step
        lams = ({step - 1, step, step + 1} if step is not None else
                {int(v) for i in range(sp.size) for v in sp.dist_row(i)})
        for lam in sorted(lams):
            fast = lambda_components(sp, lam)
            slow = lambda_components(sp, lam, range(sp.size))
            assert fast.blocks == slow.blocks, (sp.label, lam)
            assert fast.diameters == slow.diameters, (sp.label, lam)


def test_known_chain_step_is_where_the_space_joins_up(monkeypatch):
    rows = [[0, 7, 7, 1], [7, 0, 5, 8], [7, 5, 0, 8], [1, 8, 8, 0]]
    one_point = subspace(interval(2, 1), [0])
    cases = [
        (interval(5, 2), 2),
        (cyclic_group(7, 3), 3),
        (scale(cyclic_group(7, 3), 2), 6),
        (scale(interval(4, 1), 3), 3),
        (relabel(cyclic_group(5, 4), [3, 0, 4, 1, 2]), 4),
        (relabel(l1_sum([interval(2, 1), cyclic_group(3, 2)]),
                 list(range(9))[::-1]), 2),
        (wedge([interval(3, 2), cyclic_group(5, 1)]), 2),
        (wedge([cyclic_group(4, 3), one_point]), 3),
        (l1_sum([interval(3, 2), cyclic_group(4, 5)]), 5),
        (scale(l1_sum([interval(3, 2), cyclic_group(4, 5)]), 2), 10),
        (l1_sum([interval(3, 2), one_point]), 2),
        (l1_sum([one_point, one_point]), 0),
        (l1_sum([interval(3, 2), from_matrix(rows, basepoint=0)]), None),
        (wedge([interval(3, 2), subspace(interval(4, 1), [0, 2])]), None),
        (scale(subspace(interval(5, 1), [0, 1, 3]), 2), None),
        (subspace(interval(5, 1), [0, 1, 2]), None),
        (from_matrix(rows), None),
        (random_metric_space(6, 2), None),
        (FiniteMetricSpace(5, lambda i, j: abs(i - j)), None),
    ]
    for sp, step in cases:
        assert sp.known_chain_step == step, sp.label
        if step:  # the plain BFS splits just below it and joins at it
            assert len(lambda_components(sp, step - 1, range(sp.size)).blocks) > 1
            assert len(lambda_components(sp, step, range(sp.size)).blocks) == 1
    with pytest.raises(AttributeError):
        sp.known_chain_step = 1
    # A connected circle is one block with its hinted diameter, read
    # without binding a single reader.  A bind fails at once, rather
    # than after a scan of 10^10 distances.
    big = cyclic_group(100000, 1)
    binds = []

    def refusing_reader(self, cols):
        binds.append(cols)
        raise AssertionError(f"{self.label} bound a reader")

    monkeypatch.setattr(FiniteMetricSpace, "_reader", refusing_reader)
    parts = lambda_components(big, 1)
    assert parts.blocks == (tuple(range(big.size)),)
    assert parts.diameters == (50000,)
    assert binds == []


def test_components_wedge_path_matches_generic(random_wedge):
    for seed in range(8):
        w = random_wedge(random.Random(100 + seed))
        # The same metric with no structure, no hints and no block kernel:
        # the plain BFS and diameter sweep over the scalar oracle.
        plain = FiniteMetricSpace(w.size, w.dist)
        dists = {int(v) for i in range(w.size) for v in w.dist_row(i)}
        for lam in sorted(dists | {0, w.diameter()}):
            fast = lambda_components(w, lam)          # arm-wise split
            slow = lambda_components(plain, lam)
            assert fast.blocks == slow.blocks, (seed, lam)
            assert fast.diameters == slow.diameters, (seed, lam)
    w5 = wedge_truncation(3, 5)
    weights = [f.min_positive_distance() for f in w5.structure[1]]
    for lam in sorted({0, w5.diameter()} | set(weights)
                      | {a - 1 for a in weights}):
        fast = lambda_components(w5, lam)
        slow = lambda_components(w5, lam, range(w5.size))
        assert fast.blocks == slow.blocks, lam
        assert fast.diameters == slow.diameters, lam


def test_component_chains_can_exceed_lambda_in_diameter():
    sp = interval(4, 1)
    parts = lambda_components(sp, 1)
    assert parts.blocks == ((0, 1, 2, 3, 4),)
    assert parts.diameters == (4,)
    # As one family the chain needs control 4, not 3.
    diam = lambda_components(sp, 1, range(5)).max_diameter()
    assert 3 < diam <= 4


# -- dim_le / dim_at_scale ----------------------------------------------------


def test_path_needs_two_families():
    sp = interval(3, 1)
    zero = dim_le(sp, 1, 2, 0)
    assert zero.status == INFEASIBLE
    assert zero.evidence.method == "component-diameter"
    one = dim_le(sp, 1, 2, 1)
    assert one.status == FEASIBLE
    assert len(one.certificate.families) == 2
    assert validate_cover(sp, one.certificate).ok
    assert exact_dim(sp, 1, 2).value == 1


def test_certificates_pad_to_requested_families():
    sp = interval(3, 1)
    out = dim_le(sp, 1, 3, 2)
    assert out.status == FEASIBLE
    assert len(out.certificate.families) == 3
    assert validate_cover(sp, out.certificate).ok


@pytest.mark.parametrize("m, lam, control, want", [
    (5, 1, 2, 0),   # diameter 2 fits one cluster
    (6, 1, 2, 1),   # diameter 3 forces a second family
    (4, 1, 1, 1),   # two opposite edges per family
    (7, 1, 3, 0),
    (9, 2, 4, 0),   # diameter 4 still fits one cluster
    (11, 2, 4, 1),  # diameter 5 does not
])
def test_circle_dimensions(m, lam, control, want):
    sp = cyclic_group(m, 1)
    assert exact_dim(sp, lam, control).value == want
    if m <= 10:
        brute, _ = dim_at_scale_bruteforce(sp, lam, control)
        assert brute == want


def test_single_point_and_empty_edge_cases():
    single = from_matrix([[0]])
    assert exact_dim(single, 5, 0).value == 0
    out = dim_le(single, 0, 0, 3)
    assert out.status == FEASIBLE
    assert len(out.certificate.families) == 4


def test_control_zero_separates_everything():
    sp = interval(2, 1)  # 3 points in a row, lam 1, control 0
    # each cluster is a single point; points 0,1 within lam must split
    assert exact_dim(sp, 1, 0).value == 1
    assert exact_dim(sp, 2, 0).value == 2


def test_unknown_on_tiny_budget():
    sp = cyclic_group(12, 1)
    out = dim_le(sp, 1, 1, 1, node_budget=3)
    assert out.status == UNKNOWN
    assert out.certificate is None
    result = dim_at_scale(sp, 1, 1, node_budget=3)
    assert result.status == "unknown"
    assert result.value is None
    assert result.lower_bound >= 1


def test_max_n_stops_the_scan():
    sp = interval(5, 1)
    result = dim_at_scale(sp, 1, 0, max_n=0)
    assert result.status == "lower-bound"
    assert result.lower_bound == 1


def test_solver_agrees_with_bruteforce_on_seeded_spaces():
    rng = random.Random(7)
    for _ in range(40):
        size = rng.randint(2, 7)
        sp = random_metric_space(size, rng)
        dists = sorted({sp.dist(i, j) for i in range(size)
                        for j in range(i + 1, size)})
        lam = rng.choice([0] + dists)
        control = rng.choice([0] + dists)
        fast = exact_dim(sp, lam, control)
        brute, brute_cover = dim_at_scale_bruteforce(sp, lam, control)
        assert fast.value == brute, (size, lam, control)
        assert validate_cover(sp, fast.certificate).ok
        assert validate_cover(sp, brute_cover).ok
        # solver certificates are already partitions
        assert shrink_to_partition(sp, fast.certificate) == fast.certificate


def test_oracle_check_runs_clean():
    report = oracle_check(seed=3, cases=15, size_max=6)
    assert report.ok
    assert report.checks == 15 * 16


def test_monotonicity_smoke():
    rng = random.Random(11)
    for _ in range(10):
        sp = random_metric_space(rng.randint(3, 6), rng)
        d = sp.diameter()
        v1 = exact_dim(sp, 0, 1).value
        v2 = exact_dim(sp, 1, 1).value
        assert v1 <= v2                       # harder with larger lam
        w1 = exact_dim(sp, 1, d).value
        assert w1 <= v2                       # easier with larger control
        a = 3
        assert exact_dim(scale(sp, a), a, a).value == v2
        perm = list(range(sp.size))
        rng.shuffle(perm)
        assert exact_dim(relabel(sp, perm), 1, 1).value == v2
        sub = subspace(sp, sorted(rng.sample(range(sp.size), 3)))
        assert exact_dim(sub, 1, 1).value <= v2


def test_search_is_deterministic():
    sp = random_metric_space(7, 123)
    a = dim_at_scale(sp, 2, 3)
    b = dim_at_scale(sp, 2, 3, node_budget=10**7)
    assert a.value == b.value
    assert a.certificate == b.certificate
    assert a.nodes == b.nodes


def test_dim_at_scale_scans_once(monkeypatch):
    # The 5x5 grid has dimension 2 at (2, 4): n = 0, 1 and 2 are all
    # tried, yet the space is scanned and ordered once.
    grid = l1_sum([interval(4, 1), interval(4, 1)])
    calls = []
    for name in ("lambda_components", "_search_order"):
        def spy(space, *args, _real=getattr(solver, name), _name=name,
                **kwargs):
            if space is grid:
                calls.append(_name)
            return _real(space, *args, **kwargs)
        monkeypatch.setattr(solver, name, spy)
    result = exact_dim(grid, 2, 4)
    assert result.value == 2
    assert result.lower_bound_evidence.method == "exhaustive-search"
    assert calls == ["lambda_components", "_search_order"]
    assert dim_le(grid, 2, 4, 2).certificate == result.certificate
    # Settled by the scan alone: no search order is built.
    calls.clear()
    assert exact_dim(grid, 2, 8).value == 0
    assert calls == ["lambda_components"]


# Search-tree sizes of the degree-ordered search, counted across every
# candidate n.  The colour classes may change how they find a point's
# components, but not which points they accept, so these stay fixed.
# The first two never backtrack; the others are forward-checked from
# their first backtrack on.
@pytest.mark.parametrize("spec, lam, control, budget, status, nodes", [
    ("circle(60,1)", 1, 2, None, "exact", 75),
    ("circle(1000,1)", 1, 2, None, "exact", 1250),
    ("sum(interval(4,1),interval(4,1))", 2, 4, None, "exact", 585),
    ("sum(circle(6,1),circle(6,1))", 2, 4, None, "exact", 382),
    ("sum(interval(6,1),interval(6,1))", 2, 5, 100_000, "exact", 3370),
    ("sum(interval(6,1),interval(6,1))", 2, 5, 2_000, "unknown", 2_001),
    # Merge-heavy: random metrics (points, seed) at the q0.25 and q0.5
    # distance quantiles, as in the benchmark's search workload.
    pytest.param((50, 3), 1, 2, None, "exact", 1_251, id="random(50,3)"),
    pytest.param((40, 1), 1, 2, None, "exact", 292, id="random(40,1)"),
])
def test_search_tree_sizes_are_pinned(spec, lam, control, budget, status,
                                      nodes):
    if isinstance(spec, tuple):
        space = random_metric_space(*spec)
    else:
        space = build_space(parse_spec(spec))
    kw = {} if budget is None else {"node_budget": budget}
    result = dim_at_scale(space, lam, control, **kw)
    assert (result.status, result.nodes) == (status, nodes)


def _plain_dim(space, lam, control, budget):
    # A plain backtracking DFS, sharing nothing with the solver but the
    # distances: the degree order, restricted growth, and a BFS for the
    # component a point joins.  Returns (dimension or None past the
    # budget, number of backtracks for n >= 1, where the solver
    # searches).
    m = space.size
    dist = np.array([space.dist_row(i) for i in range(m)])
    near = dist <= lam
    order = sorted(range(m), key=lambda i: (-int(near[i].sum()), i))
    nodes = backtracks = 0

    def fits(members, p):
        comp, todo = {p}, [p]
        while todo:
            q = todo.pop()
            for r in members:
                if r not in comp and near[q, r]:
                    comp.add(r)
                    todo.append(r)
        idx = sorted(comp)
        return dist[np.ix_(idx, idx)].max() <= control

    def place(classes, t):
        nonlocal nodes, backtracks
        if t == m:
            return True
        p = order[t]
        used = sum(1 for cls in classes if cls)
        for cls in classes[:used + 1]:
            nodes += 1
            if nodes > budget:
                raise TimeoutError
            if fits(cls, p):
                cls.append(p)
                if place(classes, t + 1):
                    return True
                cls.pop()
        backtracks += 1
        return False

    for n in range(m):
        try:
            if place([[] for _ in range(n + 1)], 0):
                return n, backtracks
        except TimeoutError:
            return None, backtracks
        if n == 0:
            backtracks = 0


def test_forward_checking_agrees_with_a_plain_dfs(monkeypatch):
    # On seeded random spaces of 8 to 40 points, at scales where the
    # plain DFS backtracks and so the solver starts forward checking,
    # both give the same exact dimension and the certificate validates.
    built = []

    class Counting(solver._Forward):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(solver, "_Forward", Counting)
    rng = random.Random(2024)
    cases = 0
    while cases < 40:
        size = rng.randint(8, 40)
        space = random_metric_space(size, rng.randrange(2**32))
        dists = sorted({int(v) for i in range(size)
                        for v in space.dist_row(i)[i + 1:]})
        for _ in range(6):
            lam = dists[rng.randrange(len(dists) // 2)]
            control = rng.choice([d for d in dists if d >= lam])
            value, backtracks = _plain_dim(space, lam, control, 5_000)
            if value is None or not backtracks:
                continue
            built.clear()
            result = dim_at_scale(space, lam, control)
            assert built, (size, lam, control)
            assert (result.status, result.value) == ("exact", value)
            assert len(result.certificate.families) == value + 1
            assert validate_cover(space, result.certificate).ok
            cases += 1
            break


def _point_masks(space, radius):
    # Each point's ball of the radius as a bitmask from point 0.
    return [sum(1 << int(q) for q in np.flatnonzero(space.dist_row(p)
                                                   <= radius))
            for p in range(space.size)]


def _forward_state(ball, touch, classes, placed):
    # The blocked masks and free points recomputed from the members of
    # each class's components.
    blocked = []
    for cls in classes:
        mask = 0
        for *_, ms in cls.comps.values():
            reach, near = -1, 0
            for x in ms:
                reach &= ball[x]
                near |= touch[x]
            mask |= near & ~reach
        blocked.append(mask)
    free = sum(1 << q for q in range(len(ball)) if q not in placed)
    return blocked, free


def test_forward_state_follows_inserts_and_undos(random_wedge):
    # Random inserts and undos across three classes: the blocked masks
    # and the free points always equal their recomputation from the
    # classes, every blocked point is refused by its class, and grow
    # returns the free points blocked in every class.
    for seed in range(30):
        rng = random.Random(seed)
        space = (random_wedge(rng) if seed % 3 == 0 else
                 random_metric_space(rng.randint(3, 14), rng))
        dists = sorted({int(v) for i in range(space.size)
                        for v in space.dist_row(i)})
        lam = rng.choice(dists)
        control = rng.choice([d for d in dists if d >= lam])
        ball = _point_masks(space, control)
        touch = _point_masks(space, lam)
        rows = solver._Neighbours(space, lam, control)
        classes = [solver._ColorClass(space.size) for _ in range(3)]
        fc = solver._Forward(classes, list(range(space.size)))
        stack = []
        for _ in range(3 * space.size):
            placed = {p for p, _, _ in stack}
            outside = [q for q in range(space.size) if q not in placed]
            if outside and (not stack or rng.random() < 0.7):
                p, c = rng.choice(outside), rng.randrange(3)
                token = classes[c].try_insert(p, rows(p))
                if (fc.blocked[c] >> p) & 1:
                    assert token is None
                if token is None:
                    continue
                every = fc.grow(len(stack), c, token)
                stack.append((p, c, token))
                blocked, free = _forward_state(ball, touch, classes,
                                               placed | {p})
                assert every == free & blocked[0] & blocked[1] & blocked[2]
            else:
                p, c, token = stack.pop()
                fc.undo(len(stack))
                classes[c].undo(token)
            blocked, free = _forward_state(ball, touch, classes,
                                           {p for p, _, _ in stack})
            assert (fc.blocked, fc.free) == (blocked, free)


def test_circle_81_cell_is_one_family_short_of_the_counting_bound():
    # The last factor of group(3,4) at (2869, 5599): two families of two
    # arcs each, every arc at most 20 steps of 140 wide and each pair of
    # arcs in a family more than 2869 apart, so the dimension is 1.
    space = cyclic_group(81, 140)
    hand = ScaledCover.of(2869, 5599, [[range(0, 20), range(40, 60)],
                                       [range(20, 40), range(60, 81)]])
    assert validate_cover(space, hand).ok
    result = dim_at_scale(space, 2869, 5599, node_budget=100_000)
    assert (result.status, result.value) == ("exact", 1)
    assert validate_cover(space, result.certificate).ok


def _class_state(cls):
    return (list(cls.owner), cls.mask,
            {c: (*comp[:6], tuple(comp[6])) for c, comp in cls.comps.items()})


def _mask(points):
    # The bitmask of a point set relative to its least point.
    lo = min(points)
    return lo, sum(1 << (q - lo) for q in points)


def _check_color_class(rng, space):
    dists = sorted({int(v) for i in range(space.size)
                    for v in space.dist_row(i)})
    lam = rng.choice(dists)
    control = rng.choice([d for d in dists if d >= lam])
    rows = solver._Neighbours(space, lam, control)
    cls = solver._ColorClass(space.size)
    ball = _point_masks(space, control)
    lam_ball = _point_masks(space, lam)
    stack = []
    for _ in range(2 * space.size):
        inside = [p for p, _ in stack]
        outside = [q for q in range(space.size) if q not in inside]
        if outside and (not stack or rng.random() < 0.7):
            p = rng.choice(outside)
            before = _class_state(cls)
            token = cls.try_insert(p, rows(p))
            fits = lambda_components(
                space, lam, inside + [p]).max_diameter() <= control
            assert (token is not None) == fits
            if token is None:
                assert _class_state(cls) == before
            else:
                stack.append((p, token))
        else:
            cls.undo(stack.pop()[1])
        inside = [p for p, _ in stack]
        want = lambda_components(space, lam, inside)
        assert {frozenset(comp[6]) for comp in cls.comps.values()} == \
            {frozenset(b) for b in want.blocks}
        assert want.max_diameter() <= control
        for c, (lo, bits, rlo, reach, tlo, touch, ms) in cls.comps.items():
            assert (lo, bits) == _mask(ms)
            want_reach, want_touch = -1, 0
            for x in ms:
                want_reach &= ball[x]
                want_touch |= lam_ball[x]
            assert reach << rlo == want_reach
            # The touch mask is the members and their lam-neighbours,
            # relative to its least point.
            assert touch << tlo == want_touch and touch & 1
            assert all(cls.owner[x] == c for x in ms) and c in ms
        # The member mask and the owners name the same points.
        assert cls.mask == sum(1 << p for p in inside)
        assert [q for q, c in enumerate(cls.owner) if c >= 0] == sorted(inside)


def test_merge_is_refused_when_a_component_leaves_the_merged_reach():
    # On interval(6,1) at lam 1, {0,1} and {3,4} are two components, and
    # point 2 lies in the reach of each: within control of all of its
    # members.  Joined, they span 0..4, so at control 3 the merge test
    # refuses point 2, each component's members not all lying in the
    # other's reach, and at control 4 it accepts.
    sp = interval(6, 1)
    for control, fits in ((3, False), (4, True)):
        rows = solver._Neighbours(sp, 1, control)
        cls = solver._ColorClass(sp.size)
        for p in (0, 1, 3, 4):
            assert cls.try_insert(p, rows(p)) is not None
        assert sorted(map(sorted, cls.clusters())) == [[0, 1], [3, 4]]
        for _, _, rlo, reach, _, _, _ in cls.comps.values():
            assert reach >> (2 - rlo) & 1
        before = _class_state(cls)
        token = cls.try_insert(2, rows(2))
        assert (token is not None) == fits
        if token is None:
            assert _class_state(cls) == before
            continue
        [(lo, bits, rlo, reach, _, _, ms)] = cls.comps.values()
        assert sorted(ms) == [0, 1, 2, 3, 4]
        assert (lo, bits) == _mask(ms)
        assert (rlo, reach) == _mask([0, 1, 2, 3, 4])
        cls.undo(token)
        assert _class_state(cls) == before


def test_color_class_tracks_components(random_wedge):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=80, deadline=None)
    @hypothesis.given(seed=st.integers(0, 2**32 - 1),
                      kind=st.sampled_from(["random", "grid", "wedge"]))
    def check(seed, kind):
        rng = random.Random(seed)
        if kind == "random":
            space = random_metric_space(rng.randint(1, 12), rng)
        elif kind == "grid":
            space = l1_sum([interval(rng.randint(1, 2), rng.randint(1, 2))
                            for _ in range(rng.randint(1, 3))])
        else:
            space = random_wedge(rng)
        _check_color_class(rng, space)

    check()


def test_stored_masks_are_as_wide_as_their_index_span(monkeypatch):
    # Balls and component masks are stored relative to their least
    # point.  On circle(3000,1) at (1, 2), searched without a dense
    # matrix, each is one word wide, except the few that hold both ends
    # of the index range, where the circle closes.
    sp = cyclic_group(3000, 1)
    want = dim_at_scale(cyclic_group(3000, 1), 1, 2)
    classes, tables = [], []

    class Recording(solver._ColorClass):
        __slots__ = ()

        def __init__(self, size):
            super().__init__(size)
            classes.append(self)

    class RecordingRows(solver._Neighbours):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            tables.append(self)

    monkeypatch.setattr(solver, "_ColorClass", Recording)
    monkeypatch.setattr(solver, "_Neighbours", RecordingRows)
    got = dim_at_scale(sp, 1, 2)
    assert (got.value, got.nodes, got.certificate) == \
        (want.value, want.nodes, want.certificate)
    ends = {0, sp.size - 1}

    def check(lo, bits, points):
        assert (lo, bits) == _mask(points)
        assert bits.bit_length() <= 64 or ends <= set(points)

    [rows] = tables
    assert rows.space is sp and sp._matrix is None
    assert None not in rows.rows
    for p, (_, _, lo, ball) in enumerate(rows.rows):
        check(lo, ball, np.flatnonzero(sp.dist_row(p) <= 2).tolist())
    assert sum(ball.bit_length() > 64 for *_, ball in rows.rows) == 4
    live = [comp for cls in classes for comp in cls.comps.values()]
    assert len(live) == len(got.certificate.families[0]) + \
        len(got.certificate.families[1])
    for lo, bits, _, _, _, _, ms in live:
        check(lo, bits, ms)


def _check_row(space, lam, control, p, row):
    # A row against the oracle: the lam-neighbours other than p and the
    # control ball, each a bitmask from its least point (p when p has no
    # neighbour).
    nlo, near, blo, ball = row
    d = space.dist_row(p)
    assert near << nlo == sum(1 << int(q) for q in np.flatnonzero(d <= lam)
                              if q != p)
    assert ball << blo == sum(1 << int(q)
                              for q in np.flatnonzero(d <= control))
    assert near & 1 if near else nlo == p
    assert ball & 1


def _words(row):
    _, near, _, ball = row
    return (near.bit_length() + 63) // 64 + (ball.bit_length() + 63) // 64


def test_neighbour_rows_match_the_oracle(monkeypatch, random_wedge):
    # Every row, whether read by the ordering pass (in blocks of a few
    # rows here), on visit above _DEGREE_ORDER_LIMIT, or again on each
    # visit past _NEIGHBOUR_LIMIT, equals its recomputation from
    # dist_row.  The order is by neighbour count, and kept counts the
    # words of the kept masks.
    monkeypatch.setattr(spaces, "_SCAN_ELEMS", 40)
    cases = [random_metric_space(12, 3), interval(9, 2), cyclic_group(11, 3),
             l1_sum([interval(3, 1), cyclic_group(4, 2)]),
             random_wedge(random.Random(1)),
             subspace(l1_sum([interval(4, 1), cyclic_group(5, 1)]),
                      [0, 2, 3, 7, 11, 12, 18, 19, 24]),
             scale(cyclic_group(7, 1), 3)]
    for space in cases:
        m = space.size
        dists = sorted({int(v) for p in range(m) for v in space.dist_row(p)})
        for lam, control in ((0, dists[len(dists) // 2]),
                             (dists[1], dists[len(dists) // 2]),
                             (dists[len(dists) // 2], dists[-1])):
            order, rows = solver._search_order(space, lam, control)
            assert None not in rows.rows
            assert rows.kept == sum(map(_words, rows.rows))
            for p, row in enumerate(rows.rows):
                _check_row(space, lam, control, p, row)
            degree = [int((space.dist_row(p) <= lam).sum()) - 1
                      for p in range(m)]
            assert order == sorted(range(m), key=lambda p: (-degree[p], p))
            with monkeypatch.context() as patch:
                patch.setattr(solver, "_DEGREE_ORDER_LIMIT", 0)
                order, rows = solver._search_order(space, lam, control)
                assert order == list(range(m)) and rows.rows == [None] * m
                for p in reversed(range(m)):
                    _check_row(space, lam, control, p, rows(p))
                    assert rows.rows[p] == rows(p)
                assert rows.kept == sum(map(_words, rows.rows))
            with monkeypatch.context() as patch:
                patch.setattr(solver, "_NEIGHBOUR_LIMIT", 0)
                _, rows = solver._search_order(space, lam, control)
                for p in range(m):
                    _check_row(space, lam, control, p, rows(p))
                assert rows.rows == [None] * m and rows.kept == 0


def test_neighbour_rows_past_the_limit_are_reread(monkeypatch):
    # With no room to keep rows, every visit reads its row again: the
    # search explores the same tree and finds the same cover.
    cases = [(cyclic_group(60, 1), 1, 2),
             (l1_sum([interval(4, 1), interval(4, 1)]), 2, 4),
             (random_metric_space(30, 7), 3, 5)]
    kept = [dim_at_scale(sp, lam, control) for sp, lam, control in cases]
    monkeypatch.setattr(solver, "_NEIGHBOUR_LIMIT", 0)
    for (sp, lam, control), want in zip(cases, kept):
        got = dim_at_scale(sp, lam, control)
        assert (got.status, got.value, got.nodes, got.certificate) == \
            (want.status, want.value, want.nodes, want.certificate)
        _, rows = solver._search_order(sp, lam, control)
        assert rows.kept == 0


def test_large_spaces_read_neighbours_on_visit(monkeypatch):
    # Above _DEGREE_ORDER_LIMIT no row is read before the search: the
    # order is the index order and each row is read on first visit.
    monkeypatch.setattr(solver, "_DEGREE_ORDER_LIMIT", 10)
    sp = l1_sum([interval(4, 1), interval(4, 1)])
    order, rows = solver._search_order(sp, 2, 4)
    assert order == list(range(sp.size))
    assert rows.rows == [None] * sp.size
    result = exact_dim(sp, 2, 4)
    assert result.value == 2
    assert validate_cover(sp, dim_le(sp, 2, 4, 2).certificate).ok


def test_dim_le_input_validation():
    sp = interval(2, 1)
    with pytest.raises(ValueError):
        dim_le(sp, -1, 2, 0)
    with pytest.raises(ValueError):
        dim_le(sp, 1, -2, 0)
    with pytest.raises(ValueError):
        dim_le(sp, 1, 2, -1)
    with pytest.raises(ValueError):
        dim_at_scale_bruteforce(random_metric_space(11, 0), 1, 1)


@pytest.mark.parametrize("call, name, value", [
    (lambda sp: lambda_components(sp, -1), "lam", -1),
    (lambda sp: lambda_components(sp, True), "lam", True),
    (lambda sp: dim_le(sp, 1, 2, True), "n", True),
    (lambda sp: dim_at_scale(sp, 1, 2, max_n=-1), "max_n", -1),
    (lambda sp: dim_at_scale(sp, 1, 2, max_n=True), "max_n", True),
    (lambda sp: spaces.ScalePair(1, -1), "control", -1),
], ids=["components-negative", "components-bool", "dim_le-n-bool",
        "max_n-negative", "max_n-bool", "scale-pair-control"])
def test_integer_arguments_share_one_message(call, name, value):
    """Every nonnegative-integer argument is refused with the same
    message, naming the argument, and a bool is not an integer here."""
    with pytest.raises(ValueError) as err:
        call(interval(3, 1))
    assert str(err.value) == \
        f"{name} must be a nonnegative integer, got {value!r}"


def test_the_empty_space_has_no_components_and_dimension_0():
    empty = from_matrix([])
    assert lambda_components(empty, 3) == solver.ComponentPartition((), ())
    result = dim_at_scale(empty, 1, 1)
    assert (result.status, result.value, result.lower_bound) == ("exact", 0, 0)
    assert result.certificate.families == ((),)


# -- lifting ------------------------------------------------------------------


def lift_factors():
    return [cyclic_group(3, 1), cyclic_group(9, 2), cyclic_group(27, 10)]


def checked_lift(factors, k, base):
    # Each lifted cluster must be a base cluster C in coordinate k, one
    # fixed choice of the later coordinates and every choice of the
    # earlier ones, read off the mixed-radix digits of its points.
    lifted = lift_product_cover(factors, k, base)
    sizes = [f.size for f in factors]
    lead, tail = math.prod(sizes[:k - 1]), math.prod(sizes[k:])

    def digits(x):
        out = []
        for s in sizes:
            x, r = divmod(x, s)
            out.append(r)
        return out

    assert len(lifted.families) == len(base.families)
    for fam, base_fam in zip(lifted.families, base.families):
        assert len(fam) == len(base_fam) * tail
        picks = set()
        for cl in fam:
            ds = [digits(x) for x in cl]
            on_k = frozenset(d[k - 1] for d in ds)
            tails = {tuple(d[k:]) for d in ds}
            assert on_k in base_fam and len(tails) == 1
            assert len(cl) == len(on_k) * lead
            picks.add((on_k, tails.pop()))
        assert len(picks) == len(fam)
    assert validate_cover(l1_sum(factors), lifted).ok
    return lifted


def test_lift_through_middle_factor():
    factors = lift_factors()
    base_cover = ScaledCover.of(9, 8, [[list(range(9))]])
    lifted = checked_lift(factors, 2, base_cover)
    assert lifted.scale.lam == 9
    assert lifted.scale.control == 9  # prefix diameter 1 + control 8
    total = l1_sum(factors)
    report = validate_cover(total, lifted)
    assert report.ok
    # one family, one cluster per trailing-coordinate choice
    assert len(lifted.families) == 1
    assert len(lifted.families[0]) == 27
    assert all(len(cl) == 27 for cl in lifted.families[0])
    assert lifted.point_count() == total.size


def test_lift_keeps_family_structure():
    factors = [interval(1, 5), cyclic_group(4, 3)]
    # two families on the 4-cycle at (3, 3): opposite edges
    base = ScaledCover.of(3, 3, [[[0, 1]], [[2, 3]]])
    assert validate_cover(factors[1], base).ok
    lifted = checked_lift(factors, 2, base)
    assert len(lifted.families) == 2
    assert lifted.scale.control == 5 + 3
    # The first factor (no prefix) and the last of three.
    ends = lift_factors()
    first = ScaledCover.of(1, 0, [[[0]], [[1]], [[2]]])
    lifted = checked_lift(ends[:2], 1, first)
    assert len(lifted.families) == 3
    assert lifted.scale.control == 0
    # opposite arcs of the 27-cycle, 70 apart, diameter at most 60
    last = ScaledCover.of(10, 60, [[range(0, 7), range(14, 21)],
                                   [range(7, 14), range(21, 27)]])
    lifted = checked_lift(ends, 3, last)
    assert len(lifted.families) == 2
    assert lifted.scale.control == 1 + 8 + 60


def test_lift_rejects_insufficiently_separated_tail():
    factors = lift_factors()
    # lam = 10 is not strictly below the third factor's minimum distance
    base_cover = ScaledCover.of(10, 8, [[list(range(9))]])
    with pytest.raises(ValueError, match=r"factor 3 .*strictly"):
        lift_product_cover(factors, 2, base_cover)


def test_lift_rejects_invalid_base_cover():
    factors = lift_factors()
    too_tight = ScaledCover.of(9, 7, [[list(range(9))]])  # diameter is 8
    with pytest.raises(ValueError, match="not valid on factor 2"):
        lift_product_cover(factors, 2, too_tight)
    with pytest.raises(ValueError, match="out of range"):
        lift_product_cover(factors, 5, too_tight)
