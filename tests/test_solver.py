"""Feasibility search, exact dimension, components, and the lift."""

import random

import pytest

from scaledim import solver
from scaledim import (FEASIBLE, INFEASIBLE, UNKNOWN, FiniteMetricSpace,
                      cyclic_group, dim_at_scale, dim_at_scale_bruteforce,
                      dim_le, from_matrix, interval, is_valid_color_class,
                      l1_sum, lambda_components, lift_product_cover,
                      oracle_check, random_metric_space, relabel, scale,
                      ScaledCover, shrink_to_partition, subspace,
                      validate_cover, wedge, wedge_truncation)


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
    for lam in (0, 1, 2, 4, 5, 9):
        fast = lambda_components(s, lam)              # product decomposition
        slow = lambda_components(s, lam, range(s.size))  # plain BFS
        assert fast.blocks == slow.blocks, lam
        assert fast.diameters == slow.diameters, lam
    # 2187 points, above MATRIX_CACHE_LIMIT: the BFS runs on the row kernel
    big = l1_sum([cyclic_group(3, 1), cyclic_group(27, 2),
                  cyclic_group(27, 10)])
    assert big.size == 2187
    for lam in (1, 2, 10):
        fast = lambda_components(big, lam)
        slow = lambda_components(big, lam, range(big.size))
        assert fast.blocks == slow.blocks, lam
        assert fast.diameters == slow.diameters, lam


def test_components_wedge_path_matches_generic(random_wedge):
    for seed in range(8):
        w = random_wedge(random.Random(100 + seed))
        # The same metric with no structure, no hints and no row kernel:
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
    assert is_valid_color_class(sp, 1, 4, range(5))
    assert not is_valid_color_class(sp, 1, 3, range(5))


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
    assert result.status == "unknown"
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


# -- lifting ------------------------------------------------------------------


def lift_factors():
    return [cyclic_group(3, 1), cyclic_group(9, 2), cyclic_group(27, 10)]


def test_lift_through_middle_factor():
    factors = lift_factors()
    base_cover = ScaledCover.of(9, 8, [[list(range(9))]])
    lifted = lift_product_cover(factors, 2, base_cover)
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
    lifted = lift_product_cover(factors, 2, base)
    assert len(lifted.families) == 2
    assert lifted.scale.control == 5 + 3
    assert validate_cover(l1_sum(factors), lifted).ok


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
