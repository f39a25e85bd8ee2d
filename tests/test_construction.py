"""Weight schedules, truncations, structural conditions, and profiles."""

import warnings

import pytest

from scaledim import solver
from scaledim import (SmallCircleWarning, WeightSchedule, check_conditions,
                      check_metric, cyclic_group, dim_at_scale,
                      dim_zero_witness, dip_scales, group_truncation,
                      interval, interval_wedge_truncation, l1_axis_subsets,
                      l1_prefix_indices, l1_sum, profile, profile_csv,
                      schedule_csv, subspace, truncation_factors,
                      validate_cover, wedge_arm_subsets, wedge_prefix_indices,
                      wedge_truncation, weight_schedule)


def quiet_schedule(p, levels, mode="group"):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SmallCircleWarning)
        return weight_schedule(p, levels, mode)


# -- schedules ----------------------------------------------------------------


def test_group_schedule_values():
    assert quiet_schedule(3, 4).weights == (1, 2, 10, 140)
    assert quiet_schedule(2, 4).weights == (1, 2, 6, 30)
    assert quiet_schedule(5, 3).weights == (1, 3, 39)


def test_wedge_schedule_values():
    assert quiet_schedule(3, 4, "wedge").weights == (1, 2, 10, 139)


def test_interval_schedule_values():
    sched = quiet_schedule(3, 4, "interval-wedge")
    assert sched.weights == (1, 4, 20, 117)
    # p plays no role in this mode
    assert quiet_schedule(7, 4, "interval-wedge").weights == sched.weights


def test_each_weight_exceeds_what_came_before():
    # a_n is one more than the diameter of the assembly of levels < n;
    # for circles and base-anchored intervals the eccentricity from the
    # basepoint equals the factor diameter, so the wedge diameter is the
    # top-two sum of factor diameters
    for mode in ("group", "wedge", "interval-wedge"):
        sched = quiet_schedule(3, 5, mode)
        diams = [f.diameter() for f in truncation_factors(sched)]
        for n in range(2, 6):
            if mode == "group":
                prior = sum(diams[:n - 1])
            else:
                top = sorted(diams[:n - 1])[-2:]
                prior = sum(top)
            assert sched.weight(n) == prior + 1, (mode, n)


def test_dip_scales():
    assert dip_scales(quiet_schedule(3, 4)) == [0, 1, 9, 139]


def test_small_circle_warning_levels():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        weight_schedule(3, 3)
    assert [w.category for w in caught] == [SmallCircleWarning]
    assert "level 1" in str(caught[0].message)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        weight_schedule(2, 4)
    assert len(caught) == 2  # 2 < 4 and 4 < 6, but 8 >= 8
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        weight_schedule(5, 3)
    assert not caught


def test_schedule_errors():
    with pytest.raises(ValueError, match="mode"):
        weight_schedule(3, 2, "spiral")
    with pytest.raises(ValueError):
        weight_schedule(1, 2)
    with pytest.raises(ValueError):
        weight_schedule(3, 0)


# -- truncations ---------------------------------------------------------------


def test_group_truncation_shape():
    g2 = group_truncation(3, 2)
    assert (g2.label, g2.size, g2.diameter()) == ("group(3,2)", 27, 9)
    g3 = group_truncation(3, 3)
    assert (g3.size, g3.diameter()) == (729, 139)
    assert g3.min_positive_distance() == 1
    check_metric(g2)


def test_wedge_truncation_shape():
    w3 = wedge_truncation(3, 3)
    assert (w3.label, w3.size, w3.diameter()) == ("wedgegroup(3,3)", 37, 138)
    check_metric(w3)
    w4 = wedge_truncation(3, 4)
    assert (w4.size, w4.diameter()) == (117, 139 * 40 + 130)


def test_interval_wedge_truncation_shape():
    iw = interval_wedge_truncation(3)
    assert (iw.label, iw.size, iw.diameter()) == ("wedgeintervals(3)", 13, 116)
    check_metric(iw)


def test_axis_subsets_are_isometric_to_factors():
    sched = quiet_schedule(3, 3)
    factors = truncation_factors(sched)
    total = l1_sum(factors)
    for f, idx in zip(factors, l1_axis_subsets(factors)):
        sub = subspace(total, idx)
        assert sub.size == f.size
        assert all(sub.dist(i, j) == f.dist(i, j)
                   for i in range(f.size) for j in range(f.size))


def test_arm_subsets_are_isometric_to_factors():
    sched = quiet_schedule(3, 3, "wedge")
    factors = truncation_factors(sched)
    total = wedge_truncation(3, 3)
    for f, idx in zip(factors, wedge_arm_subsets(factors)):
        sub = subspace(total, idx)
        assert sub.size == f.size
        got = sorted(sub.dist(0, q) for q in range(sub.size))
        want = sorted(f.dist(f.basepoint, q) for q in range(f.size))
        assert got == want


def test_prefix_indices():
    factors = truncation_factors(quiet_schedule(3, 3))
    assert l1_prefix_indices(factors, 1) == [0, 1, 2]
    assert l1_prefix_indices(factors, 2) == list(range(27))
    wf = truncation_factors(quiet_schedule(3, 3, "wedge"))
    assert wedge_prefix_indices(wf, 1) == [0, 1, 2]
    assert wedge_prefix_indices(wf, 2) == list(range(11))


# -- conditions ----------------------------------------------------------------


def test_conditions_on_group_schedule():
    sched = quiet_schedule(3, 4)
    report = check_conditions(sched)
    assert report.ok
    assert not report.strict_ok  # the 3-point circle is undersized
    lv1 = report.levels[0]
    assert not lv1.length_prerequisite
    assert lv1.rise_ok == ((1, False),)
    for lv in report.levels[1:]:
        assert lv.length_prerequisite
        assert lv.rises_hold()
        assert lv.discrete_ok
        assert lv.prefix_diameter_ok
    assert report.levels[-1].separation_ok is None
    assert "undersized" in report.describe()


def test_conditions_on_wedge_schedule():
    for n_levels in (1, 2, 3, 4):
        report = check_conditions(quiet_schedule(3, n_levels, "wedge"))
        assert report.ok, report.describe()


def test_constant_weights_fail_by_design():
    sched = WeightSchedule(3, (1, 1, 1), "group")
    report = check_conditions(sched)
    assert not report.ok
    assert [lv.prefix_diameter_ok for lv in report.levels] == [None, False, False]
    assert [lv.separation_ok for lv in report.levels] == [False, False, None]
    # the rises themselves still hold at the adequately sized levels
    assert all(lv.rises_hold() for lv in report.levels if lv.length_prerequisite)


def test_conditions_factor_count_mismatch():
    sched = quiet_schedule(3, 2)
    with pytest.raises(ValueError, match="expected 2 factors"):
        check_conditions(sched, [cyclic_group(3, 1)])


# -- witnesses and profiles -----------------------------------------------------


def test_dim_zero_witness_on_group_truncation():
    g2 = group_truncation(3, 2)
    cover = dim_zero_witness(g2, l1_prefix_indices(
        truncation_factors(quiet_schedule(3, 2)), 1), 1, 2)
    assert len(cover.families) == 1
    assert validate_cover(g2, cover).ok
    assert frozenset({0, 1, 2}) in cover.families[0]


def test_dim_zero_witness_refuses_connected_complement():
    g2 = group_truncation(3, 2)
    with pytest.raises(ValueError, match="no single-family cover"):
        # at lam 2 the whole space is one chain, so the prefix cluster
        # cannot be separated from the rest
        dim_zero_witness(g2, [0, 1, 2], 2, 2)


def test_profile_small_space_is_exact():
    w2 = wedge_truncation(3, 2)
    prof = profile(w2, 2, [1, 2])
    assert [(s.lam, s.value, s.status) for s in prof.samples] == [
        (1, 0, "exact"), (2, 1, "exact")]
    assert prof.label == "wedgegroup(3,2)"


def test_profile_large_space_certified_bounds():
    sched = quiet_schedule(3, 3)
    factors = truncation_factors(sched)
    g3 = l1_sum(factors, label="group(3,3)")
    prof = profile(g3, 2, [1, 2, 9, 10],
                   witness_subsets=l1_axis_subsets(factors))
    rows = [(s.lam, s.control, s.value, s.status) for s in prof.samples]
    assert rows == [(1, 2, 0, "exact"), (2, 4, 1, "lower-bound"),
                    (9, 18, 0, "exact"), (10, 20, 1, "lower-bound")]


def test_profile_large_space_without_witnesses_probes_two_families():
    # with no witnesses the big-space policy falls back to a component
    # scan plus a single two-family probe; on a space that is actually
    # small we can check the answer against the exact search
    g2 = group_truncation(3, 2)
    truth = dim_at_scale(g2, 2, 4)
    assert truth.status == "exact"
    prof = profile(g2, 2, [2], search_size_cap=10)
    (s,) = prof.samples
    if truth.value <= 1:
        assert (s.value, s.status) == (truth.value, "exact")
    else:
        assert (s.value, s.status) == (2, "lower-bound")


def test_profile_large_space_maps_each_outcome(monkeypatch):
    # Over the cap and without witnesses, each scale is one whole-space
    # scan plus at most a two-family search: 0 or 1 found is exact, two
    # families refuted is the bound 2, a spent budget leaves 1 unknown.
    grid = l1_sum([interval(4, 1), interval(4, 1)])
    scans = []
    real = solver.lambda_components

    def count(space, lam, subset=None):
        if space is grid:
            scans.append(lam)
        return real(space, lam, subset)

    monkeypatch.setattr(solver, "lambda_components", count)
    prof = profile(grid, 2, [8, 1, 2], search_size_cap=10)
    assert [(s.value, s.status) for s in prof.samples] == [
        (0, "exact"), (1, "exact"), (2, "lower-bound")]
    assert scans == [8, 1, 2]
    prof = profile(grid, 2, [1], search_size_cap=10, node_budget=1)
    assert [(s.value, s.status) for s in prof.samples] == [(1, "unknown")]


def test_profile_csv_format():
    w2 = wedge_truncation(3, 2)
    text = profile_csv(profile(w2, 2, [1, 2]))
    assert text == ("c,lambda,control,dim,status\n"
                    "2,1,2,0,exact\n"
                    "2,2,4,1,exact\n")


def test_schedule_csv_format():
    assert schedule_csv(quiet_schedule(3, 3)) == "n,a_n\n1,1\n2,2\n3,10\n"


def test_profile_rejects_bad_multiplier():
    with pytest.raises(ValueError):
        profile(wedge_truncation(3, 2), 0, [1])
