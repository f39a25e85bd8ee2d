"""Weight schedules, truncations, structural conditions, and profiles."""

import random
import warnings

import pytest

from scaledim import construction, solver
from scaledim import (INFEASIBLE, SmallCircleWarning, WeightSchedule,
                      check_conditions, check_metric, cyclic_group,
                      dim_at_scale, dim_le, from_matrix, group_truncation,
                      interval, l1_axis_subsets, l1_sum, profile,
                      profile_csv, relabel, scale, schedule_csv, subspace,
                      truncation_factors, wedge_arm_subsets, wedge_points,
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


def test_schedule_is_the_direct_recurrence():
    # a_n is one more than the prior assembly's diameter: the sum of the
    # earlier pieces' eccentricities a_k * (p^k // 2) in group mode, the
    # two largest of them in wedge mode, recomputed here at every level.
    for p in (3, 5):
        for mode in ("group", "wedge"):
            weights, eccs = [], []
            for n in range(1, 61):
                prior = sorted(eccs)[-2:] if mode == "wedge" else eccs
                weights.append(1 + sum(prior))
                eccs.append(weights[-1] * (p**n // 2))
            for levels in range(1, 61):
                assert quiet_schedule(p, levels, mode).weights == \
                    tuple(weights[:levels]), (p, mode, levels)


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


def test_truncations_over_the_cap_are_refused_by_their_point_count():
    # Counted level by level, before the schedule: a wedge level adds
    # its circle's points but the wedge point, 1000 + 10**6 - 1 at level
    # 2 for p = 1000; a group level multiplies the count, 3**10 by 3**5
    # at level 5.
    with pytest.raises(ValueError, match="at least 1000999 points, over"):
        wedge_truncation(1000, 2)
    with pytest.raises(ValueError, match="at least 14348907 points, over"):
        group_truncation(3, 5)
    with pytest.raises(ValueError, match="at least 1000001 points, over"):
        group_truncation(10**6 + 1, 1)
    with pytest.raises(ValueError, match="p must be an integer >= 2"):
        wedge_truncation(1, 10**9)


def test_axis_subsets_are_isometric_to_factors():
    # The scheduled circles have basepoint 0; the second sum has a
    # relabelled circle and a matrix factor with basepoints elsewhere,
    # so its axes do not start at point 0.
    shuffled = relabel(cyclic_group(5, 2), [3, 0, 4, 1, 2])
    matrix = from_matrix([[0, 2, 3, 4], [2, 0, 1, 2], [3, 1, 0, 3],
                          [4, 2, 3, 0]], basepoint=2)
    for factors in (truncation_factors(quiet_schedule(3, 3)),
                    [shuffled, matrix, cyclic_group(3, 7)]):
        total = l1_sum(factors)
        axes = l1_axis_subsets(factors)
        assert total.basepoint in set.intersection(*map(set, axes))
        for f, idx in zip(factors, axes):
            sub = subspace(total, idx)
            assert sub.size == f.size
            assert sub.basepoint == f.basepoint
            assert all(sub.dist(i, j) == f.dist(i, j)
                       for i in range(f.size) for j in range(f.size))
    assert axes[0][0] != 0 and axes[2][0] != 0


def test_arm_subsets_are_isometric_to_factors(random_wedge):
    # The random wedges have arms whose basepoint is not point 0.
    wedges = [wedge_truncation(3, 3)]
    wedges += [random_wedge(random.Random(200 + seed)) for seed in range(4)]
    for w in wedges:
        factors = w.structure[1]
        arms = wedge_arm_subsets(factors)
        assert sorted(p for idx in arms for p in idx[1:]) == \
            list(range(1, w.size))
        for f, (arm, idx) in enumerate(zip(factors, arms)):
            sub = subspace(w, idx)
            assert sub.size == arm.size
            assert idx == wedge_points(factors, f, range(arm.size))
            assert wedge_points(factors, f, [arm.basepoint]) == [0]
        points = [(f, q) for f, arm in enumerate(factors)
                  for q in range(arm.size)]
        for f, q in points:
            wq = wedge_points(factors, f, [q])[0]
            for g, r in points:
                wr = wedge_points(factors, g, [r])[0]
                if f == g:
                    want = factors[f].dist(q, r)
                else:
                    want = (factors[f].dist(q, factors[f].basepoint)
                            + factors[g].dist(r, factors[g].basepoint))
                assert w.dist(wq, wr) == want, (f, q, g, r)


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


def test_rises_come_from_one_scan_per_level(monkeypatch):
    # The widest a_n-component decides the single-family question for
    # every c at once; check it against the search, level by level.
    scans = []
    real = construction.lambda_components

    def count(space, lam, subset=None):
        scans.append(lam)
        return real(space, lam, subset)

    monkeypatch.setattr(construction, "lambda_components", count)
    for mode in ("group", "wedge"):
        for depth in (1, 2, 3, 4):
            sched = quiet_schedule(3, depth, mode)
            scans.clear()
            report = check_conditions(sched)
            assert scans == list(sched.weights)
            for lv, piece in zip(report.levels, truncation_factors(sched)):
                assert lv.rise_ok == tuple(
                    (c, dim_le(piece, lv.weight, c * lv.weight, 0).status
                     == INFEASIBLE) for c in range(1, lv.n + 1))


# -- profiles -----------------------------------------------------------------


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
    prof = profile(g3, 2, [1, 2, 9, 10])
    rows = [(s.lam, s.control, s.value, s.status) for s in prof.samples]
    assert rows == [(1, 2, 0, "exact"), (2, 4, 1, "lower-bound"),
                    (9, 18, 0, "exact"), (10, 20, 1, "lower-bound")]


def test_profile_of_a_scaled_group_is_the_group_profile_scaled():
    # A scaled sum keeps its factors, so profile probes them as it does
    # for the sum itself: each row is the group's row at half the scale.
    g3 = group_truncation(3, 3)
    base = profile(g3, 2, [1, 2, 8, 9])
    scaled = profile(scale(g3, 2), 2, [2, 4, 16, 18])
    assert scaled.label == "scale(group(3,3),2)"
    assert [(s.lam, s.control, s.value, s.status) for s in scaled.samples] == [
        (2 * s.lam, 2 * s.control, s.value, s.status) for s in base.samples]


def test_profile_large_space_probes_the_factors(monkeypatch):
    # Over the cap, the factors of a sum or wedge that fit the cap are
    # searched as they are: a positive value there is a lower bound and
    # settles the scale; a zero leaves it to the whole space.
    seen = []
    real = construction.dim_at_scale

    def record(space, *args, **kwargs):
        seen.append(space)
        return real(space, *args, **kwargs)

    monkeypatch.setattr(construction, "dim_at_scale", record)
    monkeypatch.setattr(construction, "DEFAULT_SEARCH_SIZE_CAP", 10)
    # Spaces compare by identity: the probes are the factor objects.
    g2 = group_truncation(3, 2)
    prof = profile(g2, 2, [2])
    assert [(s.value, s.status) for s in prof.samples] == [(1, "lower-bound")]
    assert seen == list(g2.structure[1])
    seen.clear()
    w3 = wedge_truncation(3, 3)
    prof = profile(w3, 2, [1, 2])
    assert [(s.value, s.status) for s in prof.samples] == [
        (0, "exact"), (1, "lower-bound")]
    c3, c9, _ = w3.structure[1]
    assert seen == [c3, c9, w3, c3, c9]


def test_profile_large_space_without_witnesses_probes_two_families(
        monkeypatch):
    # with no witnesses the big-space policy falls back to a component
    # scan plus a single two-family probe; on a space that is actually
    # small we can check the answer against the exact search
    g2 = relabel(group_truncation(3, 2), range(27))
    truth = dim_at_scale(g2, 2, 4)
    assert truth.status == "exact"
    monkeypatch.setattr(construction, "DEFAULT_SEARCH_SIZE_CAP", 10)
    prof = profile(g2, 2, [2])
    (s,) = prof.samples
    if truth.value <= 1:
        assert (s.value, s.status) == (truth.value, "exact")
    else:
        assert (s.value, s.status) == (2, "lower-bound")


def test_profile_large_space_maps_each_outcome(monkeypatch):
    # Over the cap and without witnesses, each scale is one whole-space
    # scan plus at most a two-family search: 0 or 1 found is exact, two
    # families refuted is the bound 2, a spent budget leaves 1 unknown.
    grid = relabel(l1_sum([interval(4, 1), interval(4, 1)]), range(25))
    scans = []
    real = solver.lambda_components

    def count(space, lam, subset=None):
        if space is grid:
            scans.append(lam)
        return real(space, lam, subset)

    monkeypatch.setattr(solver, "lambda_components", count)
    monkeypatch.setattr(construction, "DEFAULT_SEARCH_SIZE_CAP", 10)
    prof = profile(grid, 2, [8, 1, 2])
    assert [(s.value, s.status) for s in prof.samples] == [
        (0, "exact"), (1, "exact"), (2, "lower-bound")]
    assert scans == [8, 1, 2]
    prof = profile(grid, 2, [1], node_budget=1)
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
