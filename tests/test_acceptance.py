"""Acceptance suite: one test per numbered criterion, one verdict line each.

Each test prints "[criterion NN] PASS/FAIL — detail" before asserting,
so the verdict survives into the report either way.  Criterion 7 audits
every certificate produced while the other criteria ran, so its test is
defined last in this module and therefore runs last.
"""

import random
import time
import warnings

from scaledim import (INFEASIBLE, ScaledCover, SmallCircleWarning,
                      WeightSchedule, check_conditions, cyclic_group,
                      dim_at_scale, dim_at_scale_bruteforce, dim_le,
                      interval, l1_axis_subsets, l1_blocks, l1_sum,
                      lift_product_cover, oracle_check, profile,
                      random_metric_space, relabel, scale,
                      shrink_to_partition, subspace, truncation_factors,
                      validate_cover, wedge_arm_subsets, wedge_truncation,
                      weight_schedule)

# (space, cover, origin) triples recorded by the other criteria and
# audited by criterion 7.
_CERTIFICATES = []


def record_certificate(space, cover, origin):
    _CERTIFICATES.append((space, cover, origin))
    return cover


def verdict(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} — {detail}")


def p3_schedule(levels=4):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SmallCircleWarning)
        return weight_schedule(3, levels, "group")


def group_space(levels):
    factors = truncation_factors(p3_schedule(levels))
    return l1_sum(factors, label=f"group(3,{levels})"), factors


def test_criterion_01_interval_and_circle_grid():
    """Weighted intervals and circles at scale (a, n*a): every interval
    with more than n steps needs exactly two families, as does the
    circle of length 2n+3, while the circle of length 2n+1 needs one.

    The pre-registered target gave the 2n+1 circles dimension 1.  That
    was wrong: the farthest pair of a (2n+1)-cycle with edge a is n
    steps apart, so its diameter is n*a, which equals the control, and
    the whole circle is one admissible cluster (the boundary criterion 2
    checks on the 4-cycle).  The 2n+3 circle has diameter (n+1)*a > n*a.
    Each circle cell asserts its diameter and the brute-force value
    before the solver's, so the target does not rest on the solver."""
    t0 = time.monotonic()
    failures = []
    cells = 0

    for a in (1, 2):
        for n in (1, 2, 3):
            for k in (n + 1, n + 2, n + 3):
                cells += 1
                got = dim_at_scale(interval(k, a), a, n * a)
                record_certificate(interval(k, a), got.certificate,
                                   f"interval k={k} a={a} n={n}")
                if got.value != 1:
                    failures.append(f"interval(k={k},a={a}) at (a,{n}*a): "
                                    f"got {got.value}, stated 1")
            for length, steps, stated in ((2 * n + 1, n, 0),
                                          (2 * n + 3, n + 1, 1)):
                if length < 3:
                    continue
                cells += 1
                sp = cyclic_group(length, a)
                assert sp.diameter() == steps * a, (
                    f"circle(l={length},a={a}) has diameter "
                    f"{sp.diameter()}, expected {steps}*{a}")
                brute, brute_cover = dim_at_scale_bruteforce(sp, a, n * a)
                assert brute == stated, (
                    f"circle(l={length},a={a}) at (a,{n}*a): brute force "
                    f"gives {brute}, stated {stated}")
                got = dim_at_scale(sp, a, n * a)
                record_certificate(sp, got.certificate,
                                   f"circle l={length} a={a} n={n}")
                record_certificate(sp, brute_cover,
                                   f"circle l={length} a={a} n={n} brute")
                if got.value != stated:
                    failures.append(
                        f"circle(l={length},a={a}) at (a,{n}*a): got "
                        f"{got.value}, stated {stated} (diameter "
                        f"{steps}*{a}, brute force {brute})")
            for m in range(1, 7):
                cells += 1
                got = dim_at_scale(interval(m, a), a - 1, 0)
                record_certificate(interval(m, a), got.certificate,
                                   f"discrete interval m={m} a={a}")
                if got.value != 0:
                    failures.append(f"interval(m={m},a={a}) at (a-1,0): "
                                    f"got {got.value}, stated 0")

    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 60
    detail = (f"{cells} grid cells in {elapsed:.1f}s; 2n+1 circles have "
              f"diameter n*a = control, so dimension 0"
              if ok else f"{len(failures)}/{cells} cells off: "
              + "; ".join(failures))
    verdict(1, ok, detail)
    assert cells == 66
    assert elapsed < 60
    assert not failures, (
        "stated: intervals with more than n steps and 2n+3 circles have "
        "dimension 1 at (a, n*a); 2n+1 circles have dimension 0, since "
        "their diameter n*a equals the control: " + "; ".join(failures))


def test_criterion_02_four_cycle_boundary():
    """The 4-cycle at (1, 2) collapses to one family: its diameter
    equals the control."""
    sp = cyclic_group(4, 1)
    got = dim_at_scale(sp, 1, 2)
    brute, brute_cover = dim_at_scale_bruteforce(sp, 1, 2)
    record_certificate(sp, got.certificate, "4-cycle (1,2)")
    record_certificate(sp, brute_cover, "4-cycle (1,2) brute")
    ok = got.value == 0 and brute == 0
    verdict(2, ok, f"dim(4-cycle at (1,2)) = {got.value}, brute force "
                   f"= {brute}")
    assert got.value == 0
    assert brute == 0


def test_criterion_03_dips_to_zero():
    """Just under each weight a_n the assembled group sum needs only one
    family: the chain components are the cosets of the sub-sum below
    level n, and their diameter is a_n - 1, within control 2*(a_n - 1)."""
    t0 = time.monotonic()
    sched = p3_schedule()
    assert sched.weights == (1, 2, 10, 140)
    g3, factors3 = group_space(3)
    details = []
    for n, lam in ((2, 1), (3, 9)):
        control = 2 * lam
        got = dim_at_scale(g3, lam, control)
        assert got.status == "exact" and got.value == 0, (n, got)
        record_certificate(g3, got.certificate, f"dip n={n} on g3")
        # the same zero via the no-search component path
        fast = dim_le(g3, lam, control, 0)
        assert fast.status == "feasible" and fast.nodes == 0
        # and the cover is the one built around the level prefix: the
        # sub-sum of the first n-1 circles is one of its clusters
        prefix = l1_blocks(factors3, [[range(g.size)] if i < n - 1
                                      else [[g.basepoint]]
                                      for i, g in enumerate(factors3)])[0]
        assert len(got.certificate.families) == 1
        assert frozenset(prefix) in got.certificate.families[0], n
        assert validate_cover(g3, got.certificate).ok
        details.append(f"lam={lam}: 0 by search and scan, with the "
                       f"prefix as a cluster")

    # stretch: the 59049-point level-4 sum, matrix-free
    g4, _ = group_space(4)
    assert g4.size == 59049
    got = dim_at_scale(g4, 139, 278)
    assert got.status == "exact" and got.value == 0
    assert g4._matrix is None  # never densified
    elapsed = time.monotonic() - t0
    details.append(f"lam=139 on 59049 points: 0 in {elapsed:.1f}s")
    ok = elapsed < 300
    verdict(3, ok, "; ".join(details))
    assert elapsed < 300


def test_criterion_04_rises_from_the_pieces():
    """At scale (a_n, c*a_n), c <= n, the level-n circle is a single
    chain component of diameter over the control, so one family fails on
    it; any subset of a space needs no more families than the whole, so
    the assembled spaces inherit dimension >= 1 at those scales."""
    t0 = time.monotonic()
    sched = p3_schedule(3)
    g3, factors3 = group_space(3)
    w3 = wedge_truncation(3, 3)
    checks = 0
    for n in (2, 3):
        a_n = sched.weight(n)
        piece = cyclic_group(3**n, a_n)
        for c in range(1, n + 1):
            out = dim_le(piece, a_n, c * a_n, 0)
            assert out.status == INFEASIBLE, (n, c, out.status)
            checks += 1
        # the piece sits inside each assembled space as an axis / arm
        axis = subspace(g3, l1_axis_subsets(factors3)[n - 1])
        arm = subspace(w3, wedge_arm_subsets(
            truncation_factors(p3_wedge_schedule()))[n - 1])
        for c in range(1, n + 1):
            assert dim_le(axis, a_n, c * a_n, 0).status == INFEASIBLE
            assert dim_le(arm, a_n, c * a_n, 0).status == INFEASIBLE
            # and directly on the whole spaces
            assert dim_le(g3, a_n, c * a_n, 0).status == INFEASIBLE
            assert dim_le(w3, a_n, c * a_n, 0).status == INFEASIBLE
            checks += 4
    elapsed = time.monotonic() - t0
    ok = elapsed < 60
    verdict(4, ok, f"{checks} one-family infeasibilities at the rise "
                   f"scales in {elapsed:.1f}s")
    assert elapsed < 60


def p3_wedge_schedule():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SmallCircleWarning)
        return weight_schedule(3, 3, "wedge")


def test_criterion_05_profile_shadow():
    """The limit statements about unbounded scale sequences have no
    finite computation; what the truncations can show, and do, is the
    alternation itself: the measured profile returns to 0 at every dip
    scale and is at least 1 at every rise scale, in every truncation
    computed."""
    g3, factors3 = group_space(3)
    prof = profile(g3, 2, [1, 2, 9, 10])
    by_lam = {s.lam: s for s in prof.samples}
    assert (by_lam[1].value, by_lam[1].status) == (0, "exact")
    assert (by_lam[9].value, by_lam[9].status) == (0, "exact")
    assert by_lam[2].value >= 1
    assert by_lam[10].value >= 1

    # same scales on the wedge; the rise scales are the level-2 and
    # level-3 weights, matching the levels whose pieces are big enough
    # (the level-1 rise scale coincides with the level-2 dip scale here,
    # and the dimension there genuinely is 0)
    w3 = wedge_truncation(3, 3)
    wprof = profile(w3, 2, [1, 2, 9, 10])
    wrows = {s.lam: s for s in wprof.samples}
    assert (wrows[1].value, wrows[1].status) == (0, "exact")
    assert (wrows[9].value, wrows[9].status) == (0, "exact")
    assert wrows[2].value >= 1
    assert wrows[10].value >= 1
    ok = True
    verdict(5, ok, "dips measure 0 and rises measure >= 1 on both the "
                   "729-point sum and the 37-point wedge; the limit "
                   "statements themselves quantify over infinitely many "
                   "scales and are out of computational reach")
    assert ok


def test_criterion_06_oracle_equivalence():
    t0 = time.monotonic()
    report = oracle_check(seed=0, cases=100, size_max=7)
    elapsed = time.monotonic() - t0
    ok = report.ok and elapsed < 300
    verdict(6, ok, f"{report.checks} comparisons on {report.cases} seeded "
                   f"spaces, {len(report.mismatches)} mismatches, "
                   f"{elapsed:.1f}s")
    assert elapsed < 300
    assert report.ok, report.mismatches


def test_criterion_08_lift_through_the_middle_factor():
    """A one-family cover of the 9-point circle at (9, 8) lifts through
    the three-factor sum: leading coordinates absorb the prefix diameter
    1, trailing coordinates are fixed per cluster and stay separated
    because the 27-point circle keeps its points strictly more than 9
    apart."""
    factors = [cyclic_group(3, 1), cyclic_group(9, 2), cyclic_group(27, 10)]
    base = ScaledCover.of(9, 8, [[list(range(9))]])
    assert validate_cover(factors[1], base).ok
    lifted = lift_product_cover(factors, 2, base)
    assert lifted.scale.lam == 9 and lifted.scale.control == 9
    g3 = l1_sum(factors, label="group(3,3)")
    report = validate_cover(g3, lifted)
    record_certificate(g3, lifted, "lifted cover at (9,9)")
    results = [f"(9,9): {'ok' if report.ok else report.describe()}"]
    all_ok = report.ok
    for control in (17, 18):
        relaxed = ScaledCover.of(9, control, lifted.families)
        rep = validate_cover(g3, relaxed)
        record_certificate(g3, relaxed, f"lifted cover at (9,{control})")
        results.append(f"(9,{control}): {'ok' if rep.ok else rep.describe()}")
        all_ok = all_ok and rep.ok
    verdict(8, all_ok, "single family, 27 clusters of 27 points; "
            + "; ".join(results))
    assert all_ok


def test_criterion_09_property_suite():
    """Dimension never drops when the separation scale grows, never
    rises when the control grows, never rises under taking subspaces,
    and is invariant under uniform scaling and relabelling."""
    rng = random.Random(2026)
    spaces = 0
    checks = 0
    bad = []
    while spaces < 50:
        size = rng.randint(3, 7)
        sp = random_metric_space(size, rng)
        spaces += 1
        dists = sorted({sp.dist(i, j) for i in range(size)
                        for j in range(i + 1, size)})
        pool = [0] + dists
        lam1, lam2 = sorted(rng.sample(pool, 2)) if len(pool) > 1 else (0, 0)
        d1, d2 = sorted(rng.sample(pool, 2)) if len(pool) > 1 else (0, 0)
        lam = rng.choice(pool)
        control = rng.choice(pool)

        base = dim_at_scale(sp, lam, control).value
        if dim_at_scale(sp, lam1, control).value > \
                dim_at_scale(sp, lam2, control).value:
            bad.append(f"lam monotonicity on seed space {spaces}")
        if dim_at_scale(sp, lam, d2).value > dim_at_scale(sp, lam, d1).value:
            bad.append(f"control monotonicity on seed space {spaces}")
        idx = sorted(rng.sample(range(size), rng.randint(1, size)))
        if dim_at_scale(subspace(sp, idx), lam, control).value > base:
            bad.append(f"subspace monotonicity on seed space {spaces}")
        factor = rng.choice((2, 3))
        if dim_at_scale(scale(sp, factor), factor * lam,
                        factor * control).value != base:
            bad.append(f"scale invariance on seed space {spaces}")
        perm = list(range(size))
        rng.shuffle(perm)
        if dim_at_scale(relabel(sp, perm), lam, control).value != base:
            bad.append(f"relabel invariance on seed space {spaces}")
        checks += 5
    ok = not bad
    verdict(9, ok, f"{checks} property checks over {spaces} seeded spaces, "
                   f"{len(bad)} counterexamples")
    assert not bad, bad


def test_criterion_10_conditions_checker():
    """The per-level checker accepts the designed wedge schedules for
    every depth up to 4 -- modulo the documented undersized level 1,
    where the 3-point circle is too short for its rise and the checker
    says so -- and flags a constant-weight schedule, whose prefixes
    outgrow the unchanging weight."""
    details = []
    all_ok = True
    for levels in (1, 2, 3, 4):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SmallCircleWarning)
            sched = weight_schedule(3, levels, "wedge")
        report = check_conditions(sched)
        all_ok = all_ok and report.ok
        undersized = [lv.n for lv in report.levels
                      if not lv.length_prerequisite]
        details.append(f"wedge depth {levels}: ok={report.ok}"
                       + (f" (level {undersized} undersized, rise waived)"
                          if undersized else ""))
        assert report.ok, report.describe()
        assert undersized == [1]
        assert not report.strict_ok

    flat = WeightSchedule(3, (1, 1, 1), "wedge")
    flat_report = check_conditions(flat)
    assert not flat_report.ok
    prefix_flags = [lv.prefix_diameter_ok for lv in flat_report.levels]
    separation_flags = [lv.separation_ok for lv in flat_report.levels]
    assert False in prefix_flags
    assert False in separation_flags
    assert all(lv.rises_hold() for lv in flat_report.levels
               if lv.length_prerequisite)
    details.append("constant weights: ok=False (prefix growth and "
                   "later-piece separation both flagged, rises intact)")
    verdict(10, all_ok, "; ".join(details))
    assert all_ok


# Defined last so it audits every certificate the criteria above produced.
def test_criterion_07_certificate_soundness():
    assert _CERTIFICATES, "no certificates were recorded"
    violations = 0
    audited = 0
    not_partition = []
    for space, cover, origin in _CERTIFICATES:
        report = validate_cover(space, cover)
        violations += len(report.violations)
        if shrink_to_partition(space, cover) != cover:
            not_partition.append(origin)
        audited += 1
    ok = violations == 0 and not not_partition
    verdict(7, ok, f"{audited} certificates audited, {violations} "
                   f"violations, {len(not_partition)} not already "
                   f"partitions")
    assert violations == 0
    assert not not_partition, not_partition
