"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line with the measured figure.  Random
instances use fixed seeds; tolerances are pinned in the assertions.  The
oracle comparisons count fold planes whose offsets lie inside the oracle's
search window on both sides, since a windowed grid search cannot see
solutions beyond its offset range (instances occasionally have arbitrarily
distant solutions).
"""

import math
import time

import numpy as np

from fold3d import (
    Constraint,
    Line3,
    Outcome,
    Plane3,
    Point3,
    enumerate_operations,
    family_I3,
    family_I5,
    family_I6,
    family_I7,
    envelope_I3,
    envelope_I5,
    envelope_I6,
    envelope_I7,
    lines_setwise_equal,
    plane_gap,
    planes_setwise_equal,
    points_equal,
    reflect_line,
    reflect_plane,
    reflect_point,
    residual,
    solve_3I6,
    solve_I2,
    solve_I4,
    solve_I5_I6,
    solve_I5_I9,
    solve_I6_I8_I11,
    solve_generic,
    verify_envelope_conditions,
)
from helpers import (
    coplanar_crossing_lines,
    instance_3i6,
    instance_i5_i6,
    instance_i5_i9,
    instance_i6_i8_i11,
    parallel_lines,
    random_line,
    random_plane,
    random_point,
    random_unit,
    skew_lines,
    windowed_counts,
)


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}" + (f": {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_1_enumeration():
    t0 = time.monotonic()
    valid, rejected = enumerate_operations()
    elapsed = time.monotonic() - t0
    ok = (
        len(valid) == 47
        and {str(s) for s, _ in rejected} == {"3I11", "I9+I11", "2I9"}
        and elapsed < 1.0
    )
    _report(
        "criterion 1 (enumeration)",
        ok,
        f"{len(valid)} valid, rejected {{{', '.join(sorted(str(s) for s, _ in rejected))}}}, "
        f"{elapsed:.3f}s",
    )


def test_criterion_2_reflection_suite():
    rng = np.random.default_rng(20260810)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(1000):  # involution: points, lines, planes
        delta = random_plane(rng)
        p = random_point(rng)
        worst = max(worst, reflect_point(delta, reflect_point(delta, p)).distance_to(p))
        m = random_line(rng)
        m2 = reflect_line(delta, reflect_line(delta, m))
        worst = max(
            worst,
            float(np.linalg.norm(np.cross(m.direction, m2.direction))),
            m2.distance_to_point(m.base),
        )
        pi = random_plane(rng)
        worst = max(worst, plane_gap(reflect_plane(delta, reflect_plane(delta, pi)), pi))
    for _ in range(1000):  # isometry
        delta = random_plane(rng)
        p, q = random_point(rng), random_point(rng)
        worst = max(
            worst,
            abs(
                reflect_point(delta, p).distance_to(reflect_point(delta, q))
                - p.distance_to(q)
            ),
        )
    for _ in range(1000):  # fixed set is exact under the membership branch
        delta = random_plane(rng)
        p = random_point(rng)
        on_plane = Point3(*(p.xyz - delta.signed_distance(p) * delta.normal_vec))
        if reflect_point(delta, on_plane) is not on_plane:
            worst = max(worst, 1.0)
    elapsed = time.monotonic() - t0
    ok = worst < 1e-10 and elapsed < 5.0
    _report(
        "criterion 2 (reflection suite)",
        ok,
        f"max error {worst:.2e} over 3x1000 cases, {elapsed:.2f}s",
    )


def test_criterion_3_envelope_tangency():
    p_c = Point3(0, 0, 1)
    m_c = Line3(Point3(0, 0, -1), (0, 1, 0))
    pi_c = Plane3((0, 0, 1), -1.0)
    theta = 0.6
    m_cross = Line3(Point3(0, 0, 0), (0, math.sin(theta), math.cos(theta)))
    pi_cross = Plane3((0, 0, 1), 0.0)
    m_par = Line3(Point3(0, 0, 1), (0, 1, 0))
    delta = 0.7
    m_skew = Line3(Point3(0, 0, 1), (0, 1, 0))
    n_skew = Line3(Point3(0, 0, -1), (math.cos(delta), math.sin(delta), 0.0))
    cases = [
        ("I5", family_I5(p_c, m_c), envelope_I5(p_c, m_c)),
        ("I6", family_I6(p_c, pi_c), envelope_I6(p_c, pi_c)),
        ("I7 crossing", family_I7(m_cross, pi_cross), envelope_I7(m_cross, pi_cross)),
        ("I7 parallel", family_I7(m_par, pi_c), envelope_I7(m_par, pi_c)),
        ("I3 skew", family_I3(m_skew, n_skew), envelope_I3(m_skew, n_skew)),
    ]
    t0 = time.monotonic()
    worst_name, worst = "", 0.0
    for name, fam, quad in cases:
        report = verify_envelope_conditions(fam, quad, samples=100, normal_tol=1e-8)
        if report.max_normal_defect > worst:
            worst_name, worst = name, report.max_normal_defect
    elapsed = time.monotonic() - t0
    ok = worst < 1e-8 and elapsed < 30.0
    _report(
        "criterion 3 (envelope tangency)",
        ok,
        f"5 families x 100 samples, worst gradient defect {worst:.2e} ({worst_name}), "
        f"{elapsed:.1f}s",
    )


def test_criterion_4_worked_operations_vs_oracle():
    rng = np.random.default_rng(4242)
    t0 = time.monotonic()
    total = 0
    agreed = 0
    mismatches = []
    bound_ok = True
    for name, make, solve, bound in (
        ("I5+I6", instance_i5_i6, lambda cs: solve_I5_I6(*cs[0].objects, *cs[1].objects), 3),
        (
            "I5+I9",
            lambda r: instance_i5_i9(r, solvable=bool(r.integers(0, 2))),
            lambda cs: solve_I5_I9(*cs[0].objects, *cs[1].objects),
            1,
        ),
        (
            "I6+I8+I11",
            instance_i6_i8_i11,
            lambda cs: solve_I6_I8_I11(
                *cs[0].objects, cs[1].objects[0], cs[2].objects[0]
            ),
            2,
        ),
    ):
        for i in range(100):
            cons = make(rng)
            sol = solve(cons)
            if sol.count > bound:
                bound_ok = False
            ded, orc = windowed_counts(cons, sol)
            total += 1
            if ded == orc:
                agreed += 1
            else:
                mismatches.append((name, i, ded, orc))
    elapsed = time.monotonic() - t0
    for entry in mismatches:
        print(f"    mismatch logged: {entry[0]} instance {entry[1]}: "
              f"dedicated {entry[2]} vs oracle {entry[3]}")
    rate = agreed / total
    ok = rate >= 0.98 and bound_ok
    _report(
        "criterion 4 (worked operations vs oracle)",
        ok,
        f"{agreed}/{total} count agreement ({rate:.1%}), bounds 3/1/2 "
        f"{'held' if bound_ok else 'VIOLATED'}, {elapsed:.1f}s",
    )


def test_criterion_5_i5_i6_degeneracy():
    p = Point3(0, 0, 1)
    m = Line3(Point3(0, 0, -1), (0, 1, 0))
    pi = Plane3((0, 0, 1), -1.0)
    degenerate = solve_I5_I6(p, m, p, pi)
    perturbed = solve_I5_I6(Point3(1e-3, 0, 1 + 1e-3), m, p, pi)
    ok = degenerate.outcome is Outcome.INFINITE and perturbed.outcome is Outcome.FINITE
    _report(
        "criterion 5 (I5+I6 degeneracy)",
        ok,
        f"degenerate -> {degenerate.outcome.value}, perturbed by 1e-3 -> "
        f"{perturbed.outcome.value} ({perturbed.count} planes)",
    )


def test_criterion_6_3i6_bounds():
    rng = np.random.default_rng(31415)
    t0 = time.monotonic()
    max_count = 0
    counts = {}
    worst_residual = 0.0
    for _ in range(1000):
        cons = instance_3i6(rng)
        (p, pi), (q, tau), (r, rho) = (c.objects for c in cons)
        sol = solve_3I6(p, q, r, pi, tau, rho)
        assert sol.count <= 9, "hard algebraic bound violated"
        counts[sol.count] = counts.get(sol.count, 0) + 1
        max_count = max(max_count, sol.count)
        for pl in sol.planes:
            worst_residual = max(worst_residual, max(residual(c, pl) for c in cons))
    elapsed = time.monotonic() - t0
    ok = max_count <= 7 and worst_residual < 1e-8 and elapsed < 600.0
    _report(
        "criterion 6 (3I6 bounds)",
        ok,
        f"1000 instances, count distribution {dict(sorted(counts.items()))}, "
        f"max {max_count} (<= 7), worst residual {worst_residual:.2e}, {elapsed:.0f}s",
    )


def test_criterion_7_cross_solver_agreement():
    rng = np.random.default_rng(2718)
    t0 = time.monotonic()
    missing = []
    checked = 0
    for name, make, solve in (
        ("I5+I6", instance_i5_i6, lambda cs: solve_I5_I6(*cs[0].objects, *cs[1].objects)),
        (
            "I5+I9",
            lambda r: instance_i5_i9(r, solvable=bool(r.integers(0, 2))),
            lambda cs: solve_I5_I9(*cs[0].objects, *cs[1].objects),
        ),
        (
            "I6+I8+I11",
            instance_i6_i8_i11,
            lambda cs: solve_I6_I8_I11(
                *cs[0].objects, cs[1].objects[0], cs[2].objects[0]
            ),
        ),
        (
            "3I6",
            instance_3i6,
            lambda cs: solve_3I6(
                cs[0].objects[0], cs[1].objects[0], cs[2].objects[0],
                cs[0].objects[1], cs[1].objects[1], cs[2].objects[1],
            ),
        ),
    ):
        for i in range(50):
            cons = make(rng)
            ded = solve(cons)
            gen = solve_generic(cons)
            checked += ded.count
            for dp in ded.planes:
                if not any(plane_gap(dp, gp) < 1e-7 for gp in gen.planes):
                    missing.append((name, i))
    elapsed = time.monotonic() - t0
    ok = not missing
    _report(
        "criterion 7 (cross-solver agreement)",
        ok,
        f"generic solver reproduced {checked - len(missing)}/{checked} dedicated "
        f"planes over 4x50 instances, {elapsed:.1f}s"
        + (f"; missing {missing[:5]}" if missing else ""),
    )


def test_criterion_8_single_incidence_counts():
    rng = np.random.default_rng(1618)
    ok = True
    detail = []
    # I2: crossing -> 2 perpendicular planes, parallel -> 1, skew -> 0
    for _ in range(100):
        m, n = coplanar_crossing_lines(rng)
        sol = solve_I2(m, n)
        ok &= sol.count == 2
        ok &= abs(np.dot(sol.planes[0].normal_vec, sol.planes[1].normal_vec)) < 1e-10
    for _ in range(100):
        m, n = parallel_lines(rng)
        ok &= solve_I2(m, n).count == 1
    for _ in range(100):
        m, n = skew_lines(rng)
        ok &= solve_I2(m, n).outcome is Outcome.NO_SOLUTION
    detail.append("I2 2/1/0")
    # I4: crossing -> 2 perpendicular planes, parallel -> 1
    for _ in range(100):
        pi, tau = random_plane(rng), random_plane(rng)
        if np.linalg.norm(np.cross(pi.normal_vec, tau.normal_vec)) < 1e-3:
            continue
        sol = solve_I4(pi, tau)
        ok &= sol.count == 2
        ok &= abs(np.dot(sol.planes[0].normal_vec, sol.planes[1].normal_vec)) < 1e-10
    for _ in range(100):
        n = random_unit(rng)
        o1, o2 = rng.uniform(-2, 2, 2)
        if abs(o1 - o2) < 1e-3:
            continue
        ok &= solve_I4(Plane3(tuple(n), o1), Plane3(tuple(n), o2)).count == 1
    detail.append("I4 2/1")
    _report(
        "criterion 8 (single-incidence counts)",
        bool(ok),
        ", ".join(detail) + ", perpendicularity within 1e-10",
    )
