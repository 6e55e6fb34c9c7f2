"""Fold operations: enumeration, dedicated solvers, dispatch, generic search."""

from itertools import combinations_with_replacement
from unittest import mock

import numpy as np
import pytest

import fold3d.numerics
import fold3d.operations
from fold3d import (
    Constraint,
    DegenerateInput,
    IllPosed,
    IncidenceKind,
    InvalidOperation,
    Line3,
    OperationSpec,
    Outcome,
    ParseError,
    Plane3,
    Point3,
    enumerate_operations,
    family,
    grid_oracle,
    plane_gap,
    planes_setwise_equal,
    residual,
    solve_3I6,
    solve_I1,
    solve_I2,
    solve_I4,
    solve_I12,
    solve_I5_I6,
    solve_I5_I9,
    solve_I6_I8_I11,
    solve_exact,
    solve_generic,
    solve_operation,
    solver_route,
    stacked_residual,
)
from fold3d.numerics import SEARCH_CLUSTER_TOL, search
from helpers import (
    SystemInstance3I6,
    close_pair,
    generic_specs,
    instance_3i6,
    instance_i5_i6,
    instance_i5_i9,
    instance_i6_i8_i11,
    parallel_lines,
    payload_on_plane,
    point_off_line,
    point_off_plane,
    random_frame,
    random_line,
    random_payload,
    random_plane,
    random_point,
    random_unit,
    reference_contract,
    reference_distinct,
    reference_t_rows,
    scaled_constraint,
    skew_lines,
    windowed_counts,
)

P_C = Point3(0, 0, 1)
M_C = Line3(Point3(0, 0, -1), (0, 1, 0))
PI_C = Plane3((0, 0, 1), -1.0)


class TestOperationSpec:
    def test_parse_and_format(self):
        assert str(OperationSpec.parse("I5+I6")) == "I5+I6"
        assert str(OperationSpec.parse("3I6")) == "3I6"
        assert str(OperationSpec.parse("I6+2I8")) == "I6+2I8"
        assert str(OperationSpec.parse("I8 + I6 + I8")) == "I6+2I8"

    def test_parse_rejects_garbage(self):
        for bad in ("I13", "Ix", "5", "", "I5++I6"):
            with pytest.raises(ParseError):
                OperationSpec.parse(bad)

    def test_total_codimension(self):
        assert OperationSpec.parse("I5+I6").total_codimension == 3
        assert OperationSpec.parse("3I6").total_codimension == 3
        assert OperationSpec.parse("2I9").total_codimension == 4

    def test_rejection_reasons(self):
        assert OperationSpec.parse("2I9").rejection_reason()
        assert OperationSpec.parse("I9+I11").rejection_reason()
        assert OperationSpec.parse("3I11").rejection_reason()
        assert OperationSpec.parse("I5+I6").rejection_reason() is None


class TestEnumeration:
    def test_counts(self):
        valid, rejected = enumerate_operations()
        assert len(valid) == 47
        assert len(rejected) == 3
        assert {str(s) for s, _ in rejected} == {"3I11", "I9+I11", "2I9"}

    def test_class_breakdown(self):
        valid, _ = enumerate_operations()
        sigs = {}
        for s in valid:
            sigs[s.codim_signature()] = sigs.get(s.codim_signature(), 0) + 1
        assert sigs == {(3,): 4, (2, 1): 15, (2, 2): 9, (1, 1, 1): 19}

    def test_pre_exclusion_class_sizes(self):
        # 16 codim 1x2 pairs, 10 codim 2+2 multisets, 20 codim 1 triples
        valid, rejected = enumerate_operations()
        everything = [s for s in valid] + [s for s, _ in rejected]
        sigs = {}
        for s in everything:
            sigs[s.codim_signature()] = sigs.get(s.codim_signature(), 0) + 1
        assert sigs == {(3,): 4, (2, 1): 16, (2, 2): 10, (1, 1, 1): 20}

    def test_all_valid_reach_codimension_three(self):
        valid, _ = enumerate_operations()
        assert all(s.total_codimension >= 3 for s in valid)

    def test_specs_unique(self):
        valid, _ = enumerate_operations()
        assert len({str(s) for s in valid}) == 47


class TestSolveI5I6:
    def test_counts_bounded_and_sound(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            cons = instance_i5_i6(rng)
            (p, m) = cons[0].objects
            (q, pi) = cons[1].objects
            sol = solve_I5_I6(p, m, q, pi)
            assert sol.count <= 3
            for pl in sol.planes:
                assert residual(cons[0], pl) < 1e-9
                assert residual(cons[1], pl) < 1e-9

    def test_counts_invariant_under_scaling(self):
        # the cubic's coefficients span ~12 decades at scale 1e4; a
        # degree-drop test that is not scale-free lost its roots there
        rng = np.random.default_rng(6)
        for _ in range(30):
            cons = instance_i5_i6(rng)
            (p, m), (q, pi) = (c.objects for c in cons)
            count = solve_I5_I6(p, m, q, pi).count
            for k in (1e-3, 1e4):
                scaled = (
                    Point3(*(k * p.xyz)),
                    Line3(Point3(*(k * m.base.xyz)), m.dir),
                    Point3(*(k * q.xyz)),
                    Plane3(pi.normal, k * pi.offset),
                )
                assert solve_I5_I6(*scaled, tol=1e-9 * k).count == count

    def test_degenerate_config_infinite(self):
        sol = solve_I5_I6(P_C, M_C, P_C, PI_C)
        assert sol.outcome is Outcome.INFINITE
        assert sol.family.dimension == 1
        c5, c6 = Constraint.I5(P_C, M_C), Constraint.I6(P_C, PI_C)
        for t in (-2.0, 0.3, 5.0):
            pl = sol.family.plane(t)
            assert residual(c5, pl) < 1e-9 and residual(c6, pl) < 1e-9

    def test_perturbed_config_finite(self):
        p2 = Point3(1e-3, 0, 1 + 1e-3)
        sol = solve_I5_I6(p2, M_C, P_C, PI_C)
        assert sol.outcome is Outcome.FINITE

    def test_horizontal_target_plane_quadratic_case(self):
        # pi parallel to the canonical xy plane: at most two solutions
        rng = np.random.default_rng(1)
        for _ in range(40):
            q = random_point(rng)
            off = rng.uniform(-2, 2)
            if abs(q.z - off) < 0.3:
                continue
            sol = solve_I5_I6(P_C, M_C, q, Plane3((0, 0, 1), off))
            assert sol.count <= 2

    def test_constant_x_plane_cases(self):
        # reflections of the family preserve canonical x, so a constant-x
        # target plane is either always satisfied or never
        q = Point3(0.7, 0.4, -0.2)
        through = Plane3((1, 0, 0), 0.7)
        sol = solve_I5_I6(P_C, M_C, q, through)
        assert sol.outcome is Outcome.INFINITE
        missed = Plane3((1, 0, 0), 2.5)
        assert solve_I5_I6(P_C, M_C, q, missed).outcome is Outcome.NO_SOLUTION

    def test_three_solution_instance(self):
        sol = solve_I5_I6(
            P_C, M_C, Point3(0.3, -0.4, 0.2), Plane3((0.25, 0.55, 0.75), -0.35)
        )
        assert sol.count == 3

    def test_constant_cubic_no_solution(self):
        # q lies in the plane through p perpendicular to m, pi's normal is
        # perpendicular to m, and the cubic reduces to a nonzero constant:
        # the only fold is the limit t -> oo
        sol = solve_I5_I6(P_C, M_C, Point3(0.5, 0, 0.3), Plane3((0, 0, 1), -1.7))
        assert sol.outcome is Outcome.NO_SOLUTION


class TestSolveI5I9:
    def test_in_span_direction_unique(self):
        n = Line3(Point3(3, 1, 0), (0, 1, -1))
        sol = solve_I5_I9(P_C, M_C, n)
        assert sol.count == 1
        assert planes_setwise_equal(sol.planes[0], Plane3.from_coeffs(0, 1, -1, -1), 1e-9)

    def test_out_of_span_direction(self):
        n = Line3(Point3(1, 1, 1), (1, 0, 0))
        assert solve_I5_I9(P_C, M_C, n).outcome is Outcome.NO_SOLUTION

    def test_parallel_to_m(self):
        n = Line3(Point3(1, 1, 1), (0, 1, 0))
        assert solve_I5_I9(P_C, M_C, n).outcome is Outcome.NO_SOLUTION

    def test_randomized_counts(self):
        rng = np.random.default_rng(2)
        for i in range(60):
            cons = instance_i5_i9(rng, solvable=(i % 2 == 0))
            (p, m) = cons[0].objects
            (n,) = cons[1].objects
            sol = solve_I5_I9(p, m, n)
            assert sol.count <= 1
            if i % 2 == 0:
                assert sol.count == 1
                assert residual(cons[0], sol.planes[0]) < 1e-9
                assert residual(cons[1], sol.planes[0]) < 1e-9


class TestSolveI6I8I11:
    def test_tau_parallel_pi_no_solution(self):
        sol = solve_I6_I8_I11(P_C, PI_C, Point3(1, 1, 0), Plane3((0, 0, 1), 3.0))
        assert sol.outcome is Outcome.NO_SOLUTION

    def test_two_solution_instance(self):
        q = Point3(0.2739233746429086, -0.4604265724722594, -0.9180529521276106)
        tau = Plane3(
            (0.1602141629771645, -0.8181289266655781, 0.5522648652001645),
            0.21327155153435973,
        )
        sol = solve_I6_I8_I11(P_C, PI_C, q, tau)
        assert sol.count == 2
        for pl in sol.planes:
            assert residual(Constraint.I6(P_C, PI_C), pl) < 1e-9
            assert residual(Constraint.I8(q), pl) < 1e-9
            assert residual(Constraint.I11(tau), pl) < 1e-9

    def test_no_real_roots_instance(self):
        # q far below the paraboloid in a direction the tangent planes miss
        q, tau = Point3(0.0, 0.0, 8.0), Plane3((1, 0, 0), 0.0)
        sol = solve_I6_I8_I11(P_C, PI_C, q, tau)
        assert sol.count == 0

    def test_randomized_counts_and_soundness(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            cons = instance_i6_i8_i11(rng)
            (p, pi) = cons[0].objects
            (q,) = cons[1].objects
            (tau,) = cons[2].objects
            sol = solve_I6_I8_I11(p, pi, q, tau)
            assert sol.count <= 2
            for pl in sol.planes:
                assert all(residual(c, pl) < 1e-9 for c in cons)


class TestSolve3I6:
    def test_soundness_randomized(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            cons = instance_3i6(rng)
            payload = [c.objects for c in cons]
            sol = solve_3I6(
                payload[0][0], payload[1][0], payload[2][0],
                payload[0][1], payload[1][1], payload[2][1],
            )
            assert sol.count <= 9
            for pl in sol.planes:
                assert all(residual(c, pl) < 1e-8 for c in cons)

    def test_coincident_constraints_rejected(self):
        with pytest.raises(IllPosed):
            solve_3I6(P_C, P_C, Point3(1, 1, 1), PI_C, PI_C, random_plane(np.random.default_rng(5)))

    def test_solutions_satisfy_source_system(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            cons = instance_3i6(rng)
            (p, pi), (q, tau), (r, rho) = (c.objects for c in cons)
            sol = solve_3I6(p, q, r, pi, tau, rho)
            for pl in sol.planes:
                inst = SystemInstance3I6.from_plane(p, q, r, pi, tau, rho, pl)
                assert np.max(np.abs(inst.residual_vector())) < 1e-6

    def test_finds_plane_multistart_missed(self):
        # instance 128 of criterion 6's stream: a 27x27 seed lattice found
        # only 2 of its 3 planes; the third has offset -0.418
        rng = np.random.default_rng(31415)
        for _ in range(129):
            cons = instance_3i6(rng)
        (p, pi), (q, tau), (r, rho) = (c.objects for c in cons)
        sol = solve_3I6(p, q, r, pi, tau, rho)
        assert sol.count == 3
        assert not sol.possibly_incomplete
        assert any(abs(abs(pl.offset) - 0.418) < 1e-3 for pl in sol.planes)
        for pl in sol.planes:
            assert all(residual(c, pl) < 1e-8 for c in cons)

    def test_windowed_counts_match_oracle(self):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            cons = instance_3i6(rng)
            (p, pi), (q, tau), (r, rho) = (c.objects for c in cons)
            ded, orc = windowed_counts(cons, solve_3I6(p, q, r, pi, tau, rho))
            assert ded == orc

    def test_mirror_symmetric_scenes_match_oracle(self):
        # the mirror y = 0 pairs the solutions; when the normals' y parts
        # dominate, the t axis lies across it and each off-mirror pair has
        # one landing-spot s
        rng = np.random.default_rng(4)
        p, pi = Point3(0, 0, 1), Plane3((0, 0, 1), -0.5)
        paired = 0
        for _ in range(8):
            q = Point3(rng.uniform(-1, 1), 0.7, rng.uniform(-1, 1))
            r = Point3(q.x, -q.y, q.z)
            nt = random_unit(rng)
            off = rng.uniform(-1, 1)
            for n in (nt, nt[[1, 0, 2]]):
                tau, rho = Plane3(tuple(n), off), Plane3(tuple(n * [1, -1, 1]), off)
                cons = [Constraint.I6(p, pi), Constraint.I6(q, tau), Constraint.I6(r, rho)]
                sol = solve_3I6(p, q, r, pi, tau, rho)
                ded, orc = windowed_counts(cons, sol)
                assert ded == orc
                for pl in sol.planes:
                    mirrored = Plane3(tuple(pl.normal_vec * [1, -1, 1]), pl.offset)
                    assert any(plane_gap(mirrored, other) < 1e-7 for other in sol.planes)
                    paired += abs(n[1]) > abs(n[0]) and abs(pl.normal_vec[1]) > 1e-6
        assert paired >= 4

    def test_conditions_linear_in_landing_spot(self):
        # tau and rho parallel to pi with q and r as high above them as p is
        # above pi: both cubics degenerate to lines, meeting in one plane
        # whose normal is perpendicular to q - p and r - p; moved, the planes
        # are parallel only up to rounding
        points = [Point3(0, 0, 1), Point3(1, 0, 2), Point3(0, 1, 3)]
        planes = [Plane3((0, 0, 1), 0), Plane3((0, 0, 1), 1), Plane3((0, 0, 1), 2)]
        frames = [None] + [random_frame(np.random.default_rng(k)) for k in range(10)]
        for frame in frames:
            if frame is not None:
                points = [frame.apply_point(x) for x in points]
                planes = [frame.apply_plane(x) for x in planes]
            (p, q, r), (pi, tau, rho) = points, planes
            sol = solve_3I6(p, q, r, pi, tau, rho)
            assert sol.count == 1
            n = np.cross(q.xyz - p.xyz, r.xyz - p.xyz)
            assert abs(abs(sol.planes[0].normal_vec @ n) - np.linalg.norm(n)) < 1e-9
            cons = [Constraint.I6(p, pi), Constraint.I6(q, tau), Constraint.I6(r, rho)]
            assert all(residual(c, sol.planes[0]) < 1e-8 for c in cons)

    def test_counts_invariant_under_rigid_motion(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            cons = instance_3i6(rng)
            frame = random_frame(rng)
            (p, pi), (q, tau), (r, rho) = (c.objects for c in cons)
            moved = [frame.apply_point(x) for x in (p, q, r)]
            moved += [frame.apply_plane(x) for x in (pi, tau, rho)]
            assert solve_3I6(*moved).count == solve_3I6(p, q, r, pi, tau, rho).count

    def test_counts_invariant_under_scaling(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            cons = instance_3i6(rng)
            (p, pi), (q, tau), (r, rho) = (c.objects for c in cons)
            count = solve_3I6(p, q, r, pi, tau, rho).count
            for k in (1e-3, 1e4):
                points = [Point3(*(k * x.xyz)) for x in (p, q, r)]
                planes = [Plane3(x.normal, k * x.offset) for x in (pi, tau, rho)]
                assert solve_3I6(*points, *planes, tol=1e-8 * k).count == count
                # the default, absolute tolerance too
                assert solve_3I6(*points, *planes).count == count

    def test_one_point_onto_three_planes(self):
        # p must land on the common point of the three planes
        p = Point3(0.3, -0.2, 1.5)
        pi, tau = Plane3((0, 0, 1), 0), Plane3((1, 0, 0.5), 0.4)
        rho = Plane3((0, 1, 0.2), -0.3)
        sol = solve_3I6(p, p, p, pi, tau, rho)
        assert sol.count == 1
        corner = np.linalg.solve(
            np.array([pi.normal, tau.normal, rho.normal]),
            np.array([pi.offset, tau.offset, rho.offset]),
        )
        expected = Plane3.from_point_normal((p.xyz + corner) / 2, p.xyz - corner)
        assert plane_gap(sol.planes[0], expected) < 1e-9

    def test_shared_curve_rejected(self):
        # tau and rho cut pi in the same line: p may land anywhere on it
        p, pi = Point3(0, 0, 1), Plane3((0, 0, 1), 0)
        with pytest.raises(IllPosed):
            solve_3I6(p, p, p, pi, Plane3((1, 0, 1), 0), Plane3((1, 0, -1), 0))

    def test_resultant_has_degree_seven(self):
        sympy = pytest.importorskip("sympy")

        s, t = sympy.symbols("s t")
        rng = np.random.default_rng(12)
        a = sympy.Rational(int(rng.integers(1, 9)), 7)
        normal = sympy.Matrix([2 * s, 2 * t, -4 * a])
        den = normal.dot(normal)
        cubics = []
        for _ in range(2):
            v = sympy.Matrix([sympy.Rational(int(k), 5) for k in rng.integers(-9, 10, 3)])
            n = sympy.Matrix([sympy.Rational(int(k), 3) for k in rng.integers(1, 9, 3)])
            off = sympy.Rational(int(rng.integers(-9, 10)), 4)
            image = v - 2 * (normal.dot(v) - s**2 - t**2) / den * normal
            cubics.append(sympy.expand(sympy.cancel(den * (n.dot(image) - off))))
        res = sympy.resultant(cubics[0], cubics[1], t)
        assert sympy.Poly(res, s).degree() == 7


class TestSolveGeneric:
    def test_matches_single_incidence_solver(self):
        p, q = Point3(0.4, -0.2, 0.3), Point3(-0.8, 0.9, -0.1)
        cons = [Constraint.I1(p, q)]
        gen = solve_generic(cons)
        from fold3d import solve_I1

        ded = solve_I1(p, q)
        assert gen.count == 1
        assert plane_gap(gen.planes[0], ded.planes[0]) < 1e-9

    def test_reproduces_three_solution_i5_i6(self):
        cons = [
            Constraint.I5(P_C, M_C),
            Constraint.I6(Point3(0.3, -0.4, 0.2), Plane3((0.25, 0.55, 0.75), -0.35)),
        ]
        ded = solve_I5_I6(P_C, M_C, *cons[1].objects)
        assert ded.count == 3
        gen = solve_generic(cons)
        assert all(
            any(plane_gap(dp, gp) < 1e-7 for gp in gen.planes) for dp in ded.planes
        )

    def test_unworked_combination_i6_2i8(self):
        # seed a known solution: two fixed points placed on a family member
        from fold3d import family_I6
        from fold3d.geometry import perp_unit

        fam = family_I6(P_C, PI_C)
        known = fam.plane(0.8, -0.5)
        n = known.normal_vec
        u = perp_unit(n)
        v = np.cross(n, u)
        foot = known.offset * n
        cons = [
            Constraint.I6(P_C, PI_C),
            Constraint.I8(Point3(*(foot + 0.7 * u + 0.2 * v))),
            Constraint.I8(Point3(*(foot - 0.4 * u + 1.1 * v))),
        ]
        gen = solve_generic(cons)
        assert any(plane_gap(known, pl) < 1e-7 for pl in gen.planes)
        for pl in gen.planes:
            assert stacked_residual(cons, pl) < 1e-8

    def test_flags_possible_incompleteness(self):
        cons = [Constraint.I1(Point3(0, 0, 0), Point3(1, 0, 0))]
        assert solve_generic(cons).possibly_incomplete

    def test_under_constrained_rejected(self):
        with pytest.raises(InvalidOperation):
            solve_generic([Constraint.I6(P_C, PI_C)])


class TestGenericNormalScan:
    """solve_generic seeds from a scan of normals, each at its best offset."""

    # an I3+2I6 scene whose one fold plane lies about 41 payload radii out,
    # far beyond the old offset lattice of three radii
    FAR = [
        Constraint.I3(Line3(Point3(-1.4, -1.4, 0.5), (1, -1, 0)),
                      Line3(Point3(0.8, -0.8, -0.6), (1, 1, 0))),
        Constraint.I6(Point3(-1.6, -1.0, 2.0), Plane3((0.4, -0.1, -0.9), 1.7)),
        Constraint.I6(Point3(-1.2, -1.8, 1.4), Plane3((0.7, -0.2, -0.7), -0.4)),
    ]

    def test_far_plane_found(self):
        from fold3d.constraints import payload_radius

        (far,) = solve_generic(self.FAR).planes
        assert abs(far.offset) > 30.0 * payload_radius(self.FAR)
        assert stacked_residual(self.FAR, far) < 1e-8

    # an I3+2I6 scene whose plane at 0.16 radii lies on a score valley that
    # slopes down to another solution: no 2-D minimum of the 14 x 28 scan is
    # next to it, but a minimum along one axis is
    VALLEY = [
        Constraint.I3(Line3(Point3(0.98, -0.68, 1.26), (0.4, -0.63, -0.66)),
                      Line3(Point3(-2.01, 1.34, -0.69), (0.52, 0.84, 0.13))),
        Constraint.I6(Point3(1.33, 0.48, 1.8), Plane3((0.08, -0.4, 0.91), -0.93)),
        Constraint.I6(Point3(1.05, 1.19, -0.19), Plane3((0.79, -0.6, 0.09), -0.63)),
    ]

    def test_valley_floor_plane_found(self):
        from fold3d.constraints import payload_radius

        planes = solve_generic(self.VALLEY).planes
        assert len(planes) == 3
        near = min(planes, key=lambda p: abs(p.offset))
        assert abs(near.offset) < 0.2 * payload_radius(self.VALLEY)
        assert stacked_residual(self.VALLEY, near) < 1e-8

    def test_valley_floors_find_the_third_plane(self):
        from fold3d.constraints import payload_radius

        without = search(self.VALLEY, 14, 28, False, 1e-8)
        planes = [p for p, _ in search(self.VALLEY, 14, 28, True, 1e-8)]
        assert len(without) == 2 and len(planes) == 3
        (near,) = [p for p in planes
                   if all(plane_gap(p, q) > SEARCH_CLUSTER_TOL for q, _ in without)]
        assert abs(near.offset) < 0.2 * payload_radius(self.VALLEY)

    @pytest.mark.parametrize("solve", [solve_generic, grid_oracle], ids=lambda f: f.__name__)
    def test_no_two_planes_within_cluster_tol(self, solve):
        rng = np.random.default_rng(707)
        found = 0
        for spec in generic_specs():
            for _ in range(2):
                planes = solve([random_payload(rng, k) for k in spec.kinds]).planes
                found += len(planes)
                for i, p in enumerate(planes):
                    assert all(plane_gap(p, q) > SEARCH_CLUSTER_TOL for q in planes[i + 1:]), spec
        assert found > 50


class TestSolveOperation:
    def test_dispatches_singles(self):
        p, q = Point3(0, 0, 0), Point3(0, 0, 2)
        sol = solve_operation([Constraint.I1(p, q)])
        assert sol.count == 1 and sol.provenance == "dedicated"

    def test_rejected_combo_raises(self):
        pis = [random_plane(np.random.default_rng(i)) for i in range(3)]
        cons = [Constraint.I11(pi) for pi in pis]
        with pytest.raises(InvalidOperation, match="invalid combination"):
            solve_operation(cons)

    def test_under_constrained_raises(self):
        with pytest.raises(InvalidOperation):
            solve_operation([Constraint.I8(Point3(0, 0, 0))])

    def test_dispatches_worked_pairs(self):
        rng = np.random.default_rng(7)
        cons = instance_i5_i6(rng)
        sol = solve_operation(cons)
        assert sol.provenance == "dedicated"
        ded = solve_I5_I6(*cons[0].objects, *cons[1].objects)
        assert sol.count == ded.count

    def test_dispatches_i6_i8_i11_any_order(self):
        rng = np.random.default_rng(8)
        cons = instance_i6_i8_i11(rng)
        direct = solve_operation(cons)
        shuffled = solve_operation([cons[2], cons[0], cons[1]])
        assert direct.count == shuffled.count

    def test_routes_unworked_to_generic(self):
        # a kind that fixes the fold plane mixed with others is not searched:
        # its dual locus goes into solve_exact with the others'
        cons = [Constraint.I1(Point3(0, 0, 0), Point3(0, 0, 2)),
                Constraint.I8(Point3(3, -1, 1))]
        sol = solve_operation(cons)
        assert sol.provenance == "exact" and not sol.possibly_incomplete
        assert sol == solve_exact(cons)

    def test_routes_line_classes_to_exact(self):
        rng = np.random.default_rng(9)
        p, m = point_off_line(rng)
        cons = [Constraint.I5(p, m), Constraint.I10(random_line(rng))]
        sol = solve_operation(cons)
        assert sol.provenance == "exact" and not sol.possibly_incomplete
        assert sol == solve_exact(cons)


def _fresh_facts(key):
    """The operation of a sorted tuple of kind indices, derived on every
    call without a memo; raises the InvalidOperation that solve_operation
    gives for a refused multiset."""
    spec = OperationSpec.from_kinds(key)
    reason = spec.rejection_reason()
    if reason is not None:
        raise InvalidOperation(f"invalid combination {spec}: {reason}")
    if spec.total_codimension < 3:
        raise InvalidOperation(
            f"{spec} has combined codimension {spec.total_codimension} < 3; "
            "it leaves free fold-plane parameters")
    return spec


def _outcome(fn, *args):
    try:
        return fn(*args)
    except InvalidOperation as exc:
        return exc


# every multiset of one to three kinds, and an over-constrained one of four
_FACT_KEYS = [key for n in (1, 2, 3) for key in combinations_with_replacement(range(1, 13), n)]
_FACT_KEYS.append((6, 6, 6, 8))


class TestOperationFacts:
    """solve_operation, solve_exact and solve_generic read an operation's
    spec and refusal from a bounded memo keyed by the sorted kind indices."""

    def test_memo_matches_a_fresh_derivation(self):
        for key in _FACT_KEYS:
            want = _outcome(_fresh_facts, key)
            got = [_outcome(fold3d.operations._checked_facts, key) for _ in range(2)]
            for g in got:
                if isinstance(want, InvalidOperation):
                    assert type(g) is InvalidOperation and str(g) == str(want), key
                else:
                    assert g == want, key
            if isinstance(want, InvalidOperation):
                assert got[0] is not got[1]  # a fresh exception on each call

    def test_refusals_through_solve_operation(self):
        rng = np.random.default_rng(2101)
        refused = 0
        for key in _FACT_KEYS:
            want = _outcome(_fresh_facts, key)
            if not isinstance(want, InvalidOperation):
                continue
            cons = [random_payload(rng, IncidenceKind(f"I{k}")) for k in key][::-1]
            with pytest.raises(InvalidOperation) as info:
                solve_operation(cons)
            assert str(info.value) == str(want)
            refused += 1
        assert refused == 8 + 10 + 3  # codimension 1 or 2, two of 1, and the three rejected

    def test_memo_stays_at_its_bound(self):
        memo = fold3d.operations._operation_facts
        bound = memo.cache_info().maxsize
        assert bound == 256
        keys = list(combinations_with_replacement(range(1, 13), 4))[: 3 * bound]
        for key in keys:
            fold3d.operations._checked_facts(key)
        assert memo.cache_info().currsize == bound


def _objects(cons, kind):
    """The payload objects of the constraint of one kind."""
    (c,) = [c for c in cons if c.kind is kind]
    return c.objects


# each worked key: a random instance, and the direct solver call for a
# constraint list, which picks every argument out by kind; 3I6 and
# I6+I8+I11 are solved by solve_exact, the others by dedicated solvers
_DEDICATED_CASES = {
    (1,): (lambda rng: [random_payload(rng, IncidenceKind.I1)],
           lambda cons: solve_I1(*cons[0].objects)),
    (2,): (lambda rng: [random_payload(rng, IncidenceKind.I2)],
           lambda cons: solve_I2(*cons[0].objects)),
    (4,): (lambda rng: [random_payload(rng, IncidenceKind.I4)],
           lambda cons: solve_I4(*cons[0].objects)),
    (12,): (lambda rng: [random_payload(rng, IncidenceKind.I12)],
            lambda cons: solve_I12(*cons[0].objects)),
    (5, 6): (instance_i5_i6,
             lambda cons: solve_I5_I6(*_objects(cons, IncidenceKind.I5),
                                      *_objects(cons, IncidenceKind.I6))),
    (5, 9): (lambda rng: instance_i5_i9(rng, solvable=True),
             lambda cons: solve_I5_I9(*_objects(cons, IncidenceKind.I5),
                                      *_objects(cons, IncidenceKind.I9))),
    (6, 8, 11): (instance_i6_i8_i11,
                 lambda cons: solve_I6_I8_I11(*_objects(cons, IncidenceKind.I6),
                                              *_objects(cons, IncidenceKind.I8),
                                              *_objects(cons, IncidenceKind.I11))),
    (6, 6, 6): (instance_3i6,
                lambda cons: solve_3I6(*(c.objects[0] for c in cons),
                                       *(c.objects[1] for c in cons))),
}


class TestDispatchTable:
    @pytest.mark.parametrize("key", list(_DEDICATED_CASES), ids=str)
    @pytest.mark.parametrize("reverse", [False, True])
    def test_matches_direct_solver(self, key, reverse):
        make, direct = _DEDICATED_CASES[key]
        found = 0
        for seed in range(6):
            cons = make(np.random.default_rng(seed))
            if reverse:
                cons = cons[::-1]
            assert OperationSpec.from_constraints(cons).key == key
            want = direct(cons)
            got = solve_operation(cons)
            assert got.provenance == ("exact" if key in {(6, 8, 11), (6, 6, 6)} else "dedicated")
            assert got.outcome == want.outcome
            assert got.planes == want.planes
            found += want.count
        assert found > 0

    def test_worked_wrappers_are_solve_operation(self):
        # at scale 1e6 the planes' residuals lie near the tolerance, so a
        # wrapper that passed its default 1e-9 to solve_exact instead of
        # solve_operation's max(tol, 1e-8) gave other counts
        make, direct = _DEDICATED_CASES[(6, 8, 11)]
        rng = np.random.default_rng(2202)
        for _ in range(40):
            cons = [scaled_constraint(c, 1e6) for c in make(rng)]
            assert direct(cons) == solve_operation(cons)


def _parallel_planes(rng):
    pi = random_plane(rng)
    return [Constraint.I4(pi, Plane3(pi.normal, pi.offset + rng.uniform(0.3, 2.0)))]


# every row of the speed table, I2 with crossing, parallel and skew lines and
# I4 with crossing and parallel planes
_SPEED_TABLE_CASES = {
    "I1": _DEDICATED_CASES[(1,)][0],
    "I2-crossing": _DEDICATED_CASES[(2,)][0],
    "I2-parallel": lambda rng: [Constraint.I2(*parallel_lines(rng))],
    "I2-skew": lambda rng: [Constraint.I2(*skew_lines(rng))],
    "I4-crossing": _DEDICATED_CASES[(4,)][0],
    "I4-parallel": _parallel_planes,
    "I12": _DEDICATED_CASES[(12,)][0],
    "I5+I6": _DEDICATED_CASES[(5, 6)][0],
    "I5+I9": _DEDICATED_CASES[(5, 9)][0],
}


class TestSpeedTable:
    """solve_exact gives the planes of every row of the speed table
    _DEDICATED at any scale, so the rows only save time."""

    def test_cases_cover_the_table(self):
        rng = np.random.default_rng(0)
        keys = {OperationSpec.from_constraints(make(rng)).key
                for make in _SPEED_TABLE_CASES.values()}
        assert keys == set(fold3d.operations._DEDICATED)
        assert {solver_route(OperationSpec.from_kinds(key)) for key in keys} == {"dedicated"}

    @pytest.mark.parametrize("scale", [1.0, 1e-3, 1e4])
    @pytest.mark.parametrize("case", list(_SPEED_TABLE_CASES))
    def test_solve_exact_matches(self, case, scale):
        rng = np.random.default_rng(2203 + list(_SPEED_TABLE_CASES).index(case))
        found = 0
        for _ in range(20):
            cons = [scaled_constraint(c, scale) for c in _SPEED_TABLE_CASES[case](rng)]
            want = solve_operation(cons, tol=1e-8 * scale)
            got = solve_exact(cons, tol=1e-8 * scale)
            assert (want.provenance, got.provenance) == ("dedicated", "exact")
            assert got.outcome == want.outcome and got.count == want.count
            # the gap of the planes in the unscaled scene
            unscaled = [Plane3(q.normal, q.offset / scale) for q in want.planes]
            for plane in got.planes:
                plane = Plane3(plane.normal, plane.offset / scale)
                assert min(plane_gap(plane, q) for q in unscaled) < 1e-9
            found += got.count
        assert (found == 0) == (case == "I2-skew")


class TestHugeScenes:
    """Beyond MAX_PAYLOAD_RADIUS a length cubed overflows; the solvers refuse
    such a scene with a FoldError instead of failing inside numpy."""

    @pytest.mark.parametrize("spec, scale", [
        ("I5+I6", 1e150), ("2I6+I8", 1e160),
        # the rows of the speed table take the same limit
        ("I2", 1e120), ("I1", 1e120), ("I5+I9", 1e120),
    ])
    def test_refused(self, spec, scale):
        rng = np.random.default_rng(1600)
        cons = [random_payload(rng, k) for k in OperationSpec.parse(spec).kinds]
        assert solve_operation(cons).outcome in (Outcome.FINITE, Outcome.NO_SOLUTION)
        scaled = [scaled_constraint(c, scale) for c in cons]
        with pytest.raises(DegenerateInput, match="payload radius"):
            solve_operation(scaled)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_line_far_out_refused_without_a_warning(self):
        m = Line3(Point3(1e200, 2e200, 0), (0, 0, 1))
        cons = [Constraint.I5(Point3(0, 0, 3e200), m), Constraint.I8(Point3(1e200, 0, 0))]
        with pytest.raises(DegenerateInput, match="payload radius"):
            solve_operation(cons)


class TestExactKernels:
    """The chart tables, the three-term cubic symmetrization and _distinct's
    one-SVD test against the per-call loops they replace (tests/helpers)."""

    @staticmethod
    def _form(rng, order: int) -> np.ndarray:
        form = fold3d.operations._symmetrized(np.asarray(rng.normal(size=(3,) * order)))
        return form / np.linalg.norm(form)

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_chart_rows(self, order):
        ops = fold3d.operations
        rng = np.random.default_rng(1700 + order)
        s = np.concatenate([rng.normal(size=5), np.exp(2j * np.pi * np.arange(10) / 10)])
        for _ in range(5):
            form = self._form(rng, order)
            for u, c in zip(ops._CHARTS, ops._chart_coeffs(form), strict=True):
                rows = np.power.outer(s, np.arange(order + 1)) @ c
                want = reference_t_rows(form, s[:, None] * u[:, 0] + u[:, 2], u[:, 1])
                assert np.abs(rows - want).max() <= 1e-13 * np.abs(want).max()
                centre = reference_contract(form, u[None, :, 1], order)[0]
                assert abs(c[0, 0] - centre) <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_grad(self, order):
        rng = np.random.default_rng(1710 + order)
        x = rng.normal(size=(7, 3))
        for _ in range(5):
            form = self._form(rng, order)
            got = fold3d.operations._grad(form, x)
            want = reference_contract(form, x, order - 1)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_cubics(self):
        ops = fold3d.operations
        rng = np.random.default_rng(1720)
        for rank in (0, 1, 2, 3) * 10:
            a = np.array([self._form(rng, 2) for _ in range(rank)]).reshape(rank, 3, 3)
            b = rng.normal(size=(rank, 3))
            got = ops._cubics(a, b)
            assert got.shape == (max(rank - 1, 0), 3, 3, 3)
            for j in range(1, rank):
                want = ops._symmetrized(np.multiply.outer(a[j], b[0]) - np.multiply.outer(a[0], b[j]))
                assert np.abs(got[j - 1] - want).max() <= 1e-15 * max(1.0, np.abs(want).max())

    @pytest.mark.parametrize("case", ["independent", "dependent", "tiny"])
    @pytest.mark.parametrize("count", [2, 3])
    def test_distinct(self, case, count):
        ops = fold3d.operations
        rng = np.random.default_rng(1730 + count)
        for trial in range(60):
            forms = np.array([self._form(rng, 2) for _ in range(4)])
            i, j = sorted(rng.choice(4, 2, replace=False))
            if case == "dependent":
                # a multiple of one before, or within rounding of a combination
                forms[j] = (-2.0 * forms[i] if trial % 2 else
                            forms[i] + 3.0 * forms[(i + 1) % 4] + 1e-13 * forms[j])
            elif case == "tiny":
                forms[j] *= 1e-11
            got = ops._distinct(forms, count)
            want = reference_distinct(forms, count, ops.EXACT_REL_TOL)
            assert len(got) == len(want)
            assert all(np.array_equal(x, y) for x, y in zip(got, want))


class TestSolveI1AtCoarseTolerance:
    def test_close_points_solved(self):
        # the I1 precondition accepts points 1e-4 apart, so the tolerance of
        # the residual check must not refuse them as coincident
        sol = solve_operation([Constraint.I1(Point3(0, 0, 0), Point3(0, 0, 1e-4))], tol=1e-3)
        assert sol.count == 1
        assert planes_setwise_equal(sol.planes[0], Plane3((0, 0, 1), 5e-5), 1e-15)


class TestExactForms:
    """The closed-form solvers' polynomials against sympy expansions of the
    conditions they stand for, on random rational payloads."""

    def test_i5_i6_cubic(self):
        sympy = pytest.importorskip("sympy")
        from fold3d.operations import _i5_i6_cubic

        t = sympy.symbols("t")
        rng = np.random.default_rng(31)
        for _ in range(20):
            a = sympy.Rational(int(rng.integers(1, 9)), 7)
            q = sympy.Matrix([sympy.Rational(int(k), 5) for k in rng.integers(-9, 10, 3)])
            nu = sympy.Matrix([sympy.Rational(int(k), 3) for k in rng.integers(-9, 10, 3)])
            off = sympy.Rational(int(rng.integers(-9, 10)), 4)
            normal = sympy.Matrix([0, 2 * t, -4 * a])
            den = normal.dot(normal)
            image = q - 2 * (normal.dot(q) - t**2) / den * normal
            want = sympy.Poly(sympy.cancel(den * (nu.dot(image) - off) / 4), t)
            ours = _i5_i6_cubic(
                float(a), np.array(q, dtype=float).ravel(), np.array(nu, dtype=float).ravel(),
                float(nu.dot(q) - off),
            )
            coeffs = [float(want.coeff_monomial(t**k)) for k in (3, 2, 1, 0)]
            assert np.allclose(ours, coeffs, rtol=1e-12, atol=1e-12)

    @staticmethod
    def _dual_quadric_poly(quadric, sympy, h):
        """h^T Q h of a float quadric as an exact polynomial in h."""
        q = sympy.Matrix(4, 4, [sympy.Rational(float(x)) for x in quadric.ravel()])
        return sympy.Poly(sympy.expand((h.T * q * h)[0]), *h)

    def test_i6_dual_quadric(self):
        # S = N . N times the signed distance from pi of p's image
        sympy = pytest.importorskip("sympy")
        from fold3d.constraints import dual_locus

        h = sympy.Matrix(sympy.symbols("n1 n2 n3 d"))
        normal, d = h[:3, 0], h[3]
        rng = np.random.default_rng(33)
        for _ in range(10):
            c = random_payload(rng, IncidenceKind.I6)
            p, pi = c.objects
            ps = sympy.Matrix([sympy.Rational(float(x)) for x in p.xyz])
            nu = sympy.Matrix([sympy.Rational(float(x)) for x in pi.normal_vec])
            s = normal.dot(normal)
            image = ps - 2 * (normal.dot(ps) - d) / s * normal
            want = sympy.Poly(sympy.cancel(s * (nu.dot(image) - sympy.Rational(pi.offset))), *h)
            ours = self._dual_quadric_poly(dual_locus(c)[1], sympy, h)
            for monomial, coeff in (want - ours).terms():
                assert abs(float(coeff)) < 1e-12, monomial

    def test_i3_dual_quadric(self):
        # S times the triple product (c - b') . (e' x f) of the reflected
        # m = (b', e') and n = (c, f): zero when the two are coplanar
        sympy = pytest.importorskip("sympy")
        from fold3d.constraints import dual_locus

        h = sympy.Matrix(sympy.symbols("n1 n2 n3 d"))
        normal, d = h[:3, 0], h[3]
        rng = np.random.default_rng(34)
        for _ in range(10):
            c = random_payload(rng, IncidenceKind.I3)
            b, e, cc, f = (sympy.Matrix([sympy.Rational(float(x)) for x in v]) for v in (
                c.objects[0].base.xyz, c.objects[0].direction,
                c.objects[1].base.xyz, c.objects[1].direction))
            s = normal.dot(normal)
            b2 = b - 2 * (normal.dot(b) - d) / s * normal
            e2 = e - 2 * normal.dot(e) / s * normal
            want = sympy.Poly(sympy.cancel(s * (cc - b2).dot(e2.cross(f))), *h)
            forms, quadric = dual_locus(c)
            assert forms == []
            ours = self._dual_quadric_poly(quadric, sympy, h)
            for monomial, coeff in (want - ours).terms():
                assert abs(float(coeff)) < 1e-12, monomial


# the operations solve_exact meets on a line of planes or less (k <= 1), then
# those of two conics (k = 2) and three quadrics (k = 3); the worked
# I6+I8+I11 (k = 1) and 3I6 (k = 3) last
LINE_SPECS = [s for s in generic_specs() if s.dual_dimension <= 1]
LINE_SPECS.append(OperationSpec.parse("I6+I8+I11"))
PLANE_SPECS = [s for s in generic_specs() if s.dual_dimension > 1]
PLANE_SPECS.append(OperationSpec.parse("3I6"))
EXACT_SPECS = LINE_SPECS + PLANE_SPECS

# Bezout's count less the plane at infinity, for the k >= 2 operations
PLANE_BOUNDS = {
    "I3+I5": 3, "2I3+I11": 3, "I3+I6+I11": 3, "2I6+I11": 3,
    "I3+I7": 4, "I6+I7": 4, "2I3+I8": 4, "I3+I6+I8": 4, "2I6+I8": 4,
    "3I3": 7, "2I3+I6": 7, "I3+2I6": 7, "3I6": 7,
}


class TestSolveExact:
    """solve_exact: the null space of the dual linear forms and the common
    points of the quadrics on it."""

    def test_classes(self):
        assert len(EXACT_SPECS) == 41 and len(LINE_SPECS) == 28
        assert {solver_route(s) for s in EXACT_SPECS} == {"exact"}
        assert sorted(map(str, PLANE_SPECS)) == sorted(PLANE_BOUNDS)
        assert {OperationSpec.parse(k).dual_dimension for k in ("I5+I9", "I5+I6", "3I6")} \
            == {0, 2, 3}

    @pytest.mark.parametrize("spec", EXACT_SPECS, ids=str)
    def test_matches_generic(self, spec):
        rng = np.random.default_rng(600 + EXACT_SPECS.index(spec))
        for _ in range(12):
            cons = [random_payload(rng, k) for k in spec.kinds]
            exact = solve_operation(cons)
            assert exact.provenance == "exact" and not exact.possibly_incomplete
            generic = solve_generic(cons)
            # the search may miss a plane of two conics or three quadrics
            assert exact.count == generic.count or spec in PLANE_SPECS
            for plane in generic.planes:
                assert min(plane_gap(plane, q) for q in exact.planes) < 1e-6
            for plane in exact.planes:
                assert stacked_residual(cons, plane) < 1e-8

    def test_counts_invariant_under_scaling(self):
        rng = np.random.default_rng(61)
        for spec in EXACT_SPECS:
            cons = [random_payload(rng, k) for k in spec.kinds]
            count = solve_exact(cons).count
            for k in (1e-3, 1e4):
                scaled = [scaled_constraint(c, k) for c in cons]
                assert solve_exact(scaled, tol=1e-8 * k).count == count, spec

    def test_collinear_fixed_points_ill_posed(self):
        # three fixed points on a line leave the pencil of planes through it
        cons = [Constraint.I8(Point3(x, x, x)) for x in (0, 1, 2)]
        with pytest.raises(IllPosed):
            solve_operation(cons)

    def test_fixed_points_on_a_normal_ill_posed(self):
        cons = [Constraint.I8(Point3(0.2, 0.1, 1)), Constraint.I8(Point3(0.2, 0.1, 3)),
                Constraint.I11(Plane3((0, 0, 1), 0.5))]
        with pytest.raises(IllPosed):
            solve_operation(cons)

    def test_double_root_gives_one_plane(self):
        cons = [Constraint.I6(P_C, PI_C), Constraint.I8(Point3(1, 0, 0)),
                Constraint.I8(Point3(-1, 0, 0))]
        sol = solve_operation(cons)
        assert sol.count == 1
        assert plane_gap(sol.planes[0], Plane3((0, 0, 1), 0.0)) < 1e-12

    def test_root_only_at_infinity_no_solution(self):
        # folds perpendicular to x = 0 and z = 0 are the planes y = d, which
        # keep p's height: the quadratic on that line is a nonzero constant
        cons = [Constraint.I6(P_C, PI_C), Constraint.I11(Plane3((1, 0, 0), 0.0)),
                Constraint.I11(Plane3((0, 0, 1), 0.0))]
        assert solve_operation(cons).outcome is Outcome.NO_SOLUTION

    def test_root_at_both_chart_ends(self):
        # the planes y = d: the quadratic on that line is 2b xy, with roots
        # y = 0 and the plane at infinity at the two ends of the chart
        cons = [Constraint.I6(Point3(0, 1, 0), Plane3((0, 0.6, 0.8), -0.6)),
                Constraint.I11(Plane3((1, 0, 0), 0.0)), Constraint.I11(Plane3((0, 0, 1), 0.0))]
        (plane,) = solve_operation(cons).planes
        assert plane_gap(plane, Plane3((0, 1, 0), 0.0)) < 1e-12

    def test_overdetermined_linear_class(self):
        # 2I10 fixes two lines pointwise: none for skew lines, their plane
        # for crossing ones
        rng = np.random.default_rng(62)
        assert solve_operation([Constraint.I10(m) for m in skew_lines(rng)]).count == 0
        m = Line3(Point3(1, 2, 3), (1, 1, 0))
        n = Line3(Point3(1, 2, 3), (0, 1, 0))
        (plane,) = solve_operation([Constraint.I10(m), Constraint.I10(n)]).planes
        assert plane_gap(plane, Plane3((0, 0, 1), 3.0)) < 1e-12

    def test_dependent_forms_ill_posed(self):
        c = random_payload(np.random.default_rng(63), IncidenceKind.I7)
        with pytest.raises(IllPosed):
            solve_operation([c, c])

    # p and m, and q and n, span the parallel planes x = 0 and x = 1, so the
    # two I5 forms agree, and the two conics meet in one plane
    TWO_CONICS = [Constraint.I5(P_C, M_C),
                  Constraint.I5(Point3(1, 0.3, 2), Line3(Point3(1, 1, -1), (0, 0.6, 0.8)))]

    def test_dependent_forms_with_two_conics_searched(self):
        # the search, run as a cross-check, finds the one exact plane
        cons = self.TWO_CONICS
        sol = solve_operation(cons)
        assert sol.provenance == "exact" and sol.count == 1
        assert stacked_residual(cons, sol.planes[0]) < 1e-8
        (plane,) = solve_generic(cons).planes
        assert plane_gap(plane, sol.planes[0]) < 1e-6

    def test_two_conics_solved_exactly(self):
        sol = solve_exact(self.TWO_CONICS)
        assert sol.count == 1 and not sol.possibly_incomplete
        assert sol == solve_operation(self.TWO_CONICS)

    def test_fixing_kind_mixes_solved_exactly(self):
        # the multisets mixing a kind that fixes the fold plane with others
        # take solve_exact, which meets every kind's dual locus
        rng = np.random.default_rng(64)
        for k1 in FIXING_KINDS:
            for k2 in IncidenceKind:
                spec = OperationSpec.from_kinds([k1, k2])
                assert solver_route(spec) == "exact" and spec.dual_dimension <= 1
                cons = [random_payload(rng, k1), random_payload(rng, k2)]
                sol = solve_exact(cons)
                assert sol.provenance == "exact" and sol == solve_operation(cons)

    @pytest.mark.parametrize("kinds", ["I5+I6", "3I6"])
    def test_dedicated_classes_match_their_solvers(self, kinds):
        # k = 2: the planes agree both ways with the dedicated I5+I6 solver's,
        # which solve_operation still runs; k = 3: every plane the search
        # finds is exact, though it may miss one
        rng = np.random.default_rng(66)
        for _ in range(20):
            cons = [random_payload(rng, k) for k in OperationSpec.parse(kinds).kinds]
            exact = solve_exact(cons)
            assert exact.provenance == "exact"
            if kinds == "I5+I6":
                other = solve_operation(cons, tol=1e-8)
                assert other.provenance == "dedicated" and exact.count == other.count
                for plane in exact.planes:
                    assert min(plane_gap(plane, q) for q in other.planes) < 1e-6
            else:
                other = solve_generic(cons)
                assert exact.count >= other.count
            for plane in other.planes:
                assert min(plane_gap(plane, q) for q in exact.planes) < 1e-6

    @pytest.mark.parametrize("spec", PLANE_SPECS, ids=str)
    def test_count_bounds_and_parity(self, spec):
        bound = PLANE_BOUNDS[str(spec)]
        rng = np.random.default_rng(700 + PLANE_SPECS.index(spec))
        for _ in range(40):
            count = solve_exact([random_payload(rng, k) for k in spec.kinds]).count
            assert count <= bound and count % 2 == bound % 2

    @pytest.mark.parametrize("kinds", ["I3+I5", "2I3+I8"])
    def test_parallel_i3_lines_exact(self, kinds):
        # parallel I3 lines give one linear form and no quadric, so the
        # instance has a line of planes (k = 1) though its operation has k = 2
        rng = np.random.default_rng(67)
        kinds = OperationSpec.parse(kinds).kinds
        for _ in range(8):
            cons = [Constraint.I3(*parallel_lines(rng))]
            cons += [random_payload(rng, k) for k in kinds[1:]]
            sol = solve_operation(cons)
            assert sol.provenance == "exact" and not sol.possibly_incomplete
            generic = solve_generic(cons)
            assert sol.count == generic.count
            for plane in generic.planes:
                assert min(plane_gap(plane, q) for q in sol.planes) < 1e-6

    def test_vertical_d_coefficients_exact(self):
        # e x f of the I3 lines and both I6 normals are vertical, so the
        # quadrics' d coefficients b_j are parallel and two d-free conics
        # meet in the plane of normals
        cons = [Constraint.I3(Line3(Point3(0, 0, 0), (1, 0, 0)),
                              Line3(Point3(0, 0, 1), (0, 1, 0))),
                Constraint.I6(Point3(2, 0, 0), Plane3((0, 0, 1), -1.0)),
                Constraint.I6(Point3(1, 2, 3), Plane3((0, 0, 1), -2.0))]
        sol = solve_operation(cons)
        assert sol.provenance == "exact" and sol.count == 2
        generic = solve_generic(cons)
        assert generic.count == 2
        for plane in generic.planes:
            assert min(plane_gap(plane, q) for q in sol.planes) < 1e-6

    @pytest.mark.parametrize("tilted", [0, 1], ids=["rank1", "rank2"])
    @pytest.mark.parametrize("kinds", ["3I3", "2I3+I6", "I3+2I6"])
    def test_dependent_d_coefficients_exact(self, kinds, tilted):
        # horizontal I3 lines and horizontal I6 planes give vertical b_j;
        # a random last payload leaves one d-free conic and one cubic
        rng = np.random.default_rng(68)

        def horizontal(kind):
            if kind is IncidenceKind.I6:
                return Constraint.I6(random_point(rng), Plane3((0, 0, 1), rng.normal()))
            a, b = rng.uniform(0.0, np.pi, 2)
            return Constraint.I3(Line3(random_point(rng), (np.cos(a), np.sin(a), 0.0)),
                                 Line3(random_point(rng), (np.cos(b), np.sin(b), 0.0)))

        found = 0
        for _ in range(8):
            kinds_ = OperationSpec.parse(kinds).kinds
            cons = [horizontal(k) for k in kinds_[: 3 - tilted]]
            cons += [random_payload(rng, k) for k in kinds_[3 - tilted:]]
            sol = solve_operation(cons)
            assert sol.provenance == "exact" and not sol.possibly_incomplete
            for plane in sol.planes:
                assert stacked_residual(cons, plane) < 1e-8
            for plane in solve_generic(cons).planes:
                assert min(plane_gap(plane, q) for q in sol.planes) < 1e-6
            found += sol.count
        assert found > 0

    def test_curves_sharing_a_component_ill_posed(self):
        # two conics through a common line, as products of linear forms
        sym = fold3d.operations._symmetrized
        line, f, g = np.eye(3)
        with pytest.raises(IllPosed, match="share a curve"):
            fold3d.operations._curve_points(sym(np.outer(line, f)), sym(np.outer(line, g)))

    @pytest.mark.parametrize("q, n, off, count", [
        ((0.6, 0.7, -0.65), (0.15, -0.98, 0.14), -0.05, 5),
        ((0.04, 0.7, 0.28), (0.55, -0.83, 0.1), 0.86, 1),
        ((-0.28, 0.7, -0.66), (-0.57, -0.78, -0.23), -0.24, 7),
    ])
    def test_mirror_symmetric_3i6(self, q, n, off, count):
        # y -> -y swaps the last two conditions, so the mixed quadric of
        # their difference is odd in N_y: a pair of planes, one of them
        # N_y = 0.  Both cubics then share the line N_y = 0, whose plane of
        # planes, the mirror-symmetric folds, is met on its own
        p, pi = Point3(0, 0, 1), Plane3((0, 0, 1), -0.5)
        q, n = Point3(*q), np.array(n)
        r = Point3(q.x, -q.y, q.z)
        tau, rho = Plane3(tuple(n), off), Plane3(tuple(n * [1, -1, 1]), off)
        cons = [Constraint.I6(p, pi), Constraint.I6(q, tau), Constraint.I6(r, rho)]
        sol = solve_exact(cons)
        assert sol.count == count == solve_generic(cons).count
        assert any(abs(pl.normal[1]) < 1e-9 for pl in sol.planes)
        for pl in sol.planes:
            assert stacked_residual(cons, pl) < 1e-8
            mirrored = Plane3(tuple(pl.normal_vec * [1, -1, 1]), pl.offset)
            assert min(plane_gap(mirrored, other) for other in sol.planes) < 1e-7

    def test_one_point_onto_three_planes_exact(self):
        # both cubics carry the factor N . N, which has no real point
        p = Point3(0.3, -0.2, 1.5)
        planes = [Plane3((0, 0, 1), 0), Plane3((1, 0, 0.5), 0.4), Plane3((0, 1, 0.2), -0.3)]
        corner = np.linalg.solve([x.normal for x in planes], [x.offset for x in planes])
        (plane,) = solve_exact([Constraint.I6(p, x) for x in planes]).planes
        expected = Plane3.from_point_normal((p.xyz + corner) / 2, p.xyz - corner)
        assert plane_gap(plane, expected) < 1e-9

    @pytest.mark.parametrize("seed", [None, 0, 1])
    def test_parallel_planes_at_matching_heights_exact(self, seed):
        # each point is one unit above its plane: the two d-free conics are
        # pairs of lines through b'_1 . N = 0, where no fold keeps a point's
        # height and moves it onto its plane
        points = [Point3(0, 0, 1), Point3(1, 0, 2), Point3(0, 1, 3)]
        planes = [Plane3((0, 0, 1), 0), Plane3((0, 0, 1), 1), Plane3((0, 0, 1), 2)]
        if seed is not None:
            frame = random_frame(np.random.default_rng(seed))
            points = [frame.apply_point(x) for x in points]
            planes = [frame.apply_plane(x) for x in planes]
        cons = [Constraint.I6(x, y) for x, y in zip(points, planes)]
        (plane,) = solve_exact(cons).planes
        p, q, r = (x.xyz for x in points)
        n = np.cross(q - p, r - p)
        assert abs(abs(plane.normal_vec @ n) - np.linalg.norm(n)) < 1e-9
        assert stacked_residual(cons, plane) < 1e-8

    @pytest.mark.parametrize("kinds", ["3I3", "2I3+I6", "I3+2I6", "3I6"])
    def test_more_than_seven_planes_ill_posed(self, kinds):
        # three quadrics meet in at most 7 planes; more that verify mean a
        # degenerate configuration
        rng = np.random.default_rng(69)
        cons = [random_payload(rng, k) for k in OperationSpec.parse(kinds).kinds]
        eight = list(rng.normal(size=(8, 4)))
        with mock.patch.object(fold3d.operations, "_three_quadric_points", lambda q: eight):
            with pytest.raises(IllPosed, match="bound of 7"):
                solve_exact(cons, tol=1e9)

    @pytest.mark.parametrize("kinds", ["I1+I8", "I2+I11", "2I1", "I4+I9"])
    def test_fixing_kind_mixed_with_others_searched(self, kinds):
        # a multiset mixing a kind that fixes the fold plane with others is
        # not searched: solve_exact meets the dual loci, which leave no
        # plane for random payloads
        rng = np.random.default_rng(65)
        cons = [random_payload(rng, k) for k in OperationSpec.parse(kinds).kinds]
        sol = solve_operation(cons)
        assert sol.provenance == "exact" and not sol.possibly_incomplete
        assert sol.outcome is Outcome.NO_SOLUTION
        assert sol == solve_exact(cons)

    def test_fixed_plane_through_the_point_found(self):
        p, q = Point3(0, 0, 0), Point3(0, 0, 2)
        cons = [Constraint.I1(p, q), Constraint.I8(Point3(3, -1, 1))]
        (plane,) = solve_operation(cons).planes
        assert plane_gap(plane, Plane3((0, 0, 1), 1.0)) < 1e-9


# the kinds that fix the fold plane alone, and the kinds payload_on_plane
# builds on one of their planes
FIXING_KINDS = [IncidenceKind(f"I{i}") for i in (1, 2, 4, 12)]
ON_PLANE_KINDS = [IncidenceKind(f"I{i}") for i in (1, 5, 6, 8, 9, 10, 11)]


class TestFixingKindMixes:
    """A multiset with a kind that fixes the fold plane gives the planes of
    each such constraint's direct solver that satisfy the others."""

    def test_never_searches(self):
        def searched(*args, **kwargs):
            raise AssertionError("solve_operation ran the search")

        rng = np.random.default_rng(72)
        valid, _ = enumerate_operations()
        mixes = [OperationSpec.from_kinds([k1, k2]) for k1 in FIXING_KINDS for k2 in IncidenceKind]
        with mock.patch.object(fold3d.numerics, "normal_scan", searched), \
                mock.patch.object(fold3d.numerics, "newton_multistart", searched):
            for spec in valid + mixes:
                sol = solve_operation([random_payload(rng, k) for k in spec.kinds])
                assert not sol.possibly_incomplete, spec
            two_conics = solve_operation(TestSolveExact.TWO_CONICS)
        assert two_conics.provenance == "exact" and two_conics.count == 1

    @pytest.mark.parametrize("other", ON_PLANE_KINDS, ids=lambda k: k.value)
    @pytest.mark.parametrize("fixing", FIXING_KINDS, ids=lambda k: k.value)
    def test_fixing_planes_that_verify(self, fixing, other):
        rng = np.random.default_rng(800 + 16 * fixing.index + other.index)
        for _ in range(2):
            fix = random_payload(rng, fixing)
            fixed = _DEDICATED_CASES[(fixing.index,)][1]([fix]).planes
            cons = [fix, payload_on_plane(rng, other, fixed[rng.integers(len(fixed))])]
            want = [x for x in fixed if stacked_residual(cons, x) < 1e-8]
            sol = solve_operation(cons)
            assert sol.provenance == "exact" and not sol.possibly_incomplete
            assert sol.count == len(want) > 0
            for plane in sol.planes:
                assert min(plane_gap(plane, x) for x in want) < 1e-9
            for plane in solve_generic(cons).planes:
                assert min(plane_gap(plane, x) for x in sol.planes) < 1e-6
            inconsistent = solve_operation([fix, random_payload(rng, other)])
            assert inconsistent.outcome is Outcome.NO_SOLUTION

    @pytest.mark.parametrize("off, count", [(1e-9, 1), (1e-7, 0)])
    def test_tolerance_decides_an_overdetermined_mix(self, off, count):
        # I1+I8 has four forms; with the point just off the bisector they
        # have full rank, and their least-squares plane verifies within tol
        p, q = Point3(0, 0, 0), Point3(0, 0, 2)
        cons = [Constraint.I1(p, q), Constraint.I8(Point3(3, -1, 1 + off))]
        assert solve_operation(cons).count == solve_exact(cons).count == count


class TestPointJustOffItsLine:
    """An I5 point 5e-10 off its line, outside the preconditions'
    TOL_SEPARATION: the constraint builds, so the I5 frame must too, and the
    dedicated solvers find what solve_exact finds."""

    M = Line3(Point3(0.2, -0.3, -1.0), (0.6, 0.8, 0.0))
    P = Point3(*(M.base.xyz + (0.0, 0.0, 5e-10)))

    @pytest.mark.parametrize("other, count", [
        (Constraint.I6(Point3(0.3, -0.4, 0.2), Plane3.from_coeffs(0.25, 0.55, 0.75, 0.35)), 3),
        (Constraint.I6(Point3(1.1, 0.4, -0.7), Plane3((0.0, 0.0, 1.0), 0.5)), 0),
        (Constraint.I9(Line3(Point3(1, 1, 1), (0.0, 0.0, 1.0))), 1),
        (Constraint.I9(Line3(Point3(1, 1, 1), (0.8, -0.6, 0.0))), 0),
    ], ids=["I6-three", "I6-none", "I9-one", "I9-none"])
    def test_same_count_as_solve_exact(self, other, count):
        cons = [Constraint.I5(self.P, self.M), other]
        sol = solve_operation(cons)
        assert sol.provenance == "dedicated"
        assert sol.count == solve_exact(cons).count == count
        for plane in sol.planes:
            assert stacked_residual(cons, plane) < 1e-12


class TestCloseSeparatedPairs:
    """An I5 point h off its line, or an I7 line h off a parallel plane, h
    down to 1e-9: the solvers take every payload the constraint accepts,
    and the pair's frame refuses none."""

    @pytest.mark.parametrize("h", [1e-6, 1e-7, 1e-8, 1e-9])
    @pytest.mark.parametrize("other", [IncidenceKind.I6, IncidenceKind.I9], ids=["I6", "I9"])
    def test_not_refused_by_the_frame(self, other, h):
        rng = np.random.default_rng(2105)
        for _ in range(25):
            cons = [Constraint.I5(*close_pair(rng, "I5", h)), random_payload(rng, other)]
            sol = solve_operation(cons)
            assert sol.provenance == "dedicated"
            assert sol.outcome in (Outcome.FINITE, Outcome.NO_SOLUTION)

    def test_line_just_off_its_plane(self):
        # an I7 line 1e-9 off a parallel plane builds, and with I8 of a
        # point on one of its family's planes that plane is found
        rng = np.random.default_rng(2108)
        for _ in range(25):
            c = Constraint.I7(*close_pair(rng, "I7-parallel", 1e-9))
            fam = family(c)
            plane = fam.plane(*(rng.uniform(p.low, p.high) for p in fam.parameters))
            cons = [c, payload_on_plane(rng, IncidenceKind.I8, plane)]
            sol = solve_operation(cons)
            assert sol.provenance == "exact"
            assert min(plane_gap(plane, q) for q in sol.planes) < 1e-6
            for q in sol.planes:
                assert stacked_residual(cons, q) < 1e-8
