"""Fold operations: enumeration, dedicated solvers, dispatch, generic search."""

from unittest import mock

import numpy as np
import pytest

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
    solve_generic,
    solve_operation,
    stacked_residual,
)
from helpers import (
    SystemInstance3I6,
    generic_newton_args,
    generic_specs,
    instance_3i6,
    instance_i5_i6,
    instance_i5_i9,
    instance_i6_i8_i11,
    point_off_line,
    point_off_plane,
    random_frame,
    random_line,
    random_payload,
    random_plane,
    random_point,
    random_unit,
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
        from fold3d.operations import _landing_poly

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
            cubic = sympy.expand(sympy.cancel(den * (n.dot(image) - off)))
            unit = np.array(n / n.norm(), dtype=float).ravel()
            ours = _landing_poly(
                float(a), np.array(v, dtype=float).ravel(), unit, float(off / n.norm()), False
            )
            poly = sympy.Poly(cubic / n.norm(), s, t)
            for (i, j), c in np.ndenumerate(ours):
                assert abs(float(poly.coeff_monomial(s**i * t**j)) - c) < 1e-9
            cubics.append(cubic)
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

    @pytest.mark.parametrize("lattice", [(2048, 2048), (257, 256)])
    def test_normal_count_bounded(self, lattice):
        with pytest.raises(DegenerateInput, match="lattice"):
            solve_generic(self.FAR, lattice=lattice)

    def test_no_two_planes_within_cluster_tol(self):
        rng = np.random.default_rng(707)
        found = 0
        for spec in generic_specs():
            for _ in range(2):
                planes = solve_generic([random_payload(rng, k) for k in spec.kinds]).planes
                found += len(planes)
                for i, p in enumerate(planes):
                    assert all(plane_gap(p, q) > 1e-7 for q in planes[i + 1:]), spec
        assert found > 50

    def test_refine_count_keeps_the_lowest_scores(self):
        from fold3d.numerics import normal_scan

        seeds, scores = normal_scan(self.FAR, 14, 28, valley_floors=True)
        (_, all_seeds), _ = generic_newton_args(self.FAR)
        assert len(all_seeds) == len(seeds) > 4
        calls = []
        with mock.patch("fold3d.operations.newton_multistart",
                        lambda *args, **kwargs: calls.append(args[1]) or []), \
                mock.patch("fold3d.operations.REFINE_COUNT", 4):
            solve_generic(self.FAR)
        kept = [np.flatnonzero((seeds == seed).all(axis=1))[0] for seed in calls[0]]
        assert np.array_equal(np.sort(scores[kept]), np.sort(scores)[:4])


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
        rng = np.random.default_rng(9)
        p, m = point_off_line(rng)
        q, pi = point_off_plane(rng)
        n = random_line(rng)
        cons = [Constraint.I5(p, m), Constraint.I10(n)]
        sol = solve_operation(cons)
        assert sol.provenance == "generic"


def _objects(cons, kind):
    """The payload objects of the constraint of one kind."""
    (c,) = [c for c in cons if c.kind is kind]
    return c.objects


# each dedicated key: a random instance, and the direct solver call for a
# constraint list, which picks every argument out by kind
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
            assert got.provenance == "dedicated"
            assert got.outcome == want.outcome
            assert got.planes == want.planes
            found += want.count
        assert found > 0
