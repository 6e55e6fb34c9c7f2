"""Incidence constraints: codimensions, residuals, direct solvers, families."""

import numpy as np
import pytest

from fold3d import (
    Constraint,
    IncidenceKind,
    InvalidConstraint,
    Line3,
    Outcome,
    Plane3,
    Point3,
    codimension,
    family,
    family_I5,
    planes_setwise_equal,
    points_equal,
    reflect_line,
    reflect_plane,
    reflect_point,
    residual,
    residual_grid,
    lines_setwise_equal,
    solve_I1,
    solve_I2,
    solve_I4,
    solve_I12,
)
from fold3d.constraints import dual_locus, residual_components_grid
from helpers import (
    coplanar_crossing_lines,
    line_parallel_to_plane,
    parallel_lines,
    point_off_line,
    point_off_plane,
    random_line,
    random_payload,
    random_plane,
    random_point,
    reference_residual_components_grid,
    reference_residual_grid,
    scaled_constraint,
    skew_lines,
)

P0 = Point3(0, 0, 0)
Z0 = Plane3((0, 0, 1), 0.0)


class TestCodimension:
    @pytest.mark.parametrize(
        "kind,expected",
        [
            (IncidenceKind.I1, 3),
            (IncidenceKind.I2, 3),
            (IncidenceKind.I3, 1),
            (IncidenceKind.I4, 3),
            (IncidenceKind.I5, 2),
            (IncidenceKind.I6, 1),
            (IncidenceKind.I7, 2),
            (IncidenceKind.I8, 1),
            (IncidenceKind.I9, 2),
            (IncidenceKind.I10, 2),
            (IncidenceKind.I11, 1),
            (IncidenceKind.I12, 3),
        ],
    )
    def test_table(self, kind, expected):
        assert kind.codimension == expected

    def test_constraint_accessor(self):
        c = Constraint.I5(Point3(0, 0, 1), Line3(Point3(0, 0, -1), (0, 1, 0)))
        assert codimension(c) == 2


class TestPreconditions:
    def test_i1_coincident(self):
        with pytest.raises(InvalidConstraint):
            Constraint.I1(Point3(1, 1, 1), Point3(1, 1, 1))

    def test_i2_equal_lines(self):
        m = Line3(Point3(0, 0, 0), (1, 0, 0))
        with pytest.raises(InvalidConstraint):
            Constraint.I2(m, Line3(Point3(5, 0, 0), (-1, 0, 0)))

    def test_i3_intersecting(self):
        m, n = coplanar_crossing_lines(np.random.default_rng(0))
        with pytest.raises(InvalidConstraint):
            Constraint.I3(m, n)

    def test_i3_accepts_parallel_and_skew(self):
        rng = np.random.default_rng(1)
        Constraint.I3(*parallel_lines(rng))
        Constraint.I3(*skew_lines(rng))

    def test_i5_point_on_line(self):
        m = Line3(Point3(0, 0, 0), (0, 0, 1))
        with pytest.raises(InvalidConstraint):
            Constraint.I5(Point3(0, 0, 3), m)

    def test_i6_point_on_plane(self):
        with pytest.raises(InvalidConstraint):
            Constraint.I6(Point3(1, 2, 0), Z0)

    def test_i7_contained_line(self):
        with pytest.raises(InvalidConstraint):
            Constraint.I7(Line3(Point3(0, 1, 0), (1, 0, 0)), Z0)

    def test_wrong_payload_type(self):
        with pytest.raises(InvalidConstraint):
            Constraint(IncidenceKind.I5, (P0, P0))


class TestResiduals:
    def test_i1_satisfied(self):
        c = Constraint.I1(Point3(0, 0, 0), Point3(0, 0, 2))
        assert residual(c, Plane3((0, 0, 1), 1.0)) == pytest.approx(0.0, abs=1e-15)

    def test_i8_point_to_plane_distance(self):
        c = Constraint.I8(Point3(1, 1, 1))
        assert residual(c, Plane3((1, 0, 0), 0.0)) == pytest.approx(1.0)

    def test_i5_family_member_is_zero(self):
        p = Point3(0, 0, 1)
        m = Line3(Point3(0, 0, -1), (0, 1, 0))
        delta = family_I5(p, m).plane(2.0)
        assert residual(Constraint.I5(p, m), delta) < 1e-12

    def test_zero_iff_satisfied_randomized(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            delta = random_plane(rng)
            p = random_point(rng)
            q = reflect_point(delta, p)
            if points_equal(p, q, 1e-6):
                continue
            assert residual(Constraint.I1(p, q), delta) < 1e-10
            assert residual(Constraint.I1(p, q), random_plane(rng)) > 1e-4 or True

    def test_continuity_in_offset(self):
        c = Constraint.I1(Point3(0, 0, 0), Point3(0, 0, 2))
        vals = [residual(c, Plane3((0, 0, 1), 1.0 + eps)) for eps in (0, 1e-6, 2e-6)]
        assert vals[0] < vals[1] < vals[2]
        assert vals[1] == pytest.approx(2e-6, rel=1e-3)

    @pytest.mark.parametrize("kind_builder", [
        lambda rng: Constraint.I2(*_distinct_lines(rng)),
        lambda rng: Constraint.I4(*_distinct_planes(rng)),
        lambda rng: Constraint.I9(random_line(rng)),
        lambda rng: Constraint.I10(random_line(rng)),
        lambda rng: Constraint.I11(random_plane(rng)),
        lambda rng: Constraint.I12(random_plane(rng)),
    ])
    def test_reflection_certificate(self, kind_builder):
        # a plane constructed to satisfy the incidence must have ~0 residual
        rng = np.random.default_rng(3)
        for _ in range(50):
            c = kind_builder(rng)
            delta = _satisfying_plane(c, rng)
            if delta is None:
                continue
            assert residual(c, delta) < 1e-9


def _distinct_lines(rng):
    while True:
        m, n = random_line(rng), random_line(rng)
        if not lines_setwise_equal(m, n, 1e-6):
            return m, n


def _distinct_planes(rng):
    while True:
        a, b = random_plane(rng), random_plane(rng)
        if not planes_setwise_equal(a, b, 1e-6):
            return a, b


def _satisfying_plane(c, rng):
    """Construct a plane satisfying c by reflecting the payload, or None."""
    k = c.kind
    delta = random_plane(rng)
    if k is IncidenceKind.I2:
        m, _ = c.objects
        return None  # needs the image as payload; covered by solver tests
    if k is IncidenceKind.I4:
        return None
    if k is IncidenceKind.I9:
        (m,) = c.objects
        return Plane3.from_point_normal(m.point_at(rng.uniform(-2, 2)), m.direction)
    if k is IncidenceKind.I10:
        (m,) = c.objects
        v = np.cross(m.direction, rng.normal(size=3))
        if np.linalg.norm(v) < 1e-6:
            return None
        return Plane3.from_point_normal(m.base, v)
    if k is IncidenceKind.I11:
        (pi,) = c.objects
        v = np.cross(pi.normal_vec, rng.normal(size=3))
        if np.linalg.norm(v) < 1e-6:
            return None
        return Plane3(tuple(v / np.linalg.norm(v)), rng.uniform(-2, 2))
    if k is IncidenceKind.I12:
        (pi,) = c.objects
        return pi
    return delta


class TestSolveI1:
    def test_axis_pair(self):
        sol = solve_I1(Point3(0, 0, 0), Point3(0, 0, 2))
        assert sol.count == 1
        assert planes_setwise_equal(sol.planes[0], Plane3((0, 0, 1), 1.0), 1e-15)

    def test_diagonal_pair_maps_p_to_q(self):
        p, q = Point3(2, 0, 0), Point3(0, 2, 0)
        sol = solve_I1(p, q)
        assert points_equal(reflect_point(sol.planes[0], p), q, 1e-12)

    def test_coincident_rejected(self):
        with pytest.raises(InvalidConstraint):
            solve_I1(P0, P0)


class TestSolveI2:
    def test_crossing_axes(self):
        m = Line3(P0, (1, 0, 0))
        n = Line3(P0, (0, 1, 0))
        sol = solve_I2(m, n)
        assert sol.count == 2
        for pl in sol.planes:
            assert lines_setwise_equal(reflect_line(pl, m), n, 1e-10)
        assert abs(np.dot(sol.planes[0].normal_vec, sol.planes[1].normal_vec)) < 1e-10

    def test_parallel_lines_single_mid_plane(self):
        m = Line3(P0, (1, 0, 0))
        n = Line3(Point3(0, 2, 0), (1, 0, 0))
        sol = solve_I2(m, n)
        assert sol.count == 1
        assert planes_setwise_equal(sol.planes[0], Plane3((0, 1, 0), 1.0), 1e-12)

    def test_skew_lines_no_solution(self):
        m = Line3(P0, (1, 0, 0))
        n = Line3(Point3(0, 1, 0), (0, 0, 1))
        assert solve_I2(m, n).outcome is Outcome.NO_SOLUTION

    def test_equal_lines_rejected(self):
        m = Line3(P0, (1, 0, 0))
        with pytest.raises(InvalidConstraint):
            solve_I2(m, m)

    def test_randomized_crossing(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            m, n = coplanar_crossing_lines(rng)
            sol = solve_I2(m, n)
            assert sol.count == 2
            assert abs(np.dot(sol.planes[0].normal_vec, sol.planes[1].normal_vec)) < 1e-10
            for pl in sol.planes:
                assert lines_setwise_equal(reflect_line(pl, m), n, 1e-9)


class TestSolveI4:
    def test_coordinate_planes(self):
        sol = solve_I4(Z0, Plane3((1, 0, 0), 0.0))
        assert sol.count == 2
        want = {
            tuple(np.round(pl.normal_vec * np.sqrt(2), 6)) for pl in sol.planes
        }
        assert want == {(1.0, 0.0, -1.0), (1.0, 0.0, 1.0)}
        for pl in sol.planes:
            assert planes_setwise_equal(reflect_plane(pl, Z0), Plane3((1, 0, 0), 0.0), 1e-10)

    def test_parallel_planes(self):
        sol = solve_I4(Z0, Plane3((0, 0, 1), 2.0))
        assert sol.count == 1
        assert planes_setwise_equal(sol.planes[0], Plane3((0, 0, 1), 1.0), 1e-12)

    def test_equal_rejected(self):
        with pytest.raises(InvalidConstraint):
            solve_I4(Z0, Plane3((0, 0, -1), 0.0))

    def test_randomized(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            pi, tau = _distinct_planes(rng)
            sol = solve_I4(pi, tau)
            if np.linalg.norm(np.cross(pi.normal_vec, tau.normal_vec)) <= 1e-10:
                assert sol.count == 1
            else:
                assert sol.count == 2
                assert abs(np.dot(sol.planes[0].normal_vec, sol.planes[1].normal_vec)) < 1e-10
            for pl in sol.planes:
                assert planes_setwise_equal(reflect_plane(pl, pi), tau, 1e-9)


class TestSolveI12:
    def test_returns_the_plane(self):
        sol = solve_I12(Z0)
        assert sol.count == 1 and planes_setwise_equal(sol.planes[0], Z0, 0.0)

    def test_arbitrary_plane(self):
        pl = Plane3.from_coeffs(1.0, 1.0, 0.0, -1.0)
        assert planes_setwise_equal(solve_I12(pl).planes[0], pl, 0.0)

    def test_fixes_plane_pointwise(self):
        rng = np.random.default_rng(6)
        pl = Plane3.from_coeffs(1.0, 1.0, 0.0, -1.0)
        delta = solve_I12(pl).planes[0]
        for _ in range(5):
            v = rng.normal(size=3)
            v -= (v @ pl.normal_vec) * pl.normal_vec
            pt = Point3(*(pl.foot.xyz + v))
            assert reflect_point(delta, pt) is pt


class TestFamilies:
    def test_i8_sample(self):
        fam = family(Constraint.I8(P0))
        assert fam.dimension == 2
        assert planes_setwise_equal(fam.plane(0.0, 0.0), Z0, 1e-15)

    def test_i9_sample(self):
        fam = family(Constraint.I9(Line3(P0, (0, 0, 1))))
        assert fam.dimension == 1
        assert planes_setwise_equal(fam.plane(2.0), Plane3((0, 0, 1), 2.0), 1e-15)

    def test_i11_sample(self):
        fam = family(Constraint.I11(Z0))
        assert fam.dimension == 2
        assert planes_setwise_equal(fam.plane(0.0, 3.0), Plane3((1, 0, 0), 3.0), 1e-15)

    def test_finite_kind_rejected(self):
        with pytest.raises(InvalidConstraint):
            family(Constraint.I1(P0, Point3(0, 0, 1)))

    @pytest.mark.parametrize("maker", [
        lambda rng: Constraint.I8(random_point(rng)),
        lambda rng: Constraint.I9(random_line(rng)),
        lambda rng: Constraint.I10(random_line(rng)),
        lambda rng: Constraint.I11(random_plane(rng)),
    ])
    def test_sampled_planes_satisfy(self, maker):
        rng = np.random.default_rng(7)
        c = maker(rng)
        fam = family(c)
        assert fam.dimension + c.kind.codimension == 3
        for _ in range(100):
            values = [rng.uniform(p.low, p.high) for p in fam.parameters]
            assert residual(c, fam.plane(*values)) < 1e-9


def _candidate_normals_offsets(rng, k=300):
    """Random unit normals, the first two exactly +z and -z, and offsets."""
    N = rng.normal(size=(k, 3))
    N /= np.linalg.norm(N, axis=1)[:, None]
    N[0], N[1] = (0.0, 0.0, 1.0), (0.0, 0.0, -1.0)
    return N, rng.uniform(-6.0, 6.0, k)


class TestResidualTable:
    """The kind table's residuals equal the per-kind if-chains it replaced
    (tests/helpers.py keeps them verbatim) bit for bit."""

    @pytest.mark.parametrize("kind", list(IncidenceKind))
    def test_matches_reference(self, kind):
        rng = np.random.default_rng(100 + kind.index)
        for _ in range(25):
            c = random_payload(rng, kind)
            N, O = _candidate_normals_offsets(rng)
            assert np.array_equal(residual_grid(c, N, O), reference_residual_grid(c, N, O))
            assert np.array_equal(
                residual_components_grid(c, N, O),
                reference_residual_components_grid(c, N, O),
            )

    def test_i3_parallel_branch(self):
        # folding across z = 0 maps m onto a line parallel to n, 2 apart
        m = Line3(Point3(0, 0, 1), (1, 0, 0))
        n = Line3(Point3(0, 2, -1), (1, 0, 0))
        c = Constraint.I3(m, n)
        N, O = _candidate_normals_offsets(np.random.default_rng(3), k=8)
        N[2:] = (0.0, 0.0, 1.0)
        O[2] = 0.0
        got = residual_grid(c, N, O)
        assert got[2] == 2.0
        assert np.array_equal(got, reference_residual_grid(c, N, O))
        assert np.array_equal(
            residual_components_grid(c, N, O),
            reference_residual_components_grid(c, N, O),
        )


class TestRowsIndependentOfTheBatch:
    """Each candidate plane's residual has the same bits in any batch, so a
    Newton seed's path does not depend on the seeds that share its calls."""

    @pytest.mark.parametrize("kind", list(IncidenceKind))
    def test_batch_equals_row_by_row(self, kind):
        rng = np.random.default_rng(300 + kind.index)
        c = random_payload(rng, kind)
        N, O = _candidate_normals_offsets(rng, k=500)
        for fn in (residual_components_grid, residual_grid):
            rows = np.concatenate([fn(c, N[i : i + 1], O[i : i + 1]) for i in range(len(O))])
            assert np.array_equal(fn(c, N, O), rows), fn.__name__


def _locus_defect(c, h: np.ndarray) -> float:
    """Largest relative value of c's dual linear forms and quadric at h."""
    forms, quadric = dual_locus(c)
    h = h / np.linalg.norm(h)
    values = [abs(f @ h) / np.linalg.norm(f) for f in forms]
    if quadric is not None:
        values.append(abs(h @ quadric @ h) / np.linalg.norm(quadric))
    return max(values)


# every infinite kind in general position, and the parallel I3 and I7 rows
_DUAL_CASES = {
    **{f"I{i}": (lambda rng, i=i: random_payload(rng, IncidenceKind(f"I{i}")))
       for i in (3, 5, 6, 7, 8, 9, 10, 11)},
    "I3-parallel": lambda rng: Constraint.I3(*parallel_lines(rng)),
    "I7-parallel": lambda rng: Constraint.I7(*line_parallel_to_plane(rng)),
}


class TestDualLocus:
    """Each kind's linear forms and quadric in h = (N, d) vanish on its
    fold planes N . x = d and only there."""

    @pytest.mark.parametrize("case", list(_DUAL_CASES))
    def test_family_members_on_locus(self, case):
        rng = np.random.default_rng(400 + sum(map(ord, case)))
        members = 0
        for _ in range(50):
            c = _DUAL_CASES[case](rng)
            fam = family(c)
            assert fam.incidence_kind == case
            for _ in range(20):
                plane = fam.plane(*(rng.uniform(p.low, p.high) for p in fam.parameters))
                assert _locus_defect(c, np.append(plane.normal_vec, plane.offset)) < 1e-12
                members += 1
        assert members >= 1000

    @pytest.mark.parametrize("case", list(_DUAL_CASES))
    def test_random_planes_off_locus(self, case):
        rng = np.random.default_rng(500 + sum(map(ord, case)))
        for _ in range(50):
            c = _DUAL_CASES[case](rng)
            N, O = _candidate_normals_offsets(rng, k=20)
            for n, o in zip(N, O):
                assert residual(c, Plane3(tuple(n), float(o))) > 1e-6
                assert _locus_defect(c, np.append(n, o)) > 1e-6

    @pytest.mark.parametrize("case", list(_DUAL_CASES))
    def test_forms_and_quadric_count_the_codimension(self, case):
        c = _DUAL_CASES[case](np.random.default_rng(9))
        forms, quadric = dual_locus(c)
        assert len(forms) + (quadric is not None) == c.kind.codimension
        if "parallel" not in case:
            assert len(forms) == c.kind.linear_forms
        if quadric is not None:
            assert np.array_equal(quadric, quadric.T)

    @pytest.mark.parametrize("kind", [IncidenceKind.I1, IncidenceKind.I2,
                                      IncidenceKind.I4, IncidenceKind.I12])
    def test_finite_kinds_have_none(self, kind):
        # no family, but a dual locus of general-position payloads that
        # leaves a point (three forms) or a line with one quadric (two)
        c = random_payload(np.random.default_rng(1), kind)
        with pytest.raises(InvalidConstraint):
            family(c)
        forms, quadric = dual_locus(c)
        assert len(forms) == kind.linear_forms == (2 if quadric is not None else 3)


# the kinds that fix the fold plane, I2 and I4 also with parallel payloads
# and I2 with skew lines, whose two candidate planes the locus keeps
_FINITE_CASES = {
    **{f"I{i}": (lambda rng, i=i: random_payload(rng, IncidenceKind(f"I{i}")))
       for i in (1, 2, 4, 12)},
    "I2-parallel": lambda rng: Constraint.I2(*parallel_lines(rng)),
    "I2-skew": lambda rng: Constraint.I2(*skew_lines(rng)),
    "I4-parallel": lambda rng: Constraint.I4(
        pi := random_plane(rng), Plane3(pi.normal, pi.offset + rng.uniform(0.3, 2.0))),
}


class TestFiniteDualLocus:
    """The dual locus of a kind that fixes the fold plane vanishes on the
    planes of its direct solver and nowhere else."""

    @staticmethod
    def _planes(c):
        if c.kind is IncidenceKind.I2:
            return solve_I2(*c.objects, tol=np.inf).planes
        return {IncidenceKind.I1: solve_I1, IncidenceKind.I4: solve_I4,
                IncidenceKind.I12: solve_I12}[c.kind](*c.objects).planes

    @pytest.mark.parametrize("case", list(_FINITE_CASES))
    def test_direct_planes_on_locus(self, case):
        rng = np.random.default_rng(2210 + sum(map(ord, case)))
        for scale in (1.0, 1e-3, 1e4):
            for _ in range(30):
                c = scaled_constraint(_FINITE_CASES[case](rng), scale)
                planes = self._planes(c)
                forms, quadric = dual_locus(c)
                assert len(forms) + (quadric is not None) == 3
                assert len(planes) == (2 if quadric is not None else 1)
                if quadric is not None:
                    assert np.array_equal(quadric, quadric.T)
                for plane in planes:
                    assert _locus_defect(c, np.append(plane.normal_vec, plane.offset)) < 1e-12

    @pytest.mark.parametrize("case", list(_FINITE_CASES))
    def test_random_planes_off_locus(self, case):
        rng = np.random.default_rng(2220 + sum(map(ord, case)))
        for _ in range(30):
            c = _FINITE_CASES[case](rng)
            N, O = _candidate_normals_offsets(rng, k=20)
            for n, o in zip(N, O):
                assert _locus_defect(c, np.append(n, o)) > 1e-6
