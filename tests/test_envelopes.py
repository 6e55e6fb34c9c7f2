"""Plane families, envelope quadrics, and the numeric tangency verifier."""

import math

import numpy as np
import pytest

from fold3d import (
    Constraint,
    DegenerateInput,
    IncidenceKind,
    InvalidConstraint,
    Line3,
    NoEnvelope,
    Plane3,
    Point3,
    Quadric,
    VerificationFailed,
    envelope_I3,
    envelope_I5,
    envelope_I6,
    envelope_I7,
    family,
    family_I3,
    family_I5,
    family_I6,
    family_I7,
    planes_setwise_equal,
    residual,
    verify_envelope_conditions,
)
from fold3d.meshing import quadric_mesh_canonical
from helpers import (
    CLOSE_PAIRS,
    close_pair,
    line_parallel_to_plane,
    parallel_lines,
    point_off_line,
    point_off_plane,
    random_frame,
    random_payload,
    random_point,
    skew_lines,
)

# the canonical separated pair: focus at z=+1, target through z=-1
P_C = Point3(0, 0, 1)
M_C = Line3(Point3(0, 0, -1), (0, 1, 0))
PI_C = Plane3((0, 0, 1), -1.0)


def canonical_skew(delta: float) -> tuple[Line3, Line3]:
    m = Line3(Point3(0, 0, 1), (0, 1, 0))
    n = Line3(Point3(0, 0, -1), (math.cos(delta), math.sin(delta), 0.0))
    return m, n


def canonical_crossing(theta: float) -> tuple[Line3, Plane3]:
    m = Line3(Point3(0, 0, 0), (0, math.sin(theta), math.cos(theta)))
    return m, Plane3((0, 0, 1), 0.0)


class TestFamilyI5:
    def test_member_at_t2(self):
        fam = family_I5(P_C, M_C)
        assert planes_setwise_equal(fam.plane(2.0), Plane3.from_coeffs(0, 1, -1, -1), 1e-12)

    def test_member_at_t0(self):
        fam = family_I5(P_C, M_C)
        assert planes_setwise_equal(fam.plane(0.0), Plane3((0, 0, 1), 0.0), 1e-12)

    def test_members_satisfy_incidence_generic(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            p, m = point_off_line(rng)
            fam = family_I5(p, m)
            c = Constraint.I5(p, m)
            for t in rng.uniform(-8, 8, 5):
                assert residual(c, fam.plane(t)) < 1e-9

    def test_point_on_line_rejected(self):
        with pytest.raises(DegenerateInput):
            family_I5(Point3(0, 5, -1), M_C)


class TestFamilyI6:
    def test_member_values(self):
        fam = family_I6(P_C, PI_C)
        assert planes_setwise_equal(fam.plane(0.0, 0.0), Plane3((0, 0, 1), 0.0), 1e-12)
        assert planes_setwise_equal(fam.plane(2.0, 0.0), Plane3.from_coeffs(1, 0, -1, -1), 1e-12)

    def test_members_satisfy_incidence_generic(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            p, pi = point_off_plane(rng)
            fam = family_I6(p, pi)
            c = Constraint.I6(p, pi)
            for s, t in rng.uniform(-8, 8, (5, 2)):
                assert residual(c, fam.plane(s, t)) < 1e-9


class TestFamilyI3:
    def test_canonical_origin_member(self):
        m, n = canonical_skew(0.7)
        fam = family_I3(m, n)
        assert fam.incidence_kind == "I3"
        assert planes_setwise_equal(fam.plane(0.0, 0.0), Plane3((0, 0, 1), 0.0), 1e-12)

    def test_members_meet_target_line(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            m, n = skew_lines(rng)
            fam = family_I3(m, n)
            c = Constraint.I3(m, n)
            for t, s in rng.uniform(-6, 6, (5, 2)):
                assert residual(c, fam.plane(t, s)) < 1e-9

    def test_parallel_case_t_equals_s_gives_mid_plane(self):
        rng = np.random.default_rng(3)
        m, n = parallel_lines(rng)
        fam = family_I3(m, n)
        assert fam.incidence_kind == "I3-parallel"
        mid = fam.plane(1.3, 1.3)
        assert planes_setwise_equal(mid, fam.plane(0.0, 0.0), 1e-9)
        c = Constraint.I3(m, n)
        for t, s in np.random.default_rng(4).uniform(-6, 6, (5, 2)):
            assert residual(c, fam.plane(t, s)) < 1e-9

    def test_intersecting_rejected(self):
        m = Line3(Point3(0, 0, 0), (1, 0, 0))
        n = Line3(Point3(0, 0, 0), (0, 1, 0))
        with pytest.raises(InvalidConstraint):
            family_I3(m, n)


class TestFamilyI7:
    def test_crossing_members_pass_through_origin_point(self):
        m, pi = canonical_crossing(0.6)
        fam = family_I7(m, pi)
        for d in np.linspace(0, 2 * math.pi, 9):
            pl = fam.plane(d)
            assert abs(pl.signed_distance(Point3(0, 0, 0))) < 1e-12

    def test_crossing_members_reflect_line_into_plane(self):
        rng = np.random.default_rng(5)
        m, pi = canonical_crossing(0.6)
        c = Constraint.I7(m, pi)
        fam = family_I7(m, pi)
        for d in rng.uniform(0, 2 * math.pi, 20):
            assert residual(c, fam.plane(d)) < 1e-9

    def test_crossing_member_at_delta_equal_theta(self):
        # sin(delta) = sin(theta) kills the y term: x cos(d) - z cos(th) = 0
        theta = 0.6
        m, pi = canonical_crossing(theta)
        pl = family_I7(m, pi).plane(theta)
        want = Plane3.from_coeffs(math.cos(theta), 0.0, -math.cos(theta), 0.0)
        assert planes_setwise_equal(pl, want, 1e-12)

    def test_parallel_member_k2(self):
        m = Line3(Point3(0, 0, 1), (0, 1, 0))
        fam = family_I7(m, PI_C)
        assert fam.incidence_kind == "I7-parallel"
        assert planes_setwise_equal(fam.plane(2.0), Plane3.from_coeffs(1, 0, -1, -1), 1e-12)

    def test_contained_rejected(self):
        with pytest.raises(DegenerateInput):
            family_I7(Line3(Point3(0, 1, 0), (1, 0, 0)), Plane3((0, 0, 1), 0.0))

    def test_perpendicular_line_accepted_as_theta_zero(self):
        m = Line3(Point3(0, 0, 0), (0, 0, 1))
        fam = family_I7(m, Plane3((0, 0, 1), 0.0))
        assert fam.shape_angle == pytest.approx(0.0, abs=1e-12)
        c = Constraint.I7(m, Plane3((0, 0, 1), 0.0))
        for d in np.linspace(0, 2 * math.pi, 7):
            assert residual(c, fam.plane(d)) < 1e-9


def _coeff_dict(q: Quadric) -> np.ndarray:
    return np.array(q.coeffs)


class TestEnvelopeQuadrics:
    def test_i5_parabolic_cylinder(self):
        q = envelope_I5(P_C, M_C)
        want = np.array([0, 1, 0, 0, 0, 0, 0, 0, -4, 0]) / 4.0
        assert np.allclose(_coeff_dict(q), want, atol=1e-15)

    def test_i6_paraboloid(self):
        q = envelope_I6(P_C, PI_C)
        want = np.array([1, 1, 0, 0, 0, 0, 0, 0, -4, 0]) / 4.0
        assert np.allclose(_coeff_dict(q), want, atol=1e-15)
        assert abs(q.evaluate(Point3(0, 0, 0))) < 1e-15  # vertex on the surface

    def test_i6_focal_property(self):
        # points of the paraboloid are equidistant from the focus and the
        # directrix plane
        q = envelope_I6(P_C, PI_C)
        rng = np.random.default_rng(6)
        for _ in range(50):
            x, y = rng.uniform(-4, 4, 2)
            z = (x * x + y * y) / 4.0
            pt = Point3(x, y, z)
            assert abs(q.evaluate(pt)) < 1e-12
            assert abs(pt.distance_to(P_C) - PI_C.distance(pt)) < 1e-12

    def test_i5_focal_property(self):
        rng = np.random.default_rng(7)
        focal_line = Line3(Point3(0, 0, 1), (1, 0, 0))
        for _ in range(50):
            x, y = rng.uniform(-4, 4, 2)
            pt = Point3(x, y, y * y / 4.0)
            assert abs(focal_line.distance_to_point(pt) - PI_C.distance(pt)) < 1e-12

    def test_i3_delta_zero_reduces_to_cylinder(self):
        m, n = canonical_skew(0.0)
        q = envelope_I3(m, n)
        want = np.array([1, -1, 0, 0, 0, 0, 0, 0, -4, 0]) / 4.0
        # x^2 - y^2*0 ... at delta=0: x^2 - y^2*... cos^2(0)=1
        assert np.allclose(_coeff_dict(q), want, atol=1e-15)

    def test_i3_normal_form_after_half_angle_rotation(self):
        # rotating the coordinates by delta/2 about z diagonalizes the
        # quadratic part to cos(delta) (u^2 - v^2)
        delta = 0.7
        m, n = canonical_skew(delta)
        q = envelope_I3(m, n)
        c2, s2 = math.cos(delta / 2), math.sin(delta / 2)
        cd = math.cos(delta)
        rng = np.random.default_rng(8)
        scale = np.max(np.abs([cd, 4.0]))
        for _ in range(50):
            x, y, z = rng.uniform(-3, 3, 3)
            u = x * c2 + y * s2
            v = -x * s2 + y * c2
            lhs = q.evaluate(Point3(x, y, z)) * 4.0  # undo canonical scaling
            rhs = cd * (u * u - v * v) - 4.0 * z
            assert abs(lhs - rhs) < 1e-10 * scale

    def test_i3_parallel_has_no_envelope(self):
        m, n = parallel_lines(np.random.default_rng(9))
        with pytest.raises(NoEnvelope):
            envelope_I3(m, n)

    def test_i7_cone_theta_zero_is_right_circular(self):
        m = Line3(Point3(0, 0, 0), (0, 0, 1))
        q = envelope_I7(m, Plane3((0, 0, 1), 0.0))
        want = np.array([1, 1, -1, 0, 0, 0, 0, 0, 0, 0])
        assert np.allclose(_coeff_dict(q), want, atol=1e-12)

    def test_i7_apex_on_cone(self):
        m, pi = canonical_crossing(0.6)
        q = envelope_I7(m, pi)
        assert abs(q.evaluate(Point3(0, 0, 0))) < 1e-15

    def test_i7_parallel_parabolic_cylinder_focus(self):
        m = Line3(Point3(0, 0, 1), (0, 1, 0))
        q = envelope_I7(m, PI_C)
        want = np.array([1, 0, 0, 0, 0, 0, 0, 0, -4, 0]) / 4.0
        assert np.allclose(_coeff_dict(q), want, atol=1e-15)
        # focus of the x^2 = 4z parabola sits on the source line
        rng = np.random.default_rng(10)
        focus_line = Line3(Point3(0, 0, 1), (0, 1, 0))
        for _ in range(30):
            x, y = rng.uniform(-4, 4, 2)
            pt = Point3(x, y, x * x / 4.0)
            assert abs(focus_line.distance_to_point(pt) - PI_C.distance(pt)) < 1e-12

    def test_scene_coeffs_match_frame_evaluation(self):
        rng = np.random.default_rng(11)
        p, pi = point_off_plane(rng)
        q = envelope_I6(p, pi)
        c = q.scene_coeffs()
        for _ in range(20):
            pt = random_point(rng, 3.0)
            x, y, z = pt.xyz
            direct = (
                c[0] * x * x + c[1] * y * y + c[2] * z * z
                + c[3] * x * y + c[4] * y * z + c[5] * z * x
                + c[6] * x + c[7] * y + c[8] * z + c[9]
            )
            assert direct == pytest.approx(q.evaluate(pt), abs=1e-10)


class TestTangency:
    @pytest.mark.parametrize("maker", [
        lambda: (family_I5(P_C, M_C), envelope_I5(P_C, M_C)),
        lambda: (family_I6(P_C, PI_C), envelope_I6(P_C, PI_C)),
        lambda: (family_I3(*canonical_skew(0.7)), envelope_I3(*canonical_skew(0.7))),
        lambda: (family_I7(*canonical_crossing(0.6)), envelope_I7(*canonical_crossing(0.6))),
    ])
    def test_members_cut_degenerate_conics(self, maker):
        fam, quad = maker()
        rng = np.random.default_rng(12)
        for _ in range(25):
            values = [rng.uniform(-4, 4) for _ in fam.free_params]
            if fam.incidence_kind == "I7":
                values = [rng.uniform(0, 2 * math.pi)]
            pl = fam.plane(*values)
            assert quad.tangency_defect(pl) < 1e-9

    def test_non_tangent_plane_has_nonzero_defect(self):
        quad = envelope_I6(P_C, PI_C)
        secant = Plane3((0, 0, 1), 4.0)  # cuts the paraboloid in a circle
        assert quad.tangency_defect(secant) > 1e-3

    def test_contact_points_lie_on_quadric(self):
        fam = family_I5(P_C, M_C)
        quad = envelope_I5(P_C, M_C)
        # contact of the t member is the line y=t, z=t^2/4
        for t in (-3.0, 0.5, 2.0):
            cp = fam.contact_point(t)
            assert abs(cp.y - t) < 1e-12 and abs(cp.z - t * t / 4) < 1e-12
            assert abs(quad.evaluate(cp)) < 1e-12

    def test_i6_contact_point_at_s2_t0(self):
        fam = family_I6(P_C, PI_C)
        quad = envelope_I6(P_C, PI_C)
        cp = fam.contact_point(2.0, 0.0)
        assert np.allclose(cp.xyz, [2.0, 0.0, 1.0], atol=1e-12)
        assert abs(quad.evaluate(cp)) < 1e-12
        # the member plane at (2, 0) is tangent exactly there
        pl = fam.plane(2.0, 0.0)
        assert abs(pl.signed_distance(cp)) < 1e-12
        assert quad.tangency_defect(pl) < 1e-12


class TestVerifyEnvelope:
    def test_t2_contact_line_of_i5(self):
        # independent first-principles check: solve member + derivative
        # equations by hand at t=2 and confirm the contact is y=2, z=1
        t = 2.0
        # member: 2ty - 4z = t^2; derivative in t: 2y - 4*0 ... = 2y - 2t
        y = t
        z = (2 * t * y - t * t) / 4.0
        quad = envelope_I5(P_C, M_C)
        for x in (-2.0, 0.0, 5.0):
            assert abs(quad.evaluate(Point3(x, y, z))) < 1e-12

    @pytest.mark.parametrize("maker,contact", [
        (lambda: (family_I5(P_C, M_C), envelope_I5(P_C, M_C)), "line"),
        (lambda: (family_I6(P_C, PI_C), envelope_I6(P_C, PI_C)), "point"),
        (lambda: (family_I3(*canonical_skew(0.7)), envelope_I3(*canonical_skew(0.7))), "point"),
        (lambda: (family_I7(*canonical_crossing(0.6)), envelope_I7(*canonical_crossing(0.6))), "line"),
    ])
    def test_verify_passes(self, maker, contact):
        fam, quad = maker()
        report = verify_envelope_conditions(fam, quad, samples=100)
        assert report.contact == contact
        assert report.max_normal_defect < 1e-8

    def test_perturbed_quadric_fails(self):
        fam = family_I5(P_C, M_C)
        quad = envelope_I5(P_C, M_C)
        broken = Quadric(
            tuple(np.array(quad.coeffs) + np.array([0, 0.1, 0, 0, 0, 0, 0, 0, 0, 0])),
            quad.frame,
        )
        with pytest.raises(VerificationFailed):
            verify_envelope_conditions(fam, broken, samples=20)

    def test_generic_scene_configs_verify(self):
        rng = np.random.default_rng(13)
        p, m = point_off_line(rng)
        verify_envelope_conditions(family_I5(p, m), envelope_I5(p, m), samples=30)
        p2, pi2 = point_off_plane(rng)
        verify_envelope_conditions(family_I6(p2, pi2), envelope_I6(p2, pi2), samples=30)
        sm, sn = skew_lines(rng)
        verify_envelope_conditions(family_I3(sm, sn), envelope_I3(sm, sn), samples=30)


class TestFrameEquivariance:
    """Moving the scene rigidly must leave the family, read back through its
    own canonical frame, pointwise identical to the closed form."""

    def _params_from_canonical_plane(self, fam, plane_c):
        n = plane_c.normal_vec
        o = plane_c.offset
        a = fam.half_gap
        if fam.incidence_kind == "I5":
            f = -4 * a / n[2]
            return (n[1] * f / 2.0,)
        if fam.incidence_kind == "I6":
            f = -4 * a / n[2]
            return (n[0] * f / 2.0, n[1] * f / 2.0)
        if fam.incidence_kind == "I3":
            f = -2 * a / n[2]
            d = fam.shape_angle
            s = n[0] * f / math.cos(d)
            t = s * math.sin(d) - n[1] * f
            return (t, s)
        if fam.incidence_kind == "I7":
            th = fam.shape_angle
            f = -math.cos(th) / n[2]
            return (math.atan2(n[1] * f + math.sin(th), n[0] * f),)
        raise AssertionError(fam.incidence_kind)

    def test_i5_family_equivariant(self):
        vals = [(0.7,), (-2.3,), (4.0,)]
        rng = np.random.default_rng(14)
        for _ in range(10):
            move = random_frame(rng)
            p2 = move.apply_point(P_C)
            m2 = move.apply_line(M_C)
            fam2 = family_I5(p2, m2)
            for v in vals:
                moved_plane = fam2.plane(*v)
                back = fam2.frame.apply_plane(moved_plane)
                params = self._params_from_canonical_plane(fam2, back)
                rebuilt = fam2.plane_canonical(*params)
                from fold3d import plane_gap

                assert plane_gap(back, rebuilt) < 1e-10

    def test_i6_and_i3_and_i7_equivariant(self):
        from fold3d import plane_gap

        rng = np.random.default_rng(15)
        cases = [
            (family_I6(P_C, PI_C), lambda mv: family_I6(mv.apply_point(P_C), mv.apply_plane(PI_C)), [(0.5, -1.0), (2.0, 3.0)]),
            (family_I3(*canonical_skew(0.7)), lambda mv: family_I3(mv.apply_line(canonical_skew(0.7)[0]), mv.apply_line(canonical_skew(0.7)[1])), [(0.4, 1.2), (-2.0, 0.3)]),
            (family_I7(*canonical_crossing(0.6)), lambda mv: family_I7(mv.apply_line(canonical_crossing(0.6)[0]), mv.apply_plane(canonical_crossing(0.6)[1])), [(0.3,), (2.5,)]),
        ]
        for _, rebuild, value_sets in cases:
            for _ in range(6):
                move = random_frame(rng)
                fam2 = rebuild(move)
                for v in value_sets:
                    back = fam2.frame.apply_plane(fam2.plane(*v))
                    params = self._params_from_canonical_plane(fam2, back)
                    rebuilt = fam2.plane_canonical(*params)
                    assert plane_gap(back, rebuilt) < 1e-10


# a random constraint of each family row, from the shared scene generators
FAMILY_ROWS = {
    "I3": lambda rng: Constraint.I3(*skew_lines(rng)),
    "I3-parallel": lambda rng: Constraint.I3(*parallel_lines(rng)),
    "I5": lambda rng: Constraint.I5(*point_off_line(rng)),
    "I6": lambda rng: Constraint.I6(*point_off_plane(rng)),
    "I7": lambda rng: random_payload(rng, IncidenceKind.I7),
    "I7-parallel": lambda rng: Constraint.I7(*line_parallel_to_plane(rng)),
    "I8": lambda rng: random_payload(rng, IncidenceKind.I8),
    "I9": lambda rng: random_payload(rng, IncidenceKind.I9),
    "I10": lambda rng: random_payload(rng, IncidenceKind.I10),
    "I11": lambda rng: random_payload(rng, IncidenceKind.I11),
}
WITH_ENVELOPE = {"I3", "I5", "I6", "I7", "I7-parallel"}


class TestFamilyTable:
    @pytest.mark.parametrize("kind", sorted(FAMILY_ROWS))
    def test_every_row_on_random_scenes(self, kind):
        rng = np.random.default_rng(16)
        for _ in range(4):
            c = FAMILY_ROWS[kind](rng)
            fam = family(c)
            assert fam.incidence_kind == kind
            assert fam.dimension + c.kind.codimension == 3
            assert fam.parameters == fam.free_params
            for _ in range(25):
                values = [rng.uniform(p.low, p.high) for p in fam.parameters]
                assert residual(c, fam.plane(*values)) < 1e-9
            if kind in WITH_ENVELOPE:
                verify_envelope_conditions(fam, fam.envelope(), samples=30)
            else:
                for no_envelope in (fam.envelope, lambda: quadric_mesh_canonical(fam),
                                    lambda: fam.contact_point(*values)):
                    with pytest.raises(NoEnvelope):
                        no_envelope()


@pytest.mark.parametrize("h", [1e-6, 1e-7, 1e-8, 1e-9])
@pytest.mark.parametrize("pair", CLOSE_PAIRS)
def test_close_pair_family_builds(pair, h):
    # every pair beyond TOL_SEPARATION builds its constraint and its frame
    rng = np.random.default_rng(2106)
    for _ in range(25):
        c = Constraint(IncidenceKind(pair[:2]), close_pair(rng, pair, h))
        assert family(c).half_gap == pytest.approx(h / 2.0, rel=1e-5)
