"""Reflection geometry: primitives, reflections, canonical frames."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fold3d import (
    Constraint,
    DegenerateInput,
    InvalidConstraint,
    Line3,
    LinePlaneRelation,
    Plane3,
    Point3,
    RigidFrame,
    canonical_frame_line_plane_crossing,
    canonical_frame_line_plane_parallel,
    canonical_frame_parallel_lines,
    canonical_frame_point_line,
    canonical_frame_point_plane,
    canonical_frame_skew_lines,
    classify_line_plane,
    lines_setwise_equal,
    perpendicular_bisector_plane,
    plane_gap,
    planes_setwise_equal,
    points_equal,
    reflect_line,
    reflect_plane,
    reflect_point,
)
from fold3d.geometry import _UNIT_SLACK, TOL_SEPARATION, _is_unit, cross3
from helpers import (
    point_off_line,
    point_off_plane,
    random_frame,
    random_line,
    random_plane,
    random_point,
    reference_plane_gap,
    skew_lines,
)

Z0 = Plane3((0, 0, 1), 0.0)


class TestPrimitives:
    def test_point_requires_finite(self):
        with pytest.raises(DegenerateInput):
            Point3(0.0, float("nan"), 0.0)

    def test_plane_offset_requires_finite(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(DegenerateInput):
                Plane3((0, 0, 1), bad)

    def test_line_canonical_base_and_direction(self):
        m = Line3(Point3(5, 3, 7), (0, 0, -2))
        assert m.dir == (0.0, 0.0, 1.0)
        assert np.allclose(m.base.xyz, [5, 3, 0])

    def test_plane_canonical_sign(self):
        a = Plane3((0, 0, -1), 2.0)
        b = Plane3((0, 0, 1), -2.0)
        assert a == b
        assert a.offset == -2.0

    def test_plane_coeffs_round_trip(self):
        pl = Plane3.from_coeffs(1.0, 2.0, -2.0, 6.0)
        a, b, c, d = pl.coeffs()
        pl2 = Plane3.from_coeffs(a, b, c, d)
        assert plane_gap(pl, pl2) < 1e-15

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_line_far_out_builds_without_a_warning(self):
        m = Line3(Point3(1e200, 2e200, 0), (0, 0, 1))
        assert m.base == Point3(1e200, 2e200, 0)
        assert m.distance_to_point(Point3(0, 0, 5)) == pytest.approx(math.sqrt(5) * 1e200)

    def test_plane_gap_matches_the_numpy_formula(self):
        # asin's slope 1 / |cos| amplifies a last-bit difference in the sine
        # of nearly perpendicular normals; elsewhere the two agree to 1e-15
        rng = np.random.default_rng(1740)
        for _ in range(10_000):
            a, b = random_plane(rng), random_plane(rng)
            cos = abs(float(a.normal_vec @ b.normal_vec))
            tol = 1e-15 + 2.0 * np.finfo(float).eps / max(cos, 1e-300)
            assert abs(plane_gap(a, b) - reference_plane_gap(a, b)) <= tol

    def test_zero_direction_rejected(self):
        with pytest.raises(DegenerateInput):
            Line3(Point3(0, 0, 0), (0, 0, 0))

    def test_plane_rebuild_is_bitwise_identical(self):
        # renormalising a normal that is already unit can move its last
        # bits; a plane rebuilt from its own normal and offset must not
        rng = np.random.default_rng(1)
        first, again = [], []
        for n, o in zip(rng.normal(size=(50000, 3)), rng.normal(scale=10.0, size=50000)):
            pl = Plane3(tuple(n), float(o))
            first.append((*pl.normal, pl.offset))
            pl2 = Plane3(pl.normal, pl.offset)
            again.append((*pl2.normal, pl2.offset))
        assert np.array(first).tobytes() == np.array(again).tobytes()

    def test_line_rebuild_is_bitwise_identical(self):
        # neither renormalising a unit direction nor re-projecting a base
        # already perpendicular to it may move a rebuilt line's last bits
        rng = np.random.default_rng(1)
        first, again = [], []
        scales = rng.choice([1e-3, 1.0, 1e3], size=50000)
        for p, d, s in zip(rng.normal(size=(50000, 3)), rng.normal(size=(50000, 3)), scales):
            ln = Line3(Point3(*(s * p)), tuple(d))
            first.append((*ln.base.xyz, *ln.dir))
            ln2 = Line3(ln.base, ln.dir)
            again.append((*ln2.base.xyz, *ln2.dir))
        assert np.array(first).tobytes() == np.array(again).tobytes()

    def test_line_base_is_projected_and_direction_normalised(self):
        ln = Line3(Point3(1.0, 2.0, 3.0), (0.0, 0.0, 2.0))
        assert ln.dir == (0.0, 0.0, 1.0)
        assert ln.base == Point3(1.0, 2.0, 0.0)
        # a base far along the direction leaves, after one projection, a
        # component at the rounding of the old base; it is projected again
        d = np.array([0.36, 0.48, 0.8])
        far = Line3(Point3(*(1e6 * d + np.array([0.8, 0.0, -0.36]))), tuple(d))
        b = far.base.xyz
        assert abs(b @ far.direction) <= 4 * np.finfo(float).eps * np.linalg.norm(b)

    def test_plane_normal_off_unit_is_renormalised(self):
        for scale in (2.0, 1.0 + 1e-9, 1.0 - 1e-12):
            pl = Plane3((0.0, 0.6 * scale, 0.8 * scale), 1.0)
            assert abs(np.linalg.norm(pl.normal) - 1.0) <= 4 * np.finfo(float).eps


def _same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestCross3:
    """cross3 gives the bits of np.cross on single 3-vectors."""

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_random_pairs(self, scale):
        rng = np.random.default_rng(int(1000 * scale) + 7)
        a = rng.normal(size=(10_000, 3)) * scale
        b = rng.normal(size=(10_000, 3)) * scale
        for x, y in zip(a, b):
            got, want = cross3(x, y), np.cross(x, y)
            assert np.array_equal(got, want) and _same_bits(got, want), (x, y)

    def test_special_vectors(self):
        rng = np.random.default_rng(8)
        v = rng.normal(size=3)
        u = v / np.linalg.norm(v)
        special = [
            np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0]), np.zeros(3),
            np.array([-0.0, 0.0, -0.0]), v, -v, 3.0 * v, u, -u, 1e-300 * u, 1e150 * u,
        ]
        for x in special:
            for y in special:
                assert _same_bits(cross3(x, y), np.cross(x, y)), (x, y)

    def test_list_tuple_and_array_inputs(self):
        a, b = [0.3, -1.7, 2.25], (1e-3, 4.0, -0.5)
        want = np.cross(np.array(a), np.array(b))
        for x in (a, tuple(a), np.array(a)):
            for y in (list(b), b, np.array(b)):
                got = cross3(x, y)
                assert _same_bits(got, want) and _same_bits(got, np.cross(x, y))


class TestRigidFrameChecks:
    """RigidFrame accepts rotations to 1e-10 and refuses everything else."""

    def test_accepts_rotations(self):
        rng = np.random.default_rng(9)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        q *= np.sign(np.linalg.det(q))
        for r in (np.eye(3), q, np.diag([1.0, 1.0, 1.0 + 1e-12])):
            frame = RigidFrame(r, np.zeros(3))
            assert np.array_equal(frame.rotation, r)

    @pytest.mark.parametrize("r, match", [
        (np.diag([1.0, 1.0, 1.0 + 1e-9]), "orthonormal"),
        (np.array([[1.0, 1e-9, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), "orthonormal"),
        (2.0 * np.eye(3), "orthonormal"),
        (np.zeros((3, 3)), "orthonormal"),
        (np.diag([1.0, 1.0, -1.0]), "determinant"),
        (-np.eye(3), "determinant"),
        (np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]), "determinant"),
    ])
    def test_refuses_non_rotations(self, r, match):
        with pytest.raises(DegenerateInput, match=match):
            RigidFrame(r, np.zeros(3))


    @pytest.mark.parametrize("r, t", [
        (np.full((3, 3), np.nan), np.zeros(3)),
        (np.diag([1.0, 1.0, np.inf]), np.zeros(3)),
        (np.eye(3), np.array([0.0, np.nan, 0.0])),
        (np.eye(3), np.array([0.0, 0.0, -np.inf])),
    ])
    def test_refuses_non_finite_entries(self, r, t):
        # refused before the checks, which NaN would pass, and without a
        # RuntimeWarning (the suite turns those into errors)
        with pytest.raises(DegenerateInput, match="finite"):
            RigidFrame(r, t)

    def test_inverse_is_the_checked_transpose(self):
        rng = np.random.default_rng(2104)
        for _ in range(200):
            frame = random_frame(rng)
            rt = frame.rotation.T
            inv, want = frame.inverse(), RigidFrame(rt, -rt @ frame.translation)
            for got, ref in ((inv.rotation, want.rotation), (inv.translation, want.translation)):
                assert _same_bits(got, ref) and got.strides == ref.strides
                assert not got.flags.writeable
            with pytest.raises(ValueError):
                inv.rotation[0, 0] = 2.0

    def test_inverse_refuses_a_translation_that_overflows(self):
        c = math.sqrt(0.5)
        turn = np.array([[c, -c, 0.0], [c, c, 0.0], [0.0, 0.0, 1.0]])
        frame = RigidFrame(turn, np.array([1.7e308, -1.7e308, 0.0]))
        with np.errstate(over="ignore"), pytest.raises(DegenerateInput, match="finite"):
            frame.inverse()


def _numpy_plane(normal, offset) -> tuple:
    """Plane3's normal and offset, flat, as np.linalg.norm's unit check and
    an array's sign canonicalisation give them."""
    n = np.asarray(normal, dtype=float)
    if not abs(float(np.linalg.norm(n)) - 1.0) <= _UNIT_SLACK:
        n = n / np.linalg.norm(n)
    s = next((1.0 if c > 0 else -1.0 for c in n if abs(c) > 1e-12), 1.0)
    n = n * s
    return float(n[0]), float(n[1]), float(n[2]), float(offset) * s


def _at_the_slack(rng, count: int) -> np.ndarray:
    """Normals whose np.linalg.norm is 1 + _UNIT_SLACK or 1 - _UNIT_SLACK
    exactly."""
    eps = np.finfo(float).eps
    found = []
    while len(found) < count:
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        for sign in (1.0, -1.0):
            for k in range(-8, 9):
                v = u * (1.0 + sign * _UNIT_SLACK + k * eps / 4)
                if abs(float(np.linalg.norm(v)) - 1.0) == _UNIT_SLACK:
                    found.append(v)
                    break
    return np.array(found)


class TestUnitCheck:
    """Plane3 decides in Python floats whether a normal is already unit, as
    np.linalg.norm would, and keeps the normal's bits exactly then."""

    def _normals(self):
        rng = np.random.default_rng(2102)
        eps = np.finfo(float).eps
        random = rng.normal(size=(20_000, 3)) * rng.choice([1e-3, 1.0, 1e3], size=(20_000, 1))
        unit = random / np.linalg.norm(random, axis=1, keepdims=True)
        near = unit * (1.0 + rng.integers(-24, 25, size=(20_000, 1)) * eps / 2)
        return {"random": random, "near-unit": near, "at-slack": _at_the_slack(rng, 400)}

    def test_same_decision_as_np_linalg_norm(self):
        for name, normals in self._normals().items():
            for n in normals:
                want = abs(float(np.linalg.norm(n)) - 1.0) <= _UNIT_SLACK
                assert _is_unit(*n.tolist()) == want, (name, n)

    def test_at_slack_set_has_both_sides(self):
        gaps = {float(np.linalg.norm(n)) - 1.0 for n in _at_the_slack(np.random.default_rng(5), 200)}
        assert gaps == {_UNIT_SLACK, -_UNIT_SLACK}

    def test_plane_bits_match_the_numpy_rule(self):
        rng = np.random.default_rng(2103)
        for name, normals in self._normals().items():
            offsets = rng.normal(scale=10.0, size=len(normals))
            for n, o in zip(normals, offsets):
                pl = Plane3(tuple(n), o)
                assert (*pl.normal, pl.offset) == _numpy_plane(n, o), (name, n)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_components_without_a_warning(self):
        # beyond about 1.3e154 a component's square overflows np.linalg.norm
        assert Plane3((1e200, 0.0, 0.0), 0.0).normal == (1.0, 0.0, 0.0)
        assert Plane3.from_coeffs(1e200, 0.0, 0.0, 1.0) == Plane3((1.0, 0.0, 0.0), -1e-200)
        half = math.sqrt(0.5)
        assert Line3(Point3(0, 0, 0), (0.0, 1e300, 1e300)).dir == pytest.approx((0.0, half, half))

    @pytest.mark.parametrize("normal", [(0.0, 0.0, 0.0), (np.nan, 0.0, 1.0), (np.inf, 0.0, 0.0),
                                        (1e-200, 0.0, 0.0)])
    def test_refuses_what_cannot_be_normalised(self, normal):
        with pytest.raises(DegenerateInput, match="plane normal"):
            Plane3(normal, 0.0)


class TestReflectPoint:
    def test_mirror_across_coordinate_plane(self):
        assert reflect_point(Z0, Point3(1, 2, 3)) == Point3(1, 2, -3)

    def test_point_on_plane_fixed(self):
        p = Point3(4, 5, 0)
        assert reflect_point(Z0, p) is p

    def test_offset_plane(self):
        assert reflect_point(Plane3((0, 0, 1), 1.0), Point3(0, 0, 0)) == Point3(0, 0, 2)

    def test_pairing_is_symmetric(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            delta, p = random_plane(rng), random_point(rng)
            q = reflect_point(delta, p)
            assert points_equal(reflect_point(delta, q), p, 1e-12)


class TestReflectLine:
    def test_parallel_line_stays_parallel(self):
        m = Line3(Point3(0, 0, 1), (1, 0, 0))
        m2 = reflect_line(Z0, m)
        assert np.allclose(m2.direction, [1, 0, 0])
        assert lines_setwise_equal(m2, Line3(Point3(0, 0, -1), (1, 0, 0)), 1e-12)

    def test_perpendicular_line_fixed_setwise(self):
        zaxis = Line3(Point3(0, 0, 0), (0, 0, 1))
        assert lines_setwise_equal(reflect_line(Z0, zaxis), zaxis, 1e-12)

    def test_contained_line_fixed(self):
        m = Line3(Point3(2, 1, 0), (1, 1, 0))
        assert lines_setwise_equal(reflect_line(Z0, m), m, 1e-12)

    def test_image_coplanar_and_span_perpendicular(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            delta, m = random_plane(rng), random_line(rng)
            m2 = reflect_line(delta, m)
            d1, d2 = m.direction, m2.direction
            w = m2.base.xyz - m.base.xyz
            assert abs(np.dot(w, np.cross(d1, d2))) < 1e-10
            span_normal = np.cross(d1, d2)
            if np.linalg.norm(span_normal) < 1e-8:
                if np.linalg.norm(w - (w @ d1) * d1) < 1e-12:
                    continue  # image equals the source line, span undefined
                span_normal = np.cross(d1, w)
            span_normal /= np.linalg.norm(span_normal)
            assert abs(span_normal @ delta.normal_vec) < 1e-10


class TestReflectPlane:
    def test_parallel_plane(self):
        assert planes_setwise_equal(
            reflect_plane(Z0, Plane3((0, 0, 1), 3.0)), Plane3((0, 0, 1), -3.0), 1e-12
        )

    def test_perpendicular_plane_fixed(self):
        x0 = Plane3((1, 0, 0), 0.0)
        assert planes_setwise_equal(reflect_plane(Z0, x0), x0, 1e-12)

    def test_mirror_itself_fixed(self):
        assert planes_setwise_equal(reflect_plane(Z0, Z0), Z0, 1e-12)


class TestBisector:
    def test_axis_pair(self):
        assert planes_setwise_equal(
            perpendicular_bisector_plane(Point3(0, 0, 0), Point3(0, 0, 2)),
            Plane3((0, 0, 1), 1.0),
            1e-15,
        )

    def test_x_pair(self):
        assert planes_setwise_equal(
            perpendicular_bisector_plane(Point3(1, 0, 0), Point3(-1, 0, 0)),
            Plane3((1, 0, 0), 0.0),
            1e-15,
        )

    def test_coincident_points_rejected(self):
        with pytest.raises(DegenerateInput):
            perpendicular_bisector_plane(Point3(1, 1, 1), Point3(1, 1, 1))

    def test_maps_first_point_to_second(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            p, q = random_point(rng), random_point(rng)
            if points_equal(p, q, 1e-6):
                continue
            delta = perpendicular_bisector_plane(p, q)
            assert points_equal(reflect_point(delta, p), q, 1e-12)


finite_coord = st.floats(min_value=-100, max_value=100, allow_nan=False)


class TestReflectionProperties:
    @given(st.tuples(finite_coord, finite_coord, finite_coord))
    @settings(max_examples=100, deadline=None)
    def test_involution_hypothesis(self, coords):
        delta = Plane3((0.6, -0.48, 0.64), 0.7)
        p = Point3(*coords)
        assert points_equal(reflect_point(delta, reflect_point(delta, p)), p, 1e-10)

    def test_involution_lines_and_planes(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            delta = random_plane(rng)
            m = random_line(rng)
            assert lines_setwise_equal(reflect_line(delta, reflect_line(delta, m)), m, 1e-10)
            pi = random_plane(rng)
            assert planes_setwise_equal(
                reflect_plane(delta, reflect_plane(delta, pi)), pi, 1e-10
            )

    def test_isometry(self):
        rng = np.random.default_rng(4)
        for _ in range(500):
            delta = random_plane(rng)
            p, q = random_point(rng), random_point(rng)
            assert abs(
                reflect_point(delta, p).distance_to(reflect_point(delta, q))
                - p.distance_to(q)
            ) < 1e-10

    def test_fixed_set_is_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            delta = random_plane(rng)
            p = random_point(rng)
            on_plane = Point3(*(p.xyz - delta.signed_distance(p) * delta.normal_vec))
            assert reflect_point(delta, on_plane) is on_plane


class TestClassify:
    def test_contained(self):
        m = Line3(Point3(0, 0, 0), (1, 0, 0))
        assert classify_line_plane(m, Z0) is LinePlaneRelation.CONTAINED

    def test_perpendicular(self):
        m = Line3(Point3(0, 0, 0), (0, 0, 1))
        assert classify_line_plane(m, Plane3((0, 0, 1), 1.0)) is LinePlaneRelation.PERPENDICULAR

    def test_oblique(self):
        theta = math.pi / 4
        m = Line3(Point3(0, 0, 0), (0, math.sin(theta), math.cos(theta)))
        assert classify_line_plane(m, Z0) is LinePlaneRelation.OBLIQUE

    def test_parallel_disjoint(self):
        m = Line3(Point3(0, 0, 2), (1, 0, 0))
        assert classify_line_plane(m, Z0) is LinePlaneRelation.PARALLEL_DISJOINT

    @pytest.mark.parametrize("h, relation", [
        (1e-9, LinePlaneRelation.PARALLEL_DISJOINT), (5e-11, LinePlaneRelation.CONTAINED)])
    def test_contained_only_within_the_separation(self, h, relation):
        m = Line3(Point3(0, 0, h), (1, 0, 0))
        assert classify_line_plane(m, Z0) is relation


def _assert_isometry(frame, pts):
    mapped = [frame.apply_point(p) for p in pts]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            assert abs(mapped[i].distance_to(mapped[j]) - pts[i].distance_to(pts[j])) < 1e-10


class TestCanonicalFrames:
    def test_point_line_canonical_config_gives_identity(self):
        p = Point3(0, 0, 1)
        m = Line3(Point3(0, 0, -1), (0, 1, 0))
        frame, a = canonical_frame_point_line(p, m)
        assert a == pytest.approx(1.0)
        assert np.allclose(frame.rotation, np.eye(3))
        assert np.allclose(frame.translation, 0.0)

    def test_point_line_places_and_preserves(self):
        p = Point3(5, 0, 0)
        m = Line3(Point3(0, 0, 0), (0, 0, 1))
        frame, a = canonical_frame_point_line(p, m)
        assert a == pytest.approx(2.5)
        q = frame.apply_point(p)
        assert np.allclose(q.xyz, [0, 0, 2.5], atol=1e-12)
        m2 = frame.apply_line(m)
        assert np.allclose(np.abs(m2.direction), [0, 1, 0], atol=1e-12)
        assert m2.distance_to_point(Point3(0, 0, -2.5)) < 1e-12
        assert frame.apply_point(p).distance_to(m2.closest_point_to(frame.apply_point(p))) == pytest.approx(5.0)
        _assert_isometry(frame, [p, m.base, m.point_at(3.0)])

    def test_point_on_line_rejected(self):
        m = Line3(Point3(0, 0, 0), (0, 0, 1))
        with pytest.raises(DegenerateInput):
            canonical_frame_point_line(Point3(0, 0, 5), m)

    def test_round_trip(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            p, m = point_off_line(rng)
            frame, _ = canonical_frame_point_line(p, m)
            inv = frame.inverse()
            q = random_point(rng)
            assert points_equal(inv.apply_point(frame.apply_point(q)), q, 1e-12)

    def test_point_plane_frame(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            p, pi = point_off_plane(rng)
            frame, a = canonical_frame_point_plane(p, pi)
            assert np.allclose(frame.apply_point(p).xyz, [0, 0, a], atol=1e-10)
            pic = frame.apply_plane(pi)
            assert planes_setwise_equal(pic, Plane3((0, 0, 1), -a), 1e-10)

    def test_line_plane_crossing_frame(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            m, pi = random_line(rng), random_plane(rng)
            rel = classify_line_plane(m, pi)
            if rel in (LinePlaneRelation.CONTAINED, LinePlaneRelation.PARALLEL_DISJOINT):
                continue
            frame, theta = canonical_frame_line_plane_crossing(m, pi)
            assert 0 <= theta < math.pi / 2 + 1e-12
            mc = frame.apply_line(m)
            assert planes_setwise_equal(frame.apply_plane(pi), Plane3((0, 0, 1), 0.0), 1e-9)
            d = mc.direction
            assert abs(abs(d[1]) - math.sin(theta)) < 1e-9
            assert abs(abs(d[2]) - math.cos(theta)) < 1e-9
            assert mc.distance_to_point(Point3(0, 0, 0)) < 1e-9

    def test_line_plane_parallel_frame(self):
        m = Line3(Point3(3, 1, 1), (0, 1, 0))
        pi = Plane3((0, 0, 1), -1.0)
        frame, a = canonical_frame_line_plane_parallel(m, pi)
        assert a == pytest.approx(1.0)
        mc = frame.apply_line(m)
        assert mc.distance_to_point(Point3(0, 0, a)) < 1e-12
        assert planes_setwise_equal(frame.apply_plane(pi), Plane3((0, 0, 1), -a), 1e-12)

    def test_skew_frame(self):
        rng = np.random.default_rng(9)
        for _ in range(60):
            m, n = skew_lines(rng)
            frame, delta, a = canonical_frame_skew_lines(m, n)
            assert abs(delta) < math.pi / 2
            mc, nc = frame.apply_line(m), frame.apply_line(n)
            assert mc.distance_to_point(Point3(0, 0, a)) < 1e-9
            assert nc.distance_to_point(Point3(0, 0, -a)) < 1e-9
            assert abs(nc.direction @ np.array([0.0, 0.0, 1.0])) < 1e-9

    def test_parallel_lines_frame(self):
        m = Line3(Point3(0, 0, 1), (0, 1, 0))
        n = Line3(Point3(0, 5, -1), (0, 1, 0))
        frame, a = canonical_frame_parallel_lines(m, n)
        assert a == pytest.approx(1.0)
        assert frame.apply_line(m).distance_to_point(Point3(0, 0, 1)) < 1e-12
        assert frame.apply_line(n).distance_to_point(Point3(0, 0, -1)) < 1e-12


class TestSeparationThreshold:
    """The separated-pair frames refuse a pair exactly when the constraint
    preconditions do: within TOL_SEPARATION."""

    @pytest.mark.parametrize("gap", [5e-10, 5e-11])
    def test_frames_and_preconditions_agree(self, gap):
        up = Point3(0, 0, gap)
        m = Line3(Point3(0, 0, 0), (0, 1, 0))
        cases = [
            (Constraint.I5, canonical_frame_point_line, (up, m)),
            (Constraint.I6, canonical_frame_point_plane, (up, Plane3((0, 0, 1), 0.0))),
            (Constraint.I3, canonical_frame_skew_lines, (m, Line3(up, (1, 0, 0)))),
            (Constraint.I3, canonical_frame_parallel_lines, (m, Line3(up, (0, 1, 0)))),
            (Constraint.I7, canonical_frame_line_plane_parallel,
             (Line3(up, (0, 1, 0)), Plane3((0, 0, 1), 0.0))),
        ]
        for make, frame_of, objs in cases:
            if gap > TOL_SEPARATION:
                make(*objs)
                assert frame_of(*objs)[-1] == pytest.approx(gap / 2.0, rel=1e-6)
            else:
                with pytest.raises(InvalidConstraint):
                    make(*objs)
                with pytest.raises(DegenerateInput):
                    frame_of(*objs)
