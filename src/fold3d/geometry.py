"""Primitive 3D objects (points, lines, planes, rigid frames) and reflection
across a plane.

Everything is an immutable value.  Lines and planes are stored canonically
(unit direction/normal with a fixed sign convention, line base at the point
closest to the origin) so that set-equal objects produced by different code
paths compare equal up to floating-point noise.  Reflected lines and planes
are compared setwise, never by parametrization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateInput

# Default absolute tolerances: one for incidence residuals (lengths and
# radians at desk scale), one for algebraic identities such as unit norms
# and involution round-trips.
TOL_INCIDENCE = 1e-9
TOL_ALGEBRAIC = 1e-12
# Largest |sin| or |cos| of the angle between unit vectors that counts as
# parallel or perpendicular in the line/plane relations and frames below.
TOL_ANGLE = 1e-10
# Smallest separation of the two objects of a pair: the constraint
# preconditions and the separated-pair frames below refuse any closer pair.
TOL_SEPARATION = 1e-10

_SIGN_EPS = 1e-12

# A normal or line direction whose norm is this close to 1 is not renormalised.
_UNIT_SLACK = 4.0 * np.finfo(float).eps
# Near 1, norms from squares summed in Python floats and by np.linalg.norm
# (a BLAS dot, which fuses multiply-adds) are at most 2.25 eps apart.
_NORM_DRIFT = 2.5 * np.finfo(float).eps
_EYE3 = np.eye(3)


def _vec(v) -> np.ndarray:
    a = np.asarray(v, dtype=float)
    if a.shape != (3,):
        raise DegenerateInput(f"expected a 3-vector, got shape {a.shape}")
    return a


def cross3(a, b) -> np.ndarray:
    """a x b of two 3-vectors with np.cross's products and differences, so
    the same bits, in Python floats instead of its per-call array handling."""
    a0, a1, a2 = a.tolist() if isinstance(a, np.ndarray) else a
    b0, b1, b2 = b.tolist() if isinstance(b, np.ndarray) else b
    return np.array((a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0))


def _norm3(v: np.ndarray) -> float:
    """np.linalg.norm of a 3-vector, or math.hypot where a component beyond
    1e150 would overflow np.linalg.norm's squares."""
    x, y, z = v.tolist()
    if max(abs(x), abs(y), abs(z)) <= 1e150:
        return float(np.linalg.norm(v))
    return math.hypot(x, y, z)


def _unit(v: np.ndarray, what: str = "vector") -> np.ndarray:
    n = _norm3(v)
    if not math.isfinite(n) or n < 1e-300:
        raise DegenerateInput(f"{what} must be nonzero and finite")
    return v / n


def _is_unit(x: float, y: float, z: float) -> bool:
    """abs(np.linalg.norm((x, y, z)) - 1) <= _UNIT_SLACK, decided in Python
    floats unless the norm is within _NORM_DRIFT of that bound."""
    gap = abs(math.sqrt(x * x + y * y + z * z) - 1.0)
    if abs(gap - _UNIT_SLACK) > _NORM_DRIFT:
        return gap <= _UNIT_SLACK
    return abs(float(np.linalg.norm((x, y, z))) - 1.0) <= _UNIT_SLACK


def _canonical_sign(v) -> float:
    """Sign that makes the first component with |x| > eps positive."""
    for c in v:
        if abs(c) > _SIGN_EPS:
            return 1.0 if c > 0 else -1.0
    return 1.0


@dataclass(frozen=True, slots=True)
class Point3:
    """A position in 3D Euclidean space."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        for name in ("x", "y", "z"):
            c = float(getattr(self, name))
            if not math.isfinite(c):
                raise DegenerateInput("point coordinates must be finite")
            object.__setattr__(self, name, c)

    @property
    def xyz(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    def distance_to(self, other: Point3) -> float:
        return float(np.linalg.norm(self.xyz - other.xyz))


@dataclass(frozen=True, slots=True)
class Line3:
    """A line stored as unit direction plus the point closest to the origin.

    The direction sign follows the first-nonzero-positive convention, so two
    constructions of the same line agree up to floating-point noise.
    """

    base: Point3
    dir: tuple[float, float, float]

    def __post_init__(self):
        # a unit direction and a base perpendicular to it are kept as given;
        # one projection of a base far along d can leave b . d above rounding
        d = np.asarray(self.dir, dtype=float)
        if not abs(_norm3(d) - 1.0) <= _UNIT_SLACK:
            d = _unit(d, "line direction")
        d = d * _canonical_sign(d)
        b = self.base.xyz if isinstance(self.base, Point3) else _vec(self.base)
        for _ in range(3):
            if abs(b @ d) <= _UNIT_SLACK * math.hypot(*b):
                break
            b = b - (b @ d) * d
        object.__setattr__(self, "base", Point3(*b))
        object.__setattr__(self, "dir", (float(d[0]), float(d[1]), float(d[2])))

    @property
    def direction(self) -> np.ndarray:
        return np.array(self.dir)

    def point_at(self, t: float) -> Point3:
        return Point3(*(self.base.xyz + t * self.direction))

    def closest_point_to(self, p: Point3) -> Point3:
        d = self.direction
        v = p.xyz - self.base.xyz
        return Point3(*(self.base.xyz + (v @ d) * d))

    def distance_to_point(self, p: Point3) -> float:
        d = self.direction
        v = p.xyz - self.base.xyz
        return math.hypot(*(v - (v @ d) * d))

    def contains_point(self, p: Point3, tol: float = TOL_INCIDENCE) -> bool:
        return self.distance_to_point(p) <= tol


@dataclass(frozen=True, slots=True)
class Plane3:
    """A plane { x : normal . x = offset } with unit, sign-canonical normal."""

    normal: tuple[float, float, float]
    offset: float

    def __post_init__(self):
        # a normal already unit to rounding is kept as given, so a plane
        # rebuilt from its own normal and offset is the same bit for bit
        x, y, z = map(float, self.normal)
        if not _is_unit(x, y, z):
            x, y, z = _unit(np.array((x, y, z)), "plane normal").tolist()
        offset = float(self.offset)
        if not math.isfinite(offset):
            raise DegenerateInput("plane offset must be finite")
        s = _canonical_sign((x, y, z))
        object.__setattr__(self, "normal", (x * s, y * s, z * s))
        object.__setattr__(self, "offset", offset * s)

    @classmethod
    def from_point_normal(cls, point, normal) -> Plane3:
        n = _unit(_vec(normal), "plane normal")
        p = point.xyz if isinstance(point, Point3) else _vec(point)
        return cls(tuple(n), float(n @ p))

    @classmethod
    def from_coeffs(cls, a: float, b: float, c: float, d: float) -> Plane3:
        """Plane of the equation a x + b y + c z + d = 0."""
        n = _vec((a, b, c))
        norm = _norm3(n)
        if norm < 1e-300:
            raise DegenerateInput("plane coefficients (a, b, c) must not all vanish")
        return cls(tuple(n / norm), -d / norm)

    def coeffs(self) -> tuple[float, float, float, float]:
        """Coefficients (a, b, c, d) with a x + b y + c z + d = 0."""
        return (*self.normal, -self.offset)

    @property
    def normal_vec(self) -> np.ndarray:
        return np.array(self.normal)

    @property
    def foot(self) -> Point3:
        """Point of the plane closest to the origin."""
        return Point3(*(self.offset * self.normal_vec))

    def signed_distance(self, p: Point3) -> float:
        return float(self.normal_vec @ p.xyz - self.offset)

    def distance(self, p: Point3) -> float:
        return abs(self.signed_distance(p))

    def contains_point(self, p: Point3, tol: float = TOL_INCIDENCE) -> bool:
        return self.distance(p) <= tol


@dataclass(frozen=True, eq=False)
class RigidFrame:
    """Orientation-preserving isometry x -> rotation @ x + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = self._store(self.rotation, self.translation)
        if np.abs(r @ r.T - _EYE3).max() > 1e-10:
            raise DegenerateInput("rotation must be orthonormal")
        if abs(np.linalg.det(r) - 1.0) > 1e-10:
            raise DegenerateInput("rotation must have determinant +1")

    def _store(self, rotation, translation) -> np.ndarray:
        """Keep read-only copies of a finite rotation and translation."""
        r = np.array(rotation, dtype=float)
        t = np.array(translation, dtype=float)
        if r.shape != (3, 3) or t.shape != (3,):
            raise DegenerateInput("rigid frame needs a 3x3 rotation and a 3-vector")
        if not all(map(math.isfinite, r.ravel().tolist() + t.tolist())):
            raise DegenerateInput("rigid frame needs finite rotation and translation entries")
        r.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)
        return r

    @classmethod
    def from_axes(cls, e1, e2, e3, center) -> RigidFrame:
        """Frame mapping `center` to the origin and e1/e2/e3 to x/y/z."""
        r = np.vstack([_vec(e1), _vec(e2), _vec(e3)])
        c = center.xyz if isinstance(center, Point3) else _vec(center)
        return cls(r, -r @ c)

    def apply_xyz(self, pts: np.ndarray) -> np.ndarray:
        """Apply to an (..., 3) array of coordinates."""
        return pts @ self.rotation.T + self.translation

    def apply_point(self, p: Point3) -> Point3:
        return Point3(*(self.rotation @ p.xyz + self.translation))

    def apply_line(self, m: Line3) -> Line3:
        return Line3(self.apply_point(m.base), tuple(self.rotation @ m.direction))

    def apply_plane(self, pi: Plane3) -> Plane3:
        n = self.rotation @ pi.normal_vec
        return Plane3(tuple(n), pi.offset + float(n @ self.translation))

    def inverse(self) -> RigidFrame:
        """The inverse frame.  The transpose of a checked rotation is
        orthonormal with determinant +1, so only finiteness is checked."""
        rt = self.rotation.T
        inv = object.__new__(RigidFrame)
        inv._store(rt, -rt @ self.translation)
        return inv


class LinePlaneRelation(Enum):
    CONTAINED = "contained"
    PARALLEL_DISJOINT = "parallel-disjoint"
    PERPENDICULAR = "perpendicular"
    OBLIQUE = "oblique"


# ---------------------------------------------------------------------------
# Reflection across a plane
# ---------------------------------------------------------------------------


def reflect_point(delta: Plane3, p: Point3) -> Point3:
    """Mirror image of p across delta; p itself when p lies on delta (within
    TOL_ALGEBRAIC)."""
    s = delta.signed_distance(p)
    if abs(s) <= TOL_ALGEBRAIC:
        return p
    return Point3(*(p.xyz - 2.0 * s * delta.normal_vec))


def reflect_line(delta: Plane3, m: Line3) -> Line3:
    """Setwise mirror image of line m across delta."""
    n = delta.normal_vec
    d = m.direction
    d2 = d - 2.0 * (n @ d) * n
    return Line3(reflect_point(delta, m.base), tuple(d2))


def reflect_plane(delta: Plane3, pi: Plane3) -> Plane3:
    """Setwise mirror image of plane pi across delta."""
    n = delta.normal_vec
    npi = pi.normal_vec
    n2 = npi - 2.0 * (n @ npi) * n
    p2 = reflect_point(delta, pi.foot)
    return Plane3(tuple(n2), float(n2 @ p2.xyz))


def perpendicular_bisector_plane(p: Point3, q: Point3, tol: float = TOL_INCIDENCE) -> Plane3:
    """The unique plane reflecting p onto q (and q onto p)."""
    d = q.xyz - p.xyz
    if np.linalg.norm(d) <= tol:
        raise DegenerateInput(
            "coincident points have no perpendicular bisector plane; "
            "a point fixed by the fold is an I8 constraint"
        )
    n = _unit(d)
    mid = (p.xyz + q.xyz) / 2.0
    return Plane3(tuple(n), float(n @ mid))


def classify_line_plane(m: Line3, pi: Plane3) -> LinePlaneRelation:
    """Exactly one of contained / parallel-disjoint / perpendicular / oblique,
    to TOL_ANGLE, and contained only within TOL_SEPARATION of the plane."""
    n = pi.normal_vec
    d = m.direction
    s = float(n @ d)
    if abs(s) <= TOL_ANGLE:
        if pi.distance(m.base) <= TOL_SEPARATION:
            return LinePlaneRelation.CONTAINED
        return LinePlaneRelation.PARALLEL_DISJOINT
    if np.linalg.norm(cross3(n, d)) <= TOL_ANGLE:
        return LinePlaneRelation.PERPENDICULAR
    return LinePlaneRelation.OBLIQUE


def line_plane_intersection(m: Line3, pi: Plane3) -> Point3 | None:
    """Intersection point, or None when the line is parallel to the plane."""
    denom = float(pi.normal_vec @ m.direction)
    if abs(denom) <= TOL_ANGLE:
        return None
    t = (pi.offset - float(pi.normal_vec @ m.base.xyz)) / denom
    return m.point_at(t)


def line_line_closest(m: Line3, n: Line3) -> tuple[Point3, Point3, float, bool]:
    """Closest points (one per line), their distance, and a parallel flag."""
    d1, d2 = m.direction, n.direction
    w = n.base.xyz - m.base.xyz
    if np.linalg.norm(cross3(d1, d2)) <= TOL_ANGLE:
        perp = w - (w @ d1) * d1
        return m.base, Point3(*(m.base.xyz + perp)), float(np.linalg.norm(perp)), True
    b = float(d1 @ d2)
    denom = 1.0 - b * b
    t2 = (b * float(w @ d1) - float(w @ d2)) / denom
    t1 = float(w @ d1) + b * t2
    p1 = m.point_at(t1)
    p2 = n.point_at(t2)
    return p1, p2, p1.distance_to(p2), False


# ---------------------------------------------------------------------------
# Approximate equality
# ---------------------------------------------------------------------------


def points_equal(p: Point3, q: Point3, tol: float = TOL_INCIDENCE) -> bool:
    return p.distance_to(q) <= tol


def lines_setwise_equal(m: Line3, n: Line3, tol: float = TOL_INCIDENCE) -> bool:
    if np.linalg.norm(cross3(m.direction, n.direction)) > tol:
        return False
    return m.distance_to_point(n.base) <= tol


def plane_gap(a: Plane3, b: Plane3) -> float:
    """Sign-insensitive metric: normal angle (radians) plus offset difference."""
    (ax, ay, az), (bx, by, bz) = a.normal, b.normal
    s = 1.0 if ax * bx + ay * by + az * bz >= 0 else -1.0
    sine = math.hypot(ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx)
    return math.asin(min(1.0, sine)) + abs(a.offset - s * b.offset)


def planes_setwise_equal(a: Plane3, b: Plane3, tol: float = TOL_INCIDENCE) -> bool:
    return plane_gap(a, b) <= tol


def perp_unit(v) -> np.ndarray:
    """Deterministic unit vector perpendicular to v."""
    v = _unit(_vec(v))
    u = cross3((0.0, 1.0, 0.0), v)
    if np.linalg.norm(u) < 1e-6:
        u = cross3((0.0, 0.0, 1.0), v)
    u = _unit(u)
    return u * _canonical_sign(u)


# ---------------------------------------------------------------------------
# Canonical frames
#
# Each frame maps scene coordinates to the canonical placement in which the
# closed-form plane families and their envelopes are written: the separated
# pair sits symmetrically about the origin on the z-axis, with half-gap `a`.
# ---------------------------------------------------------------------------


def _pair_frame(top, bottom, e2, refuse: str) -> tuple[RigidFrame, float]:
    """Frame placing top at (0, 0, a) and bottom at (0, 0, -a) with the unit
    e2, perpendicular to top - bottom, along +y; returns it and the half-gap
    a.  DegenerateInput(refuse) when the points are within TOL_SEPARATION."""
    gap = top - bottom
    # the rounding of top - bottom leaves a part along e2 of about 1e-16 |top|,
    # which tilts e3 off e2 by more than RigidFrame allows when the pair is close
    gap = gap - (gap @ e2) * e2
    dist = float(np.linalg.norm(gap))
    if dist <= TOL_SEPARATION:
        raise DegenerateInput(refuse)
    e3 = gap / dist
    return RigidFrame.from_axes(cross3(e2, e3), e2, e3, (top + bottom) / 2.0), dist / 2.0


def _axis_frame(axis, center) -> RigidFrame:
    """Frame taking center to the origin and the unit axis to +z."""
    u = perp_unit(axis)
    return RigidFrame.from_axes(u, cross3(axis, u), axis, center)


def canonical_frame_point_line(p: Point3, m: Line3) -> tuple[RigidFrame, float]:
    """Frame placing p at (0, 0, a) and m through (0, 0, -a) along +y.

    Returns the frame and the half-gap a = dist(p, m) / 2.
    """
    return _pair_frame(
        p.xyz, m.closest_point_to(p).xyz, m.direction,
        "point lies on the line; use the fixed-point (I8) or "
        "line-to-itself (I9) constraints instead",
    )


def canonical_frame_point_plane(p: Point3, pi: Plane3) -> tuple[RigidFrame, float]:
    """Frame placing p at (0, 0, a) and pi onto the plane z = -a."""
    s = pi.signed_distance(p)
    if abs(s) <= TOL_SEPARATION:
        raise DegenerateInput(
            "point lies on the plane; use the fixed-point (I8) or "
            "plane-to-itself (I11) constraints instead"
        )
    n = pi.normal_vec
    foot = p.xyz - s * n
    return _axis_frame(n * (1.0 if s > 0 else -1.0), (p.xyz + foot) / 2.0), abs(s) / 2.0


def canonical_frame_line_plane_crossing(m: Line3, pi: Plane3) -> tuple[RigidFrame, float]:
    """Frame for a line crossing a plane: intersection at the origin, the
    plane onto z = 0, the line into the yz-plane at angle theta from +z.

    Returns the frame and theta in [0, pi/2).
    """
    rel = classify_line_plane(m, pi)
    if rel is LinePlaneRelation.CONTAINED:
        raise DegenerateInput(
            "line lies in the plane; use the line-to-itself (I10) or "
            "plane-to-itself (I11) constraints instead"
        )
    if rel is LinePlaneRelation.PARALLEL_DISJOINT:
        raise DegenerateInput("line is parallel to the plane; no crossing frame")
    origin = line_plane_intersection(m, pi)
    d = m.direction
    n = pi.normal_vec
    c = float(d @ n)
    dm = d if c >= 0 else -d
    cos_t = abs(c)
    e3 = n
    in_plane = dm - cos_t * e3
    sin_t = float(np.linalg.norm(in_plane))
    if sin_t <= TOL_ANGLE:
        e2 = perp_unit(e3)
    else:
        e2 = in_plane / sin_t
    e1 = cross3(e2, e3)
    theta = math.atan2(sin_t, cos_t)
    return RigidFrame.from_axes(e1, e2, e3, origin), theta


def canonical_frame_line_plane_parallel(m: Line3, pi: Plane3) -> tuple[RigidFrame, float]:
    """Frame for a line parallel to (and off) a plane: line through (0, 0, a)
    along +y, plane onto z = -a."""
    refuse = "line must be strictly parallel to the plane"
    if classify_line_plane(m, pi) is not LinePlaneRelation.PARALLEL_DISJOINT:
        raise DegenerateInput(refuse)
    foot = m.base.xyz - pi.signed_distance(m.base) * pi.normal_vec
    return _pair_frame(m.base.xyz, foot, m.direction, refuse)


def canonical_frame_skew_lines(m: Line3, n: Line3) -> tuple[RigidFrame, float, float]:
    """Frame for skew lines: common perpendicular on the z-axis, m through
    (0, 0, a) along +y, n through (0, 0, -a) in the z = -a plane at angle
    delta from +x (|delta| < pi/2).

    Returns the frame, delta, and the half-gap a.
    """
    pm, pn, _, parallel = line_line_closest(m, n)
    if parallel:
        raise DegenerateInput("lines are parallel; no skew frame")
    frame, a = _pair_frame(pm.xyz, pn.xyz, m.direction, "lines intersect; no skew frame")
    dn = n.direction  # taken with x >= 0, so that |delta| <= pi/2
    x, y = float(dn @ frame.rotation[0]), float(dn @ frame.rotation[1])
    delta = math.atan2(y, x) if x >= 0 else math.atan2(-y, -x)
    return frame, delta, a


def canonical_frame_parallel_lines(m: Line3, n: Line3) -> tuple[RigidFrame, float]:
    """Frame for distinct parallel lines: both along +y in the x = 0 plane,
    m at z = a and n at z = -a."""
    pm, pn, _, parallel = line_line_closest(m, n)
    if not parallel:
        raise DegenerateInput("lines are not parallel")
    return _pair_frame(pm.xyz, pn.xyz, m.direction, "lines coincide; no parallel-pair frame")
