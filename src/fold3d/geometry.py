"""Primitive 3D objects (points, lines, planes, rigid frames) and reflection
across a plane.

Everything is an immutable value.  Lines and planes are stored canonically
(unit direction/normal with a fixed sign convention, line base at the point
closest to the origin) so that set-equal objects produced by different code
paths compare equal up to floating-point noise.  Reflected lines and planes
are compared setwise, never by parametrization.

Single 3-vectors follow one rule, in the canonical frames, RigidFrame's
checks and maps, Plane3's constructors and the line relations: a dot
product, matrix-vector product or norm whose value is returned or stored is
one NumPy call (a @ b, r @ v, or math.sqrt(v.dot(v)), which is what
np.linalg.norm computes for a 1-D vector), because BLAS rounds it
differently from a Python sum; everything else (differences, halves,
scalings, cross products, the rotation checks) is done in Python floats,
with no array round trip, to save NumPy's per-call cost.
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
_SQRT_EPS = math.sqrt(np.finfo(float).eps)  # about 1.49e-8


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
    """np.linalg.norm of a 3-vector array, math.sqrt(v.dot(v)) as it computes
    it, or math.hypot where a component beyond 1e150 would overflow the
    squares."""
    x, y, z = v.tolist()
    if max(abs(x), abs(y), abs(z)) <= 1e150:
        return math.sqrt(v.dot(v))
    return math.hypot(x, y, z)


def _unit(v: np.ndarray, what: str = "vector") -> np.ndarray:
    n = _norm3(v)
    if not math.isfinite(n) or n < 1e-300:
        raise DegenerateInput(f"{what} must be nonzero and finite")
    return np.array([x / n for x in v.tolist()])


def _is_unit(x: float, y: float, z: float) -> bool:
    """abs(np.linalg.norm((x, y, z)) - 1) <= _UNIT_SLACK, decided in Python
    floats unless the norm is within _NORM_DRIFT of that bound."""
    gap = abs(math.sqrt(x * x + y * y + z * z) - 1.0)
    if abs(gap - _UNIT_SLACK) > _NORM_DRIFT:
        return gap <= _UNIT_SLACK
    return abs(_norm3(np.array((x, y, z))) - 1.0) <= _UNIT_SLACK


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

    @property
    def coords(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)

    def distance_to(self, other: Point3) -> float:
        """|self - other|, the difference taken in Python floats so a far pair
        gives a large or infinite distance without a NumPy overflow warning."""
        return _norm3(np.array((self.x - other.x, self.y - other.y, self.z - other.z)))


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
        if not _is_unit(*d.tolist()):
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
        (bx, by, bz), (dx, dy, dz) = self.base.coords, self.dir
        return Point3(bx + t * dx, by + t * dy, bz + t * dz)

    def _along(self, p: Point3) -> tuple[float, tuple[float, float, float]]:
        """(t, v): v = p - base and its part t = v . d along the line."""
        (px, py, pz), (bx, by, bz) = p.coords, self.base.coords
        v = (px - bx, py - by, pz - bz)
        return float(np.array(v) @ self.direction), v

    def closest_point_to(self, p: Point3) -> Point3:
        return self.point_at(self._along(p)[0])

    def distance_to_point(self, p: Point3) -> float:
        t, (vx, vy, vz) = self._along(p)
        dx, dy, dz = self.dir
        return math.hypot(vx - t * dx, vy - t * dy, vz - t * dz)

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
        return cls(n.tolist(), float(n @ p))

    @classmethod
    def from_coeffs(cls, a: float, b: float, c: float, d: float) -> Plane3:
        """Plane of the equation a x + b y + c z + d = 0."""
        n = _vec((a, b, c))
        norm = _norm3(n)
        if norm < 1e-300:
            raise DegenerateInput("plane coefficients (a, b, c) must not all vanish")
        return cls([x / norm for x in n.tolist()], -d / norm)

    def coeffs(self) -> tuple[float, float, float, float]:
        """Coefficients (a, b, c, d) with a x + b y + c z + d = 0."""
        return (*self.normal, -self.offset)

    @property
    def normal_vec(self) -> np.ndarray:
        return np.array(self.normal)

    @property
    def foot(self) -> Point3:
        """Point of the plane closest to the origin."""
        o, (x, y, z) = self.offset, self.normal
        return Point3(o * x, o * y, o * z)

    def signed_distance(self, p: Point3) -> float:
        return float(self.normal_vec @ p.xyz) - self.offset

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
        (a, b, c), (d, e, f), (g, h, i) = self._store(self.rotation, self.translation)
        # r r^T - I and det r - 1, in Python floats
        if max(abs(a * a + b * b + c * c - 1.0), abs(d * d + e * e + f * f - 1.0),
               abs(g * g + h * h + i * i - 1.0), abs(a * d + b * e + c * f),
               abs(a * g + b * h + c * i), abs(d * g + e * h + f * i)) > 1e-10:
            raise DegenerateInput("rotation must be orthonormal")
        if abs(a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g) - 1.0) > 1e-10:
            raise DegenerateInput("rotation must have determinant +1")

    def _store(self, rotation, translation) -> list[list[float]]:
        """Keep read-only copies of a finite rotation and translation (and its
        floats); return the rotation's rows."""
        r = np.array(rotation, dtype=float)
        t = np.array(translation, dtype=float)
        if r.shape != (3, 3) or t.shape != (3,):
            raise DegenerateInput("rigid frame needs a 3x3 rotation and a 3-vector")
        rows, shift = r.tolist(), t.tolist()
        if not all(map(math.isfinite, rows[0] + rows[1] + rows[2] + shift)):
            raise DegenerateInput("rigid frame needs finite rotation and translation entries")
        r.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)
        object.__setattr__(self, "_shift", shift)
        return rows

    @classmethod
    def from_axes(cls, e1, e2, e3, center) -> RigidFrame:
        """Frame mapping `center` to the origin and e1/e2/e3 to x/y/z."""
        r = np.array((_vec(e1), _vec(e2), _vec(e3)))
        c = center.xyz if isinstance(center, Point3) else _vec(center)
        return cls(r, -r @ c)

    def apply_xyz(self, pts: np.ndarray) -> np.ndarray:
        """Apply to an (..., 3) array of coordinates."""
        return pts @ self.rotation.T + self.translation

    def apply_point(self, p: Point3) -> Point3:
        (x, y, z), (tx, ty, tz) = (self.rotation @ p.xyz).tolist(), self._shift
        return Point3(x + tx, y + ty, z + tz)

    def apply_line(self, m: Line3) -> Line3:
        return Line3(self.apply_point(m.base), (self.rotation @ m.direction).tolist())

    def apply_plane(self, pi: Plane3) -> Plane3:
        n = self.rotation @ pi.normal_vec
        return Plane3(n.tolist(), pi.offset + float(n @ self.translation))

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
    (px, py, pz), (qx, qy, qz) = p.coords, q.coords
    d = np.array((qx - px, qy - py, qz - pz))
    if _norm3(d) <= tol:
        raise DegenerateInput(
            "coincident points have no perpendicular bisector plane; "
            "a point fixed by the fold is an I8 constraint"
        )
    n = _unit(d)
    mid = np.array(((px + qx) / 2.0, (py + qy) / 2.0, (pz + qz) / 2.0))
    return Plane3(n.tolist(), float(n @ mid))


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
    if _norm3(cross3(n, d)) <= TOL_ANGLE:
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
    (ax, ay, az), (bx, by, bz) = m.base.coords, n.base.coords
    w = np.array((bx - ax, by - ay, bz - az))
    cr = cross3(d1, d2)
    if _norm3(cr) <= TOL_ANGLE:
        s = float(w @ d1)
        perp = np.array([x - s * d for x, d in zip(w.tolist(), m.dir)])
        px, py, pz = perp.tolist()
        return m.base, Point3(ax + px, ay + py, az + pz), _norm3(perp), True
    b = float(d1 @ d2)
    denom = 1.0 - b * b
    if denom < _SQRT_EPS:
        # 1 - b^2 has kept less than half its digits (none, 0, for lines less
        # than about 1.5e-8 apart in direction); |d1 x d2|^2 is the same
        # number without that cancellation
        denom = float(cr @ cr)
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
    if _norm3(cross3(m.direction, n.direction)) > tol:
        return False
    return m.distance_to_point(n.base) <= tol


# Planes within this plane_gap are one plane, in a solution and in a search.
TOL_PLANE_IDENTITY = 1e-6


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
    v = _unit(_vec(v)).tolist()
    u = cross3((0.0, 1.0, 0.0), v)
    if _norm3(u) < 1e-6:
        u = cross3((0.0, 0.0, 1.0), v)
    x, y, z = _unit(u).tolist()
    s = _canonical_sign((x, y, z))
    return np.array((x * s, y * s, z * s))


# ---------------------------------------------------------------------------
# Canonical frames
#
# Each frame maps scene coordinates to the canonical placement in which the
# closed-form plane families and their envelopes are written: the separated
# pair sits symmetrically about the origin on the z-axis, with half-gap `a`.
# ---------------------------------------------------------------------------


def _pair_frame(top, bottom, e2) -> tuple[RigidFrame, float]:
    """Frame placing top at (0, 0, a) and bottom at (0, 0, -a) (float
    3-tuples) with the unit array e2, perpendicular to top - bottom, along
    +y; returns it and the half-gap a.  Each caller refuses a pair within
    TOL_SEPARATION by its constraint's own distance test, so a pair the
    constraint accepts gets its frame, unless top - bottom rounds to zero (a
    pair a few 1e-9 apart at 1e8 from the origin): then DegenerateInput."""
    (tx, ty, tz), (bx, by, bz), (ex, ey, ez) = top, bottom, e2.tolist()
    gx, gy, gz = tx - bx, ty - by, tz - bz
    # the rounding of top - bottom leaves a part along e2 of about 1e-16 |top|,
    # which tilts e3 off e2 by more than RigidFrame allows when the pair is close
    s = float(np.array((gx, gy, gz)) @ e2)
    gap = np.array((gx - s * ex, gy - s * ey, gz - s * ez))
    dist = math.sqrt(gap.dot(gap))
    if dist == 0.0:
        raise DegenerateInput("the pair's gap rounds to zero this far from the origin")
    e3 = [x / dist for x in gap.tolist()]
    center = ((tx + bx) / 2.0, (ty + by) / 2.0, (tz + bz) / 2.0)
    return RigidFrame.from_axes(cross3(e2, e3), e2, e3, center), dist / 2.0


def _axis_frame(axis, center) -> RigidFrame:
    """Frame taking center to the origin and the unit axis to +z."""
    u = perp_unit(axis)
    return RigidFrame.from_axes(u, cross3(axis, u), axis, center)


def canonical_frame_point_line(p: Point3, m: Line3) -> tuple[RigidFrame, float]:
    """Frame placing p at (0, 0, a) and m through (0, 0, -a) along +y.

    Returns the frame and the half-gap a = dist(p, m) / 2.
    """
    # the I5 precondition's test, as Line3.distance_to_point takes it
    t, (vx, vy, vz) = m._along(p)
    (bx, by, bz), (dx, dy, dz) = m.base.coords, m.dir
    if math.hypot(vx - t * dx, vy - t * dy, vz - t * dz) <= TOL_SEPARATION:
        raise DegenerateInput(
            "point lies on the line; use the fixed-point (I8) or "
            "line-to-itself (I9) constraints instead"
        )
    return _pair_frame(p.coords, (bx + t * dx, by + t * dy, bz + t * dz), m.direction)


def canonical_frame_point_plane(p: Point3, pi: Plane3) -> tuple[RigidFrame, float]:
    """Frame placing p at (0, 0, a) and pi onto the plane z = -a."""
    s = pi.signed_distance(p)
    if abs(s) <= TOL_SEPARATION:
        raise DegenerateInput(
            "point lies on the plane; use the fixed-point (I8) or "
            "plane-to-itself (I11) constraints instead"
        )
    n, k = pi.normal, 1.0 if s > 0 else -1.0
    center = [(x + (x - s * u)) / 2.0 for x, u in zip(p.coords, n)]  # p and its foot
    return _axis_frame(np.array([u * k for u in n]), center), abs(s) / 2.0


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
    e3 = pi.normal
    c = float(m.direction @ pi.normal_vec)
    k = 1.0 if c >= 0 else -1.0  # the line's direction taken towards +e3
    cos_t = abs(c)
    in_plane = np.array([k * d - cos_t * n for d, n in zip(m.dir, e3)])
    sin_t = _norm3(in_plane)
    e2 = perp_unit(e3) if sin_t <= TOL_ANGLE else [x / sin_t for x in in_plane.tolist()]
    theta = math.atan2(sin_t, cos_t)
    return RigidFrame.from_axes(cross3(e2, e3), e2, e3, origin), theta


def canonical_frame_line_plane_parallel(m: Line3, pi: Plane3) -> tuple[RigidFrame, float]:
    """Frame for a line parallel to (and off) a plane: line through (0, 0, a)
    along +y, plane onto z = -a."""
    # a contained line is refused here, as by the I7 precondition
    if classify_line_plane(m, pi) is not LinePlaneRelation.PARALLEL_DISJOINT:
        raise DegenerateInput("line must be strictly parallel to the plane")
    s, (bx, by, bz), (nx, ny, nz) = pi.signed_distance(m.base), m.base.coords, pi.normal
    return _pair_frame(m.base.coords, (bx - s * nx, by - s * ny, bz - s * nz), m.direction)


def canonical_frame_skew_lines(m: Line3, n: Line3) -> tuple[RigidFrame, float, float]:
    """Frame for skew lines: common perpendicular on the z-axis, m through
    (0, 0, a) along +y, n through (0, 0, -a) in the z = -a plane at angle
    delta from +x (|delta| < pi/2).

    Returns the frame, delta, and the half-gap a.
    """
    closest = line_line_closest(m, n)
    if closest[3]:
        raise DegenerateInput("lines are parallel; no skew frame")
    return _line_pair_frame(m, n, closest)


def canonical_frame_parallel_lines(m: Line3, n: Line3) -> tuple[RigidFrame, float]:
    """Frame for distinct parallel lines: both along +y in the x = 0 plane,
    m at z = a and n at z = -a."""
    closest = line_line_closest(m, n)
    if not closest[3]:
        raise DegenerateInput("lines are not parallel")
    return _line_pair_frame(m, n, closest)[::2]  # the frame and a, without delta


def _line_pair_frame(m: Line3, n: Line3, closest: tuple) -> tuple[RigidFrame, float | None, float]:
    """canonical_frame_skew_lines of m and n, or for parallel lines
    canonical_frame_parallel_lines with delta None, from line_line_closest."""
    pm, pn, dist, parallel = closest
    if dist <= TOL_SEPARATION:  # the I3 precondition
        raise DegenerateInput("lines coincide; no parallel-pair frame" if parallel
                              else "lines intersect; no skew frame")
    frame, a = _pair_frame(pm.coords, pn.coords, m.direction)
    if parallel:
        return frame, None, a
    dn = n.direction  # taken with x >= 0, so that |delta| <= pi/2
    x, y = float(dn @ frame.rotation[0]), float(dn @ frame.rotation[1])
    delta = math.atan2(y, x) if x >= 0 else math.atan2(-y, -x)
    return frame, delta, a
