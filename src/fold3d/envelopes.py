"""Parameterized fold-plane families of the infinite incidence kinds (I3,
I5, I6, I7 and I8..I11) and the envelope quadrics of the tangency ones.

Each family kind is one row of the ``_FAMILIES`` table: its parameter
names and ranges, its raw canonical plane equation A x + B y + C z = D and,
for a tangency kind, its pair of objects in the canonical frame, where they
sit symmetrically about the origin on the z-axis with half-gap ``a`` (a
line crossing a plane is anchored at the crossing point instead).  A member
h = (A, B, C, D) lies on that pair's dual locus in ``constraints._KINDS``,
and projective duality (Richter-Gebert, *Perspectives on Projective
Geometry*, ch. 9-11) gives the envelope: with D = diag(1, 1, 1, -1), a dual
quadric Q' of full rank envelops D adj(Q') D, and a conic (Q' on the null
space, with basis B, of a linear form) the cone or cylinder
D B adj(B^T Q' B) B^T D; a member u touches it at the pole P Q' P u, P the
projector onto that null space.  Scaled negative at p, or at b + e on m:

* I5, p = (0, 0, a), m through (0, 0, -a) along +y: planes 2ty - 4az = t^2,
  envelope the parabolic cylinder y^2 = 4az;
* I6, p = (0, 0, a), pi: z = -a: planes 2sx + 2ty - 4az = s^2 + t^2,
  envelope the paraboloid of revolution x^2 + y^2 = 4az;
* I3, m through (0, 0, a) along +y, n through (0, 0, -a) along (cos(d),
  sin(d), 0): planes sx cos(d) + y(s sin(d) - t) - 2az = (s^2 - t^2)/2,
  envelope the hyperbolic paraboloid x^2 cos^2(d) + 2xy sin(d)cos(d) -
  y^2 cos^2(d) = 4az; parallel lines give y(t - s) + 2az = (t^2 - s^2)/2,
  with one degenerate direction and no envelope;
* I7, pi: z = 0, m through 0 along (0, sin(th), cos(th)): planes x cos(d) +
  y(sin(d) - sin(th)) - z cos(th) = 0, envelope the elliptical cone x^2 +
  y^2 cos^2(th) - 2yz sin(th)cos(th) - z^2 cos^2(th) = 0, whose poles are at
  infinity (a contact is the unit ruling direction with z >= 0); m through
  (0, 0, a) along +y, parallel to pi: z = -a, gives 2kx - 4az = k^2 and
  the parabolic cylinder x^2 = 4az.

The single-object kinds have no envelope.  Their frames put the point, or
the line's base point, at the origin and the line or plane normal along +z
(an I11 frame only turns, so its offset k is the scene offset):

* fixed point          (I8): the bundle of planes through the origin, with
  normal (sin(th) cos(ph), sin(th) sin(ph), cos(th));
* half-line swap       (I9): the parallel planes z = s;
* fixed line          (I10): the pencil x cos(ph) + y sin(ph) = 0;
* half-plane swap     (I11): the planes x cos(d) + y sin(d) = k.

``verify_envelope_conditions`` re-derives contact sets numerically from the
family equation alone (and its parameter derivatives) and checks them
against the quadric, so the two routes stay independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .constraints import _KINDS, Constraint, IncidenceKind
from .errors import DegenerateInput, InvalidConstraint, NoEnvelope, VerificationFailed
from .geometry import (
    TOL_SEPARATION,
    Line3,
    Plane3,
    Point3,
    RigidFrame,
    _axis_frame,
    _line_pair_frame,
    canonical_frame_line_plane_crossing,
    canonical_frame_line_plane_parallel,
    canonical_frame_point_line,
    canonical_frame_point_plane,
    classify_line_plane,
    cross3,
    LinePlaneRelation,
    line_line_closest,
    perp_unit,
)

_PARAM_RANGE = 10.0
# verify_envelope_conditions: largest |quadric(x)| / (1 + |x|^2) at a contact x.
ENVELOPE_SURFACE_TOL = 1e-6


@dataclass(frozen=True)
class FamilyParam:
    """A named free parameter with its default sampling range."""

    name: str
    low: float
    high: float


def _free(name: str, low: float = -_PARAM_RANGE, high: float = _PARAM_RANGE) -> FamilyParam:
    return FamilyParam(name, low, high)


@dataclass(frozen=True)
class _Family:
    """One row of the plane-family table.

    Each function takes the family's half-gap ``a`` and shape angle first
    (either may be None when the row has no use for it).
    ``equation(a, angle, *values)`` gives the raw canonical coefficients
    (A, B, C, D) of a member and ``payload(a, angle)`` a tangency row's pair
    of objects placed in the canonical frame, whose dual locus gives the
    envelope and the contact points; a row without an envelope has none.
    """

    params: tuple[FamilyParam, ...]
    equation: Callable[..., tuple[float, float, float, float]]
    payload: Callable[[float, float], tuple] | None = None


_FAMILIES: dict[str, _Family] = {
    "I3": _Family(
        (_free("t"), _free("s")),
        lambda a, d, t, s: (s * math.cos(d), s * math.sin(d) - t, -2 * a, (s * s - t * t) / 2.0),
        lambda a, d: (Line3(Point3(0, 0, a), (0, 1, 0)),
                      Line3(Point3(0, 0, -a), (math.cos(d), math.sin(d), 0)))),
    "I3-parallel": _Family(
        (_free("t"), _free("s")),
        lambda a, _, t, s: (0.0, t - s, 2 * a, (t * t - s * s) / 2.0)),
    "I5": _Family(
        (_free("t"),),
        lambda a, _, t: (0.0, 2 * t, -4 * a, t * t),
        lambda a, _: (Point3(0, 0, a), Line3(Point3(0, 0, -a), (0, 1, 0)))),
    "I6": _Family(
        (_free("s"), _free("t")),
        lambda a, _, s, t: (2 * s, 2 * t, -4 * a, s * s + t * t),
        lambda a, _: (Point3(0, 0, a), Plane3((0, 0, 1), -a))),
    "I7": _Family(
        (_free("delta", 0.0, 2 * math.pi),),
        lambda a, th, d: (math.cos(d), math.sin(d) - math.sin(th), -math.cos(th), 0.0),
        lambda a, th: (Line3(Point3(0, 0, 0), (0, math.sin(th), math.cos(th))),
                       Plane3((0, 0, 1), 0))),
    "I7-parallel": _Family(
        (_free("k"),),
        lambda a, _, k: (2 * k, 0.0, -4 * a, k * k),
        lambda a, _: (Line3(Point3(0, 0, a), (0, 1, 0)), Plane3((0, 0, 1), -a))),
    "I8": _Family(
        (_free("theta", 0.0, math.pi), _free("phi", 0.0, 2 * math.pi)),
        lambda a, _, th, ph: (
            math.sin(th) * math.cos(ph), math.sin(th) * math.sin(ph), math.cos(th), 0.0)),
    "I9": _Family((_free("s"),), lambda a, _, s: (0.0, 0.0, 1.0, s)),
    "I10": _Family(
        (_free("phi", 0.0, math.pi),), lambda a, _, ph: (math.cos(ph), math.sin(ph), 0.0, 0.0)),
    "I11": _Family(
        (_free("delta", 0.0, math.pi), _free("k")),
        lambda a, _, d, k: (math.cos(d), math.sin(d), 0.0, k)),
}


@dataclass(frozen=True)
class PlaneFamily:
    """A 1- or 2-parameter family of candidate fold planes: one row of
    ``_FAMILIES`` with its shape constants, placed in the scene.

    ``frame`` maps scene coordinates to the canonical frame; ``equation``
    returns raw canonical coefficients (A, B, C, D) of A x + B y + C z = D,
    smooth in the parameters (no normalization), which is what numeric
    envelope verification differentiates.
    """

    incidence_kind: str
    frame: RigidFrame
    half_gap: float | None = None
    shape_angle: float | None = None

    def __post_init__(self):
        if self.incidence_kind not in _FAMILIES:
            raise InvalidConstraint(f"unknown family kind {self.incidence_kind}")

    @property
    def _row(self) -> _Family:
        return _FAMILIES[self.incidence_kind]

    @property
    def free_params(self) -> tuple[FamilyParam, ...]:
        return self._row.params

    parameters = free_params  # the name that readers of FoldSolution.family use

    @property
    def dimension(self) -> int:
        return len(self.free_params)

    @cached_property
    def to_scene(self) -> RigidFrame:
        """The inverse of frame (canonical to scene), computed once."""
        return self.frame.inverse()

    def equation(self, *values: float) -> tuple[float, float, float, float]:
        row = self._row
        if len(values) != len(row.params):
            raise InvalidConstraint(
                f"family takes {len(row.params)} parameters, got {len(values)}"
            )
        return row.equation(self.half_gap, self.shape_angle, *values)

    def plane_canonical(self, *values: float) -> Plane3:
        a_, b_, c_, d_ = self.equation(*values)
        return Plane3.from_coeffs(a_, b_, c_, -d_)

    def plane(self, *values: float) -> Plane3:
        """Family member in scene coordinates."""
        return self.to_scene.apply_plane(self.plane_canonical(*values))

    @cached_property
    def _dual(self) -> tuple[tuple, np.ndarray, np.ndarray]:
        """The canonical payload, the projector P onto the null space of its
        dual locus's linear form (I5, I7) or I, and P Q' P."""
        if self._row.payload is None:
            raise NoEnvelope(f"the {self.incidence_kind} plane family has no envelope")
        objs = self._row.payload(self.half_gap, self.shape_angle)
        forms, q = _KINDS[IncidenceKind(self.incidence_kind.split("-")[0])].dual.locus(objs)
        p = _I4
        for f in forms:  # at most one
            p = p - f[:, None] * f / (f @ f)
        return objs, p, p @ q @ p

    def contact_point_canonical(self, *values: float) -> Point3:
        """The pole P Q' P u of the member u = (A, B, C, D), on its contact line
        for the ruled I5 and I7 envelopes; for the I7 cone, whose poles are at
        infinity, the unit ruling direction with z >= 0."""
        x, y, z, w = (self._dual[2] @ self.equation(*values)).tolist()
        s = -w if w else math.copysign(math.hypot(x, y, z), z)
        return Point3(x / s, y / s, z / s)

    def contact_point(self, *values: float) -> Point3:
        return self.to_scene.apply_point(self.contact_point_canonical(*values))

    def envelope(self) -> Quadric:
        """The envelope D P (P Q' P + I - P)^-1 P D, the adjugate up to scale
        (D adj(Q') D for I3 and I6), negative at the payload's p or at b + e
        on its m; NoEnvelope where there is none (parallel lines, I8..I11)."""
        (first, _), p, pqp = self._dual
        m = p @ np.linalg.inv(pqp + (_I4 - p)) @ p * _FLIP
        x = first.xyz if isinstance(first, Point3) else first.base.xyz + first.direction
        m = -m if (x @ m[:3, :3] + 2.0 * m[3, :3]) @ x + m[3, 3] > 0 else m  # the value at x
        return Quadric(tuple((m[_ROWS, _COLS] * _OFF_DIAGONAL_2).tolist()), self.frame)


# (row, column) of c1..c10 in the symmetric 4x4 matrix M of a quadric,
# [x y z 1] M [x y z 1]^T = 0; an off-diagonal c is split between the slot
# and its mirror.  Only c10 sits in row 3.
_SLOTS = np.array([(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (2, 3), (3, 3)])
_ROWS, _COLS = _SLOTS.T
_OFF_DIAGONAL_2 = np.where(_ROWS == _COLS, 1.0, 2.0)
# D M D with D = diag(1, 1, 1, -1): x lies on the plane h = (N, d) where h . D (x, 1) = 0
_FLIP = np.array([1.0, 1.0, 1.0, -1.0])[:, None] * (1.0, 1.0, 1.0, -1.0)
_I4 = np.broadcast_to(np.eye(4), (4, 4))  # a read-only identity


@dataclass(frozen=True)
class Quadric:
    """A quadric surface: canonical-frame coefficients of

        c1 x^2 + c2 y^2 + c3 z^2 + c4 xy + c5 yz + c6 zx
        + c7 x + c8 y + c9 z + c10 = 0

    scaled so the largest |coefficient| is 1, plus the scene-to-canonical
    frame.
    """

    coeffs: tuple[float, ...]
    frame: RigidFrame

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != (10,):
            raise DegenerateInput("a quadric needs 10 coefficients")
        if np.max(np.abs(c[_ROWS < 3])) < 1e-300:
            raise DegenerateInput("quadric must have a nonconstant term")
        c = c / np.max(np.abs(c))
        object.__setattr__(self, "coeffs", tuple(float(v) for v in c))

    @cached_property
    def matrix(self) -> np.ndarray:
        """Symmetric 4x4 homogeneous matrix in the canonical frame (read-only)."""
        m = np.zeros((4, 4))
        m[_ROWS, _COLS] = self.coeffs
        m = (m + m.T) / 2.0
        m.setflags(write=False)
        return m

    def evaluate_canonical(self, pts: np.ndarray) -> np.ndarray:
        p = np.atleast_2d(np.asarray(pts, dtype=float))
        m = self.matrix
        return ((p @ m[:3, :3] + 2.0 * m[3, :3]) * p).sum(axis=1) + m[3, 3]

    def gradient_canonical(self, pts: np.ndarray) -> np.ndarray:
        p = np.atleast_2d(np.asarray(pts, dtype=float))
        m = self.matrix
        return 2.0 * (p @ m[:3, :3] + m[3, :3])

    def evaluate(self, p: Point3) -> float:
        return float(self.evaluate_xyz(p.xyz)[0])

    def evaluate_xyz(self, pts: np.ndarray) -> np.ndarray:
        """Evaluate at an (N, 3) array of scene coordinates."""
        return self.evaluate_canonical(self.frame.apply_xyz(np.atleast_2d(pts)))

    def scene_coeffs(self) -> tuple[float, ...]:
        """The 10 coefficients expressed in scene coordinates."""
        h = np.eye(4)
        h[:3, :3] = self.frame.rotation
        h[:3, 3] = self.frame.translation
        a = h.T @ self.matrix @ h
        return tuple((a[_ROWS, _COLS] * _OFF_DIAGONAL_2).tolist())

    def restricted_conic(self, plane: Plane3) -> np.ndarray:
        """3x3 symmetric matrix of the conic cut by a scene-coordinate plane,
        in an orthonormal in-plane chart; scaled to unit max entry."""
        pc = self.frame.apply_plane(plane)
        n = pc.normal_vec
        u = perp_unit(n)
        s = np.zeros((4, 3))
        s[:3, 0] = u
        s[:3, 1] = cross3(n, u)
        s[:3, 2] = pc.offset * n
        s[3, 2] = 1.0
        conic = s.T @ self.matrix @ s
        scale = np.max(np.abs(conic))
        return conic / (scale if scale > 0 else 1.0)

    def tangency_defect(self, plane: Plane3) -> float:
        """|det| of the normalized restricted conic; 0 iff the plane is
        tangent (meets the quadric in a degenerate conic)."""
        return abs(float(np.linalg.det(self.restricted_conic(plane))))


# ---------------------------------------------------------------------------
# Family and envelope constructors
# ---------------------------------------------------------------------------


def family_I5(p: Point3, m: Line3) -> PlaneFamily:
    """Planes reflecting point p onto line m (tangents of a parabolic cylinder)."""
    frame, a = canonical_frame_point_line(p, m)
    return PlaneFamily("I5", frame, half_gap=a)


def envelope_I5(p: Point3, m: Line3) -> Quadric:
    return family_I5(p, m).envelope()


def family_I6(p: Point3, pi: Plane3) -> PlaneFamily:
    """Planes reflecting point p onto plane pi (tangents of a paraboloid)."""
    frame, a = canonical_frame_point_plane(p, pi)
    return PlaneFamily("I6", frame, half_gap=a)


def envelope_I6(p: Point3, pi: Plane3) -> Quadric:
    return family_I6(p, pi).envelope()


def family_I3(m: Line3, n: Line3) -> PlaneFamily:
    """Planes making the reflection of m meet the disjoint line n."""
    closest = line_line_closest(m, n)
    if closest[2] <= TOL_SEPARATION:
        raise InvalidConstraint(
            "the lines intersect; the meeting constraint needs disjoint lines"
        )
    frame, delta, a = _line_pair_frame(m, n, closest)
    if delta is None:
        return PlaneFamily("I3-parallel", frame, half_gap=a)
    return PlaneFamily("I3", frame, half_gap=a, shape_angle=delta)


def envelope_I3(m: Line3, n: Line3) -> Quadric:
    """Hyperbolic-paraboloid envelope for skew lines; the parallel case has
    no envelope (the family degenerates to one effective direction)."""
    return family_I3(m, n).envelope()


def family_I7(m: Line3, pi: Plane3) -> PlaneFamily:
    """Planes reflecting line m into plane pi."""
    rel = classify_line_plane(m, pi)
    if rel is LinePlaneRelation.CONTAINED:
        raise DegenerateInput(
            "line lies in the plane; covered by the fixed-line (I10) and "
            "half-plane swap (I11) constraints"
        )
    if rel is LinePlaneRelation.PARALLEL_DISJOINT:
        frame, a = canonical_frame_line_plane_parallel(m, pi)
        return PlaneFamily("I7-parallel", frame, half_gap=a)
    frame, theta = canonical_frame_line_plane_crossing(m, pi)
    return PlaneFamily("I7", frame, shape_angle=theta)


def envelope_I7(m: Line3, pi: Plane3) -> Quadric:
    """Elliptical-cone envelope (crossing case) or parabolic cylinder
    (parallel case)."""
    return family_I7(m, pi).envelope()


_FAMILY_OF = {
    IncidenceKind.I3: family_I3,
    IncidenceKind.I5: family_I5,
    IncidenceKind.I6: family_I6,
    IncidenceKind.I7: family_I7,
    IncidenceKind.I8: lambda p: PlaneFamily("I8", _axis_frame((0.0, 0.0, 1.0), p)),
    IncidenceKind.I9: lambda m: PlaneFamily("I9", _axis_frame(m.direction, m.base)),
    IncidenceKind.I10: lambda m: PlaneFamily("I10", _axis_frame(m.direction, m.base)),
    IncidenceKind.I11: lambda pi: PlaneFamily("I11", _axis_frame(pi.normal_vec, np.zeros(3))),
}


def family(c: Constraint) -> PlaneFamily:
    """Parameterized family of all fold planes satisfying one constraint of
    an infinite kind (codimension 1 or 2)."""
    build = _FAMILY_OF.get(c.kind)
    if build is None:
        raise InvalidConstraint(
            f"{c.kind.value} has no solution family; only I3, I5, I6, I7 and "
            "I8..I11 are infinite single-incidence kinds"
        )
    return build(*c.objects)


# ---------------------------------------------------------------------------
# Numeric envelope verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnvelopeReport:
    samples: int
    contact: str  # "point" or "line"
    max_surface_defect: float
    max_normal_defect: float
    worst_params: tuple[float, ...]


def _equation_derivative(fam: PlaneFamily, values: list[float], i: int) -> np.ndarray:
    """Fourth-order central difference of the raw plane coefficients with
    respect to parameter i (exact for the polynomial coefficient maps)."""
    h = 1e-3 * (1.0 + abs(values[i]))

    def at(offset: float) -> np.ndarray:
        vals = list(values)
        vals[i] += offset
        return np.array(fam.equation(*vals))

    return (-at(2 * h) + 8 * at(h) - 8 * at(-h) + at(-2 * h)) / (12 * h)


def _sample_values(fam: PlaneFamily, samples: int) -> list[tuple[float, ...]]:
    if len(fam.free_params) == 1:
        p = fam.free_params[0]
        return [(v,) for v in np.linspace(p.low, p.high, samples)]
    n = max(2, math.ceil(math.sqrt(samples)))
    p0, p1 = fam.free_params
    grid0 = np.linspace(p0.low, p0.high, n)
    grid1 = np.linspace(p1.low, p1.high, n)
    return [(a, b) for a in grid0 for b in grid1][:samples]


def verify_envelope_conditions(
    fam: PlaneFamily,
    quadric: Quadric,
    samples: int = 100,
    normal_tol: float = 1e-8,
) -> EnvelopeReport:
    """Check that the quadric is the envelope of the family.

    For each sampled parameter value the contact set is found by solving the
    member-plane equation together with its parameter derivatives (one
    derivative gives a contact line, two give a contact point).  Every
    contact must lie on the quadric and the quadric gradient there must be
    parallel to the member plane's normal, to ENVELOPE_SURFACE_TOL and
    normal_tol.
    """
    n_free = len(fam.free_params)
    worst_surface = 0.0
    worst_normal = 0.0
    worst_params: tuple[float, ...] = ()
    values_list = _sample_values(fam, samples)
    for values in values_list:
        eq = np.array(fam.equation(*values))
        rows = [eq]
        for i in range(n_free):
            rows.append(_equation_derivative(fam, list(values), i))
        mat = np.vstack([r[:3] for r in rows])
        rhs = np.array([r[3] for r in rows])
        pts: list[np.ndarray]
        if n_free == 1:
            sol, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
            direction = cross3(mat[0], mat[1])
            dn = np.linalg.norm(direction)
            if dn < 1e-12:
                raise VerificationFailed(
                    f"contact line undetermined at parameters {values}"
                )
            direction = direction / dn
            pts = [sol + lam * direction for lam in (-2.0, -1.0, 1.0, 2.0)]
        else:
            try:
                x = np.linalg.solve(mat, rhs)
            except np.linalg.LinAlgError:
                raise VerificationFailed(
                    f"contact point undetermined at parameters {values}"
                ) from None
            pts = [x]
        normal = eq[:3] / np.linalg.norm(eq[:3])
        checked = 0
        for x in pts:
            q = abs(float(quadric.evaluate_canonical(x[None, :])[0]))
            q /= 1.0 + float(x @ x)
            g = quadric.gradient_canonical(x[None, :])[0]
            gn = np.linalg.norm(g)
            if gn < 1e-9 * (1.0 + np.linalg.norm(x)):
                continue  # singular point of the quadric (e.g. a cone apex)
            ndef = float(np.linalg.norm(cross3(g / gn, normal)))
            checked += 1
            if q > worst_surface:
                worst_surface, worst_params = q, tuple(values)
            if ndef > worst_normal:
                worst_normal, worst_params = ndef, tuple(values)
        if checked == 0:
            raise VerificationFailed(
                f"all contact candidates fell on singular quadric points at {values}"
            )
    if worst_surface > ENVELOPE_SURFACE_TOL or worst_normal > normal_tol:
        raise VerificationFailed(
            f"envelope conditions violated at parameters {worst_params}: "
            f"surface defect {worst_surface:.3e} (tol {ENVELOPE_SURFACE_TOL:.1e}), "
            f"normal defect {worst_normal:.3e} (tol {normal_tol:.1e})"
        )
    return EnvelopeReport(
        samples=len(values_list),
        contact="line" if n_free == 1 else "point",
        max_surface_defect=worst_surface,
        max_normal_defect=worst_normal,
        worst_params=worst_params,
    )
