"""The twelve incidence constraint kinds between scene objects and their
reflections in an unknown fold plane.

Each kind is one row of the ``_KINDS`` table: its codimension (degrees of
freedom of the fold plane it consumes), payload signature, dual locus and
precondition, a function giving the signed residual components of a batch
of candidate planes, and the reduction of those components to the kind's
scalar residual.  Both residual forms are read from the row:

* ``residual_components_grid``: the signed, smooth components, shape
  (k, m), which vanish exactly on satisfaction; Newton-type root finding
  runs on them.
* ``residual`` / ``residual_grid``: the reported nonnegative scalar.  The
  reduction is the norm for I1 and I5, |c| for I6 and I8 and max |c| for
  I7, all lengths; for the line and plane incidences (I2, I4, I9..I12) it
  is an angle in radians (the arcsine of a cross-product norm or of a dot
  product) plus an offset length, with equal weight.

I3 is the exception: its one component, the coplanarity triple product,
also vanishes for a reflected line parallel to the target, so it cannot
give the skew-line gap, and the row computes that scalar itself.  Root
filters recheck the scalar.

``dual_locus`` reads the fold planes of each kind in dual
coordinates h = (N, d), the plane N . x = d with N of any length, where
every kind is a few linear forms and at most one quadric (S = N . N below):

* I8 (q): (q, -1);  I11 (nu, o): (nu, 0);  I9 (b, e): (u, 0) and (v, 0)
  for u, v perpendicular to e;  I10 (b, e): (e, 0) and (b, -1);
* I6 (p, pi): the quadric (nu . p - o) S - 2 (N . p - d)(N . nu), which is S
  times the signed distance from pi of p's image;
* I5 (p, m): (e x (b - p), 0), keeping N in the plane of p and m, and the I6
  quadric of p and the plane through m perpendicular to that plane;
* I7 (m, pi): the fold plane passes through X = m meet pi, (X, -1), and the
  cone (nu . e) S - 2 (N . e)(N . nu) turns e into pi; for m parallel to pi,
  (e, 0) and the I6 quadric of (b, pi);
* I3 (m, n) = ((b, e), (c, f)): S (c - b) . (e x f) - 2 (N . e)(N . (f x
  (c - b))) + 2 (N . b - d)(N . (e x f)), which is S times the triple
  product (c - b') . (e' x f) of the reflected m = (b', e') and n, zero when
  they are coplanar; for parallel lines the one linear form
  (e x (c - b), 0) keeps the reflected m in their plane;
* I1, I2, I4 and I12 (the kinds that fix the fold plane): the forms that
  vanish on the one or two planes of their direct solvers, and for two
  planes with normals a and b the quadric (N . (b - c a))(N . (a - c b)),
  c = a . b; skew I2 lines give their two candidate planes.

The families of the infinite kinds are in ``envelopes``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import DegenerateInput, InvalidConstraint
from .geometry import (
    TOL_ANGLE,
    TOL_INCIDENCE,
    TOL_PLANE_IDENTITY,
    TOL_SEPARATION,
    Line3,
    Plane3,
    Point3,
    _norm3,
    classify_line_plane,
    cross3,
    LinePlaneRelation,
    line_line_closest,
    lines_setwise_equal,
    perp_unit,
    perpendicular_bisector_plane,
    plane_gap,
    planes_setwise_equal,
    points_equal,
)

if TYPE_CHECKING:
    from .envelopes import PlaneFamily

class IncidenceKind(str, Enum):
    I1 = "I1"
    I2 = "I2"
    I3 = "I3"
    I4 = "I4"
    I5 = "I5"
    I6 = "I6"
    I7 = "I7"
    I8 = "I8"
    I9 = "I9"
    I10 = "I10"
    I11 = "I11"
    I12 = "I12"

    @property
    def index(self) -> int:
        return _KIND_INDEX[self]

    @property
    def codimension(self) -> int:
        return _KINDS[self].codimension

    @property
    def signature(self) -> tuple[str, ...]:
        """Payload object kinds, in order."""
        return _KINDS[self].signature

    @property
    def linear_forms(self) -> int:
        """Linear forms of the dual locus of a payload in general position
        (parallel I3 lines have one form and no quadric); the rest of the
        codimension is one quadric."""
        return _KINDS[self].dual.linear


_KIND_INDEX = {k: int(k.value[1:]) for k in IncidenceKind}


def codimension(c: "Constraint") -> int:
    return c.kind.codimension


@dataclass(frozen=True)
class Constraint:
    """An incidence requirement on the unknown fold plane.

    Construct through the per-kind classmethods; they enforce the kind's
    precondition (e.g. I5 requires the point off the line).
    """

    kind: IncidenceKind
    objects: tuple

    def __post_init__(self):
        expected = {"point": Point3, "line": Line3, "plane": Plane3}
        sig = self.kind.signature
        if len(self.objects) != len(sig):
            raise InvalidConstraint(
                f"{self.kind.value} takes {len(sig)} objects, got {len(self.objects)}"
            )
        for obj, want in zip(self.objects, sig):
            if not isinstance(obj, expected[want]):
                raise InvalidConstraint(
                    f"{self.kind.value} expects a {want}, got {type(obj).__name__}"
                )
        _KINDS[self.kind].precondition(self.objects)

    # -- factories ---------------------------------------------------------

    @classmethod
    def I1(cls, p: Point3, q: Point3) -> "Constraint":
        return cls(IncidenceKind.I1, (p, q))

    @classmethod
    def I2(cls, m: Line3, n: Line3) -> "Constraint":
        return cls(IncidenceKind.I2, (m, n))

    @classmethod
    def I3(cls, m: Line3, n: Line3) -> "Constraint":
        return cls(IncidenceKind.I3, (m, n))

    @classmethod
    def I4(cls, pi: Plane3, tau: Plane3) -> "Constraint":
        return cls(IncidenceKind.I4, (pi, tau))

    @classmethod
    def I5(cls, p: Point3, m: Line3) -> "Constraint":
        return cls(IncidenceKind.I5, (p, m))

    @classmethod
    def I6(cls, p: Point3, pi: Plane3) -> "Constraint":
        return cls(IncidenceKind.I6, (p, pi))

    @classmethod
    def I7(cls, m: Line3, pi: Plane3) -> "Constraint":
        return cls(IncidenceKind.I7, (m, pi))

    @classmethod
    def I8(cls, p: Point3) -> "Constraint":
        return cls(IncidenceKind.I8, (p,))

    @classmethod
    def I9(cls, m: Line3) -> "Constraint":
        return cls(IncidenceKind.I9, (m,))

    @classmethod
    def I10(cls, m: Line3) -> "Constraint":
        return cls(IncidenceKind.I10, (m,))

    @classmethod
    def I11(cls, pi: Plane3) -> "Constraint":
        return cls(IncidenceKind.I11, (pi,))

    @classmethod
    def I12(cls, pi: Plane3) -> "Constraint":
        return cls(IncidenceKind.I12, (pi,))


def _pre_distinct_points(objs):
    p, q = objs
    if points_equal(p, q, TOL_SEPARATION):
        raise InvalidConstraint(
            "I1 requires distinct points (P != Q); a fixed point is I8"
        )


def _pre_distinct_lines(objs):
    m, n = objs
    if lines_setwise_equal(m, n, TOL_SEPARATION):
        raise InvalidConstraint(
            "I2 requires distinct lines (m != n); a line fixed by the fold "
            "is I9 or I10"
        )


def _pre_disjoint_lines(objs):
    m, n = objs
    _, _, dist, parallel = line_line_closest(m, n)
    if dist <= TOL_SEPARATION:
        if parallel:
            raise InvalidConstraint("I3 requires disjoint lines; these coincide")
        raise InvalidConstraint(
            "I3 requires disjoint lines; these intersect (covered by I7/I10)"
        )


def _pre_distinct_planes(objs):
    pi, tau = objs
    if planes_setwise_equal(pi, tau, TOL_SEPARATION):
        raise InvalidConstraint(
            "I4 requires distinct planes (pi != tau); a plane fixed by the "
            "fold is I11 or I12"
        )


def _pre_point_off_line(objs):
    p, m = objs
    if m.contains_point(p, TOL_SEPARATION):
        raise InvalidConstraint(
            "I5 requires the point off the line (P not in m); a point on the "
            "line is covered by I8 and I9"
        )


def _pre_point_off_plane(objs):
    p, pi = objs
    if pi.contains_point(p, TOL_SEPARATION):
        raise InvalidConstraint(
            "I6 requires the point off the plane (P not in pi); a point on "
            "the plane is covered by I8 and I11"
        )


def _pre_line_off_plane(objs):
    m, pi = objs
    if classify_line_plane(m, pi) is LinePlaneRelation.CONTAINED:
        raise InvalidConstraint(
            "I7 requires the line off the plane (m not in pi); a contained "
            "line is covered by I10 and I11"
        )


# ---------------------------------------------------------------------------
# Residual components, vectorized over a batch of candidate planes (unit
# normals N, offsets O), and their reductions to scalar residuals
# ---------------------------------------------------------------------------


def _dot(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise A . v for (k, 3) A and a (3,) v.  Unlike A @ v (BLAS gemv,
    whose rounding depends on the batch), every row gets the same bits in
    any batch, so a Newton seed's path does not depend on its batch-mates."""
    return np.einsum("ij,j->i", A, v)


def _reflect_pts(N: np.ndarray, O: np.ndarray, p: np.ndarray) -> np.ndarray:
    s = _dot(N, p) - O
    return p[None, :] - 2.0 * s[:, None] * N


def _reflect_dirs(N: np.ndarray, d: np.ndarray) -> np.ndarray:
    s = _dot(N, d)
    return d[None, :] - 2.0 * s[:, None] * N


def _asin_clip(x: np.ndarray) -> np.ndarray:
    return np.arcsin(np.clip(x, -1.0, 1.0))


def _row_norm(a: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->i", a, a))


def _cross(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise A × b for (k, 3) A and a (3,) b: the products and
    differences np.cross forms, column by column, without its axis moves."""
    a0, a1, a2 = A[:, 0], A[:, 1], A[:, 2]
    b0, b1, b2 = b
    out = np.empty_like(A)
    out[:, 0] = a1 * b2 - a2 * b1
    out[:, 1] = a2 * b0 - a0 * b2
    out[:, 2] = a0 * b1 - a1 * b0
    return out


def _closest_to_origin(B: np.ndarray, D: np.ndarray) -> np.ndarray:
    t = np.einsum("ij,ij->i", B, D)
    return B - t[:, None] * D


def _i1(objs, N, O):
    p, q = objs
    return _reflect_pts(N, O, p.xyz) - q.xyz


def _i2(objs, N, O):
    m, n = objs
    B, D = _reflect_pts(N, O, m.base.xyz), _reflect_dirs(N, m.direction)
    gap = _closest_to_origin(B, D) - n.base.xyz
    return np.concatenate([_cross(D, n.direction), gap], axis=1)


def _i3(objs, N, O):
    m, n = objs
    B, D = _reflect_pts(N, O, m.base.xyz), _reflect_dirs(N, m.direction)
    return np.einsum("ij,ij->i", n.base.xyz - B, _cross(D, n.direction))[:, None]


def _i3_gap(objs, N, O):
    """Skew-line gap, or the distance of parallel lines, between the
    reflected m and n."""
    m, n = objs
    B, D = _reflect_pts(N, O, m.base.xyz), _reflect_dirs(N, m.direction)
    w = n.base.xyz - B
    cr = _cross(D, n.direction)
    s = _row_norm(cr)
    skew = np.abs(np.einsum("ij,ij->i", w, cr)) / np.where(s > 1e-12, s, 1.0)
    para = _row_norm(w - np.einsum("ij,ij->i", w, D)[:, None] * D)
    return np.where(s > 1e-12, skew, para)


def _i4(objs, N, O):
    pi, tau = objs
    n2 = _reflect_dirs(N, pi.normal_vec)
    o2 = np.einsum("ij,ij->i", n2, _reflect_pts(N, O, pi.foot.xyz))
    gap = o2[:, None] * n2 - tau.offset * tau.normal_vec
    return np.concatenate([_cross(n2, tau.normal_vec), gap], axis=1)


def _i5(objs, N, O):
    p, m = objs
    v = _reflect_pts(N, O, p.xyz) - m.base.xyz
    d = m.direction
    return v - _dot(v, d)[:, None] * d


def _i6(objs, N, O):
    p, pi = objs
    return (_dot(_reflect_pts(N, O, p.xyz), pi.normal_vec) - pi.offset)[:, None]


def _i7(objs, N, O):
    m, pi = objs
    a = _reflect_pts(N, O, m.base.xyz)
    b = _reflect_pts(N, O, m.base.xyz + m.direction)
    nu, o = pi.normal_vec, pi.offset
    return np.stack([_dot(a, nu) - o, _dot(b, nu) - o], axis=1)


def _i8(objs, N, O):
    (p,) = objs
    return (_dot(N, p.xyz) - O)[:, None]


def _i9(objs, N, O):
    (m,) = objs
    return _cross(N, m.direction)


def _i10(objs, N, O):
    (m,) = objs
    return np.stack([_dot(N, m.direction), _dot(N, m.base.xyz) - O], axis=1)


def _i11(objs, N, O):
    (pi,) = objs
    return _dot(N, pi.normal_vec)[:, None]


def _i12(objs, N, O):
    (pi,) = objs
    gap = O[:, None] * N - pi.offset * pi.normal_vec
    return np.concatenate([_cross(N, pi.normal_vec), gap], axis=1)


def _abs(c: np.ndarray) -> np.ndarray:
    return np.abs(c[:, 0])


def _max_abs(c: np.ndarray) -> np.ndarray:
    return np.maximum(np.abs(c[:, 0]), np.abs(c[:, 1]))


def _turn(c: np.ndarray) -> np.ndarray:
    """Angle whose sine is the norm of a cross product of unit vectors."""
    return _asin_clip(_row_norm(c))


def _turn_and_gap(c: np.ndarray) -> np.ndarray:
    """Angle of the cross product in columns 0..2 plus the offset gap in 3..5."""
    return _turn(c[:, :3]) + _row_norm(c[:, 3:])


def _tilt(c: np.ndarray) -> np.ndarray:
    """Unsigned angle whose sine is the dot product in column 0."""
    return np.abs(_asin_clip(c[:, 0]))


def _tilt_and_gap(c: np.ndarray) -> np.ndarray:
    return _tilt(c) + np.abs(c[:, 1])


# ---------------------------------------------------------------------------
# Dual loci in h = (N, d) of the planes N . x = d, by geometry's rule for single vectors
# ---------------------------------------------------------------------------


def _form(v, w: float = 0.0) -> np.ndarray:
    """The linear form v . N + w d of a float 3-sequence v."""
    return np.array((*v, w))


def _quadric(c: float, f, g) -> list[list[float]]:
    """c S - (f g^T + g f^T) of float 4-sequences, S = N . N, each entry as
    c * diag(1, 1, 1, 0) - (fg + fg.T) forms it, signed zeros too; c = -0.0
    gives -(f g^T + g f^T) exactly."""
    (f0, f1, f2, f3), (g0, g1, g2, g3), z = f, g, c * 0.0
    a, b, d = z - (f0 * g1 + f1 * g0), z - (f0 * g2 + f2 * g0), z - (f0 * g3 + f3 * g0)
    e, h, k = z - (f1 * g2 + f2 * g1), z - (f1 * g3 + f3 * g1), z - (f2 * g3 + f3 * g2)
    return [[c - (f0 * g0 + f0 * g0), a, b, d], [a, c - (f1 * g1 + f1 * g1), e, h],
            [b, e, c - (f2 * g2 + f2 * g2), k], [d, h, k, z - (f3 * g3 + f3 * g3)]]


def _landing(v: np.ndarray, w: float, nu: np.ndarray, o: float) -> np.ndarray:
    """(nu . v - o) S - 2 (N . v + w d)(N . nu): S times the signed distance
    from the plane nu . x = o of the image of the point v (w = -1) or of the
    direction v (w = 0, o = 0)."""
    return np.array(_quadric(float(nu @ v - o), (*v.tolist(), w), (*nu.tolist(), 0.0)))


def _dual_i3(objs):
    m, n = objs
    b, e, f = m.base.xyz, m.dir, n.dir
    cb = n.base.xyz - b
    ef = cross3(e, f)
    if math.sqrt(ef.dot(ef)) <= TOL_ANGLE:  # parallel, as line_line_closest tells
        return [_form(cross3(e, cb).tolist())], None
    q = _quadric(float(cb @ ef), (*e, 0.0), (*cross3(f, cb).tolist(), 0.0))
    r = _quadric(-0.0, (*b.tolist(), -1.0), (*ef.tolist(), 0.0))
    return [], np.array([[x - y for x, y in zip(s, t)] for s, t in zip(q, r)])


def _dual_i6(objs):
    return [], _landing(objs[0].xyz, -1.0, objs[1].normal_vec, objs[1].offset)


def _dual_i5(objs):
    p, m = objs
    b, e, x = m.base.xyz, m.dir, p.xyz
    u = x - b
    k = float(u @ m.direction)
    u = np.array([v - k * w for v, w in zip(u.tolist(), e)])
    u /= math.sqrt(u.dot(u))
    return [_form(cross3(e, b - x).tolist())], _landing(x, -1.0, u, float(u @ b))


def _dual_i7(objs):
    m, pi = objs
    b, e, nu = m.base.xyz, m.direction, pi.normal_vec
    if classify_line_plane(m, pi) is LinePlaneRelation.PARALLEL_DISJOINT:
        return [_form(m.dir)], _landing(b, -1.0, nu, pi.offset)
    k = (pi.offset - float(nu @ b)) / float(nu @ e)
    cross = [x + k * y for x, y in zip(m.base.coords, m.dir)]
    return [_form(cross, -1.0)], _landing(e, 0.0, nu, 0.0)


def _dual_i8(objs):
    return [_form(objs[0].coords, -1.0)], None


def _dual_i9(objs):
    (m,) = objs
    u = perp_unit(m.dir)
    return [_form(u.tolist()), _form(cross3(m.dir, u).tolist())], None


def _dual_i10(objs):
    return [_form(objs[0].dir), _form(objs[0].base.coords, -1.0)], None


def _dual_i11(objs):
    return [_form(objs[0].normal)], None


def _dual_planes(sol: "FoldSolution"):
    """The dual locus of a kind that fixes the fold plane, from the planes
    of its direct solver: the forms that vanish on their span, by SVD with
    the offsets in units of the largest, and for two planes with normals a
    and b the quadric (N . (b - c a))(N . (a - c b)), c = a . b."""
    unit = max(1.0, *(abs(p.offset) for p in sol.planes))
    h = np.array([(*p.normal, p.offset / unit) for p in sol.planes])
    forms = list(np.linalg.svd(h)[2][len(h):] * (1.0, 1.0, 1.0, 1.0 / unit))
    if len(h) == 1:
        return forms, None
    (a, b), c = h[:, :3].tolist(), float(h[0, :3] @ h[1, :3])
    f, g = ([y - c * x for x, y in zip(a, b)] + [0.0], [x - c * y for x, y in zip(a, b)] + [0.0])
    return forms, np.array([[x / -2.0 for x in row] for row in _quadric(-0.0, f, g)])


@dataclass(frozen=True)
class _Dual:
    """The dual-locus column: ``locus(objects)`` gives a payload's linear
    forms (an array of 4 numbers each) and symmetric 4 x 4 quadric array, or
    None; ``linear`` counts the forms of a payload in general position."""

    linear: int
    locus: Callable[[tuple], tuple[list[np.ndarray], np.ndarray | None]]


@dataclass(frozen=True)
class _Kind:
    """One row of the incidence-kind table.

    ``components(objects, N, O)`` gives the (k, m) signed components and
    ``reduce`` maps them to the (k,) scalar residual; a kind whose scalar
    the components cannot give computes it with ``scalar(objects, N, O)``
    instead.
    """

    codimension: int
    signature: tuple[str, ...]
    dual: _Dual
    components: Callable[[tuple, np.ndarray, np.ndarray], np.ndarray]
    reduce: Callable[[np.ndarray], np.ndarray] | None
    precondition: Callable[[tuple], None] = lambda objs: None
    scalar: Callable[[tuple, np.ndarray, np.ndarray], np.ndarray] | None = None


_KINDS: dict[IncidenceKind, _Kind] = {
    # the direct solvers of the plane-fixing rows are defined below
    IncidenceKind.I1: _Kind(
        3, ("point", "point"), _Dual(3, lambda o: _dual_planes(solve_I1(*o))), _i1, _row_norm,
        _pre_distinct_points),
    IncidenceKind.I2: _Kind(
        3, ("line", "line"), _Dual(2, lambda o: _dual_planes(solve_I2(*o, tol=math.inf))), _i2,
        _turn_and_gap, _pre_distinct_lines),
    IncidenceKind.I3: _Kind(
        1, ("line", "line"), _Dual(0, _dual_i3), _i3, None, _pre_disjoint_lines,
        scalar=_i3_gap),
    IncidenceKind.I4: _Kind(
        3, ("plane", "plane"), _Dual(2, lambda o: _dual_planes(solve_I4(*o))), _i4,
        _turn_and_gap, _pre_distinct_planes),
    IncidenceKind.I5: _Kind(
        2, ("point", "line"), _Dual(1, _dual_i5), _i5, _row_norm, _pre_point_off_line),
    IncidenceKind.I6: _Kind(
        1, ("point", "plane"), _Dual(0, _dual_i6), _i6, _abs, _pre_point_off_plane),
    IncidenceKind.I7: _Kind(
        2, ("line", "plane"), _Dual(1, _dual_i7), _i7, _max_abs, _pre_line_off_plane),
    IncidenceKind.I8: _Kind(1, ("point",), _Dual(1, _dual_i8), _i8, _abs),
    IncidenceKind.I9: _Kind(2, ("line",), _Dual(2, _dual_i9), _i9, _turn),
    IncidenceKind.I10: _Kind(2, ("line",), _Dual(2, _dual_i10), _i10, _tilt_and_gap),
    IncidenceKind.I11: _Kind(1, ("plane",), _Dual(1, _dual_i11), _i11, _tilt),
    IncidenceKind.I12: _Kind(
        3, ("plane",), _Dual(3, lambda o: _dual_planes(solve_I12(*o))), _i12, _turn_and_gap),
}


def dual_locus(c: Constraint) -> tuple[list[np.ndarray], np.ndarray | None]:
    """The linear forms and the quadric (or None) in h = (N, d) that vanish
    on the fold planes N . x = d satisfying c."""
    return _KINDS[c.kind].dual.locus(c.objects)


def residual_grid(c: Constraint, N: np.ndarray, O: np.ndarray) -> np.ndarray:
    """Scalar residual of each candidate plane (unit normals N, offsets O)."""
    row = _KINDS[c.kind]
    if row.scalar is not None:
        return row.scalar(c.objects, N, O)
    return row.reduce(row.components(c.objects, N, O))


def residual_components_grid(c: Constraint, N: np.ndarray, O: np.ndarray) -> np.ndarray:
    """Signed smooth residual components of each candidate plane, shape (k, m)."""
    return _KINDS[c.kind].components(c.objects, N, O)


def residual(c: Constraint, delta: Plane3) -> float:
    """Scalar residual of one candidate fold plane; zero iff c is satisfied."""
    N = delta.normal_vec[None, :]
    O = np.array([delta.offset])
    return float(residual_grid(c, N, O)[0])


def stacked_residual_grid(
    constraints, N: np.ndarray, O: np.ndarray
) -> np.ndarray:
    """Sum of the scalar residuals of several constraints."""
    total = np.zeros(len(O))
    for c in constraints:
        total += residual_grid(c, N, O)
    return total


def stacked_residual(constraints, delta: Plane3) -> float:
    return float(
        stacked_residual_grid(constraints, delta.normal_vec[None, :], np.array([delta.offset]))[0]
    )


def payload_radius(constraints) -> float:
    """Radius, at least 1, of a ball around the origin holding the payload
    anchor points; inf, without a warning, only where that distance
    overflows."""
    r = 1.0
    for c in constraints:
        for obj in c.objects:
            if isinstance(obj, Line3):
                obj = obj.base
            if isinstance(obj, Point3):
                r = max(r, math.hypot(obj.x, obj.y, obj.z))
            elif isinstance(obj, Plane3):
                r = max(r, abs(obj.offset))
    return r


# Largest payload radius the solvers and the fold-plane search take: below
# it a length cubed, as in solve_I5_I6's cubic, stays finite.
MAX_PAYLOAD_RADIUS = 1e100


def check_payload_radius(r: float) -> float:
    """r, a payload radius; DegenerateInput beyond MAX_PAYLOAD_RADIUS."""
    if not r <= MAX_PAYLOAD_RADIUS:
        raise DegenerateInput(
            f"payload radius {r:.3g} exceeds {MAX_PAYLOAD_RADIUS:g}; rescale the scene"
        )
    return r


# ---------------------------------------------------------------------------
# Solution container
# ---------------------------------------------------------------------------


class Outcome(str, Enum):
    FINITE = "finite"
    INFINITE = "infinite"
    NO_SOLUTION = "no_solution"


@dataclass(frozen=True)
class FoldSolution:
    """Result of a solve: finitely many planes, a family, or nothing.

    A finite result always carries at least one plane; an empty candidate
    list is normalized to the no-solution outcome.
    """

    outcome: Outcome
    planes: tuple[Plane3, ...] = ()
    family: PlaneFamily | None = None
    provenance: str = "dedicated"

    @classmethod
    def finite(cls, planes, provenance: str = "dedicated") -> "FoldSolution":
        kept: list[Plane3] = []
        for p in planes:
            if all(plane_gap(p, q) > TOL_PLANE_IDENTITY for q in kept):
                kept.append(p)
        kept.sort(key=lambda p: (*p.normal, p.offset))
        if not kept:
            return cls(Outcome.NO_SOLUTION, (), None, provenance)
        return cls(Outcome.FINITE, tuple(kept), None, provenance)

    @classmethod
    def infinite(cls, family: PlaneFamily) -> "FoldSolution":
        return cls(Outcome.INFINITE, (), family)

    @classmethod
    def no_solution(cls) -> "FoldSolution":
        return cls(Outcome.NO_SOLUTION)

    @property
    def count(self) -> int:
        return len(self.planes)

    @property
    def possibly_incomplete(self) -> bool:
        """A numeric search's result: it proves existence, not exhaustiveness."""
        return self.provenance in ("generic", "oracle")


# ---------------------------------------------------------------------------
# Direct solvers for the kinds that fix the fold plane
# ---------------------------------------------------------------------------


def solve_I1(p: Point3, q: Point3) -> FoldSolution:
    """The unique fold plane mapping p onto q: their perpendicular bisector.
    Only points that the I1 precondition refuses (within TOL_SEPARATION)
    are refused, by that precondition."""
    _pre_distinct_points((p, q))
    return FoldSolution.finite([perpendicular_bisector_plane(p, q, TOL_SEPARATION)])


def solve_I2(m: Line3, n: Line3, tol: float = TOL_INCIDENCE) -> FoldSolution:
    """Fold planes mapping line m onto line n.

    Two mutually perpendicular planes through the intersection when the
    lines are coplanar and non-parallel, one mid plane when parallel, and
    no solution when skew.
    """
    _pre_distinct_lines((m, n))
    p1, p2, dist, parallel = line_line_closest(m, n)
    if parallel:
        normal = (p2.xyz - p1.xyz) / dist
        mid = (p1.xyz + p2.xyz) / 2.0
        return FoldSolution.finite([Plane3.from_point_normal(mid, normal)])
    if dist <= tol:
        x = (p1.xyz + p2.xyz) / 2.0
        d1, d2 = m.direction, n.direction
        return FoldSolution.finite(
            [
                Plane3.from_point_normal(x, d1 - d2),
                Plane3.from_point_normal(x, d1 + d2),
            ]
        )
    return FoldSolution.no_solution()


def solve_I4(pi: Plane3, tau: Plane3) -> FoldSolution:
    """Fold planes mapping plane pi onto plane tau: the dihedral bisectors."""
    _pre_distinct_planes((pi, tau))
    n1, n2 = pi.normal_vec, tau.normal_vec
    if _norm3(cross3(n1, n2)) <= TOL_ANGLE:
        if float(n1 @ n2) < 0:  # sign convention may still differ pre-canonically
            n2, o2 = -n2, -tau.offset
        else:
            o2 = tau.offset
        return FoldSolution.finite([Plane3(tuple(n1), (pi.offset + o2) / 2.0)])
    # a point on the intersection line of the two planes
    a = np.array((n1, n2))
    b = np.array([pi.offset, tau.offset])
    x = np.linalg.lstsq(a, b, rcond=None)[0]
    return FoldSolution.finite(
        [Plane3.from_point_normal(x, n1 - n2), Plane3.from_point_normal(x, n1 + n2)]
    )


def solve_I12(pi: Plane3) -> FoldSolution:
    """The fold plane fixing pi pointwise is pi itself."""
    return FoldSolution.finite([pi])
