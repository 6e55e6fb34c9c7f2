"""Elementary fold operations: enumeration of the valid constraint
combinations and solvers for them.

A fold plane has three degrees of freedom, so an elementary operation is a
multiset of incidence constraints whose codimensions sum to at least 3.
Three combinations are structurally invalid (they over-constrain the fold
normal and admit either no plane or a continuum): three half-plane swaps
(3I11), a half-line swap with a half-plane swap (I9+I11), and two half-line
swaps (2I9).  That leaves 47 valid operations.

Four worked operations get dedicated, exhaustive solvers: closed forms for
I5+I6, I5+I9 and I6+I8+I11, and elimination for 3I6, whose two remaining
conditions are plane cubics meeting in at most 7 finite points (the
resultant's degree; two of the 9 Bezout points are the circular points at
infinity).  Everything else runs through the generic search: a scan of
fold-plane normals, each at its best offset, seeding Gauss-Newton.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement
from typing import Sequence

import numpy as np

from .constraints import (
    Constraint,
    FoldSolution,
    IncidenceKind,
    residual,
    solve_I1,
    solve_I2,
    solve_I4,
    solve_I12,
)
from .envelopes import family_I5, family_I6
from .errors import DegenerateInput, IllPosed, InvalidOperation, ParseError
from .geometry import (
    TOL_INCIDENCE,
    Line3,
    Plane3,
    Point3,
    RigidFrame,
    canonical_frame_point_plane,
    planes_setwise_equal,
    points_equal,
)
from .numerics import (
    MAX_ORACLE_RESOLUTION,
    SEARCH_MAX_ITER,
    SEARCH_NEWTON_TOL,
    newton_multistart,
    normal_scan,
    real_roots_cubic,
    real_roots_quadratic,
    stacked_components_fn,
    verified_planes,
)

_CODIM_1, _CODIM_2, _CODIM_3 = (
    tuple(k for k in IncidenceKind if k.codimension == n) for n in (1, 2, 3)
)

_REJECTION_REASONS = {
    (9, 9): (
        "two half-line swaps each pin the fold normal to a line direction; "
        "the two requirements are contradictory or redundant, never a "
        "finite set of planes"
    ),
    (9, 11): (
        "a half-line swap pins the fold normal while the half-plane swap "
        "constrains it again; together they are contradictory or redundant"
    ),
    (11, 11, 11): (
        "perpendicularity to three planes is unsatisfiable for independent "
        "normals and redundant otherwise; never a finite set of planes"
    ),
}

_SPEC_TERM = re.compile(r"^(\d*)I(\d{1,2})$")


@dataclass(frozen=True, order=True)
class OperationSpec:
    """A multiset of incidence kinds, e.g. I5+I6 or 3I6."""

    counts: tuple[tuple[int, int], ...]  # ((kind index, multiplicity), ...)

    @classmethod
    def from_kinds(cls, kinds) -> "OperationSpec":
        tally: dict[int, int] = {}
        for k in kinds:
            idx = k.index if isinstance(k, IncidenceKind) else int(k)
            tally[idx] = tally.get(idx, 0) + 1
        return cls(tuple(sorted(tally.items())))

    @classmethod
    def from_constraints(cls, constraints: Sequence[Constraint]) -> "OperationSpec":
        return cls.from_kinds(c.kind for c in constraints)

    @classmethod
    def parse(cls, text: str) -> "OperationSpec":
        kinds: list[int] = []
        for term in text.replace(" ", "").split("+"):
            m = _SPEC_TERM.match(term)
            if not m:
                raise ParseError(
                    f"bad operation term {term!r}; expected forms like I5, 2I8, 3I6"
                )
            mult = int(m.group(1)) if m.group(1) else 1
            idx = int(m.group(2))
            if not 1 <= idx <= 12:
                raise ParseError(f"no incidence kind I{idx}")
            if mult < 1:
                raise ParseError(f"multiplicity must be positive in {term!r}")
            kinds.extend([idx] * mult)
        if not kinds:
            raise ParseError("empty operation spec")
        return cls.from_kinds(kinds)

    def __str__(self) -> str:
        return "+".join(
            f"{mult if mult > 1 else ''}I{idx}" for idx, mult in self.counts
        )

    @property
    def kinds(self) -> tuple[IncidenceKind, ...]:
        out = []
        for idx, mult in self.counts:
            out.extend([IncidenceKind(f"I{idx}")] * mult)
        return tuple(out)

    @property
    def key(self) -> tuple[int, ...]:
        return tuple(idx for idx, mult in self.counts for _ in range(mult))

    @property
    def total_codimension(self) -> int:
        return sum(k.codimension for k in self.kinds)

    def codim_signature(self) -> tuple[int, ...]:
        return tuple(sorted((k.codimension for k in self.kinds), reverse=True))

    def rejection_reason(self) -> str | None:
        return _REJECTION_REASONS.get(self.key)


def enumerate_operations() -> tuple[list[OperationSpec], list[tuple[OperationSpec, str]]]:
    """All 47 valid elementary operations plus the 3 rejected combinations.

    Classes: the four codimension-3 singles; codimension 1+2 pairs
    (16 minus I9+I11); codimension 2+2 pairs (10 minus 2I9);
    codimension 1+1+1 triples (20 minus 3I11).
    """
    candidates: list[OperationSpec] = []
    for k in _CODIM_3:
        candidates.append(OperationSpec.from_kinds([k]))
    for k1 in _CODIM_1:
        for k2 in _CODIM_2:
            candidates.append(OperationSpec.from_kinds([k1, k2]))
    for pair in combinations_with_replacement(_CODIM_2, 2):
        candidates.append(OperationSpec.from_kinds(pair))
    for triple in combinations_with_replacement(_CODIM_1, 3):
        candidates.append(OperationSpec.from_kinds(triple))
    valid: list[OperationSpec] = []
    rejected: list[tuple[OperationSpec, str]] = []
    for spec in candidates:
        reason = spec.rejection_reason()
        if reason is None:
            valid.append(spec)
        else:
            rejected.append((spec, reason))
    return valid, rejected


# ---------------------------------------------------------------------------
# Dedicated solvers for the worked operations
# ---------------------------------------------------------------------------


def _poly_pad(p: np.ndarray, length: int) -> np.ndarray:
    p = np.atleast_1d(np.asarray(p, dtype=float))
    out = np.zeros(length)
    out[length - len(p):] = p
    return out


def solve_I5_I6(
    p: Point3, m: Line3, q: Point3, pi: Plane3, tol: float = TOL_INCIDENCE
) -> FoldSolution:
    """Fold placing p onto line m and q onto plane pi: zero to three planes.

    In the canonical frame of (p, m), candidate planes are the one-parameter
    tangent family of the parabolic cylinder; those reflections preserve the
    canonical x coordinate, so the image of q keeps x fixed and the q-onto-pi
    condition reduces to a linear relation plus a cubic.  A vanishing cubic
    means the constraints are dependent and the whole family solves the
    operation (returned as an infinite outcome).
    """
    fam = family_I5(p, m)
    frame, a = fam.frame, fam.half_gap
    qc = frame.apply_point(q).xyz
    pic = frame.apply_plane(pi)
    ca, cb, cc, cd = pic.coeffs()
    xq, yq, zq = qc
    e = ca * xq + cd
    if max(abs(cb), abs(cc)) <= 1e-12:
        # pi is a constant-x plane in the canonical frame; the family either
        # satisfies the point-onto-plane condition identically or never.
        if abs(e) <= 1e-10 * (1.0 + abs(xq)):
            return FoldSolution.infinite(fam)
        return FoldSolution.no_solution()
    if abs(cc) >= abs(cb):
        lam, mu = -cb / cc, -e / cc  # z' = lam y' + mu, cubic variable y'
        p_dy = np.array([1.0, -yq])
        p_dz = np.array([lam, mu - zq])
        p_ysq = np.array([1.0, 0.0, -yq * yq])
        p_zsq = np.polyadd(np.polymul([lam, mu], [lam, mu]), [-zq * zq])
        to_yz = lambda u: (u, lam * u + mu)
    else:
        lam, mu = -cc / cb, -e / cb  # y' = lam z' + mu, cubic variable z'
        p_dy = np.array([lam, mu - yq])
        p_dz = np.array([1.0, -zq])
        p_ysq = np.polyadd(np.polymul([lam, mu], [lam, mu]), [-yq * yq])
        p_zsq = np.array([1.0, 0.0, -zq * zq])
        to_yz = lambda u: (lam * u + mu, u)
    cubic = np.polyadd(
        2.0 * a * np.polymul(p_dy, p_dy),
        np.polymul(np.polyadd(p_ysq, p_zsq), p_dz),
    )
    cubic = _poly_pad(cubic, 4)
    coeff_scale = (1.0 + abs(yq) + abs(zq) + a + abs(lam) + abs(mu)) ** 3
    if np.max(np.abs(cubic)) <= 1e-10 * coeff_scale:
        # dependent constraints (e.g. q at the moved point and pi carrying m
        # orthogonally to their span): the whole family works
        return FoldSolution.infinite(fam)
    roots = real_roots_cubic(*cubic)
    cons = (Constraint.I5(p, m), Constraint.I6(q, pi))
    planes = []
    for u in roots.roots:
        yp, zp = to_yz(u)
        dz = zp - zq
        if abs(dz) <= 1e-12 * (1.0 + abs(zq)):
            continue  # a reflection never keeps z fixed here (q is off pi)
        t = -2.0 * a * (yp - yq) / dz
        cand = fam.plane(t)
        if all(residual(c, cand) < tol for c in cons):
            planes.append(cand)
    return FoldSolution.finite(planes)


def solve_I5_I9(
    p: Point3, m: Line3, n: Line3, tol: float = TOL_INCIDENCE
) -> FoldSolution:
    """Fold placing p onto m while swapping the halves of line n.

    The fold plane must be perpendicular to n, which pins its normal; the
    one-parameter family of (p, m) contains such a plane exactly when n is
    parallel to the plane spanned by p and m but not parallel to m, and then
    the solution is unique.
    """
    fam = family_I5(p, m)
    dn = fam.frame.rotation @ n.direction
    if abs(dn[0]) > 1e-9 or abs(dn[2]) <= 1e-9:
        return FoldSolution.no_solution()
    cand = fam.plane(-2.0 * fam.half_gap * dn[1] / dn[2])
    cons = (Constraint.I5(p, m), Constraint.I9(n))
    if all(residual(c, cand) < tol for c in cons):
        return FoldSolution.finite([cand])
    return FoldSolution.no_solution()


def solve_I6_I8_I11(
    p: Point3, pi: Plane3, q: Point3, tau: Plane3, tol: float = TOL_INCIDENCE
) -> FoldSolution:
    """Fold through q placing p onto pi and swapping the halves of plane tau.

    In the canonical frame of (p, pi) the candidate planes form the
    two-parameter tangent family of the paraboloid; perpendicularity to tau
    is linear in (s, t) and membership of q is quadratic, so there are at
    most two solutions.  A tau parallel to pi leaves the perpendicularity
    unsatisfiable.
    """
    fam = family_I6(p, pi)
    frame, a = fam.frame, fam.half_gap
    qc = frame.apply_point(q).xyz
    tc = frame.apply_plane(tau)
    at, bt, ct, _ = tc.coeffs()
    xq, yq, zq = qc
    if max(abs(at), abs(bt)) <= 1e-12:
        return FoldSolution.no_solution()
    g = 2.0 * a * ct
    if abs(at) >= abs(bt):
        lin = np.array([-bt / at, g / at])  # s as a polynomial in t
        quad = np.polyadd(
            np.polyadd(2.0 * xq * lin, np.array([2.0 * yq, 0.0])),
            np.polyadd(-np.polymul(lin, lin), np.array([-1.0, 0.0, -4.0 * a * zq])),
        )
        to_st = lambda u: (float(np.polyval(lin, u)), u)
    else:
        lin = np.array([-at / bt, g / bt])  # t as a polynomial in s
        quad = np.polyadd(
            np.polyadd(2.0 * yq * lin, np.array([2.0 * xq, 0.0])),
            np.polyadd(-np.polymul(lin, lin), np.array([-1.0, 0.0, -4.0 * a * zq])),
        )
        to_st = lambda u: (u, float(np.polyval(lin, u)))
    quad = _poly_pad(quad, 3)
    roots = real_roots_quadratic(*quad)
    cons = (Constraint.I6(p, pi), Constraint.I8(q), Constraint.I11(tau))
    planes = []
    for u in roots.roots:
        cand = fam.plane(*to_st(u))
        if all(residual(c, cand) < tol for c in cons):
            planes.append(cand)
    return FoldSolution.finite(planes)


def _landing_poly(
    a: float, v: np.ndarray, n: np.ndarray, o: float, at_p: bool
) -> np.ndarray:
    """Coefficients C[i, j] of s^i t^j, in the canonical frame of (p, pi), of
    (4s^2 + 4t^2 + 16a^2) times the signed distance from the plane n . x = o
    of v's image across the fold plane with landing spot (s, t).  This
    cubic's top-degree part is 4 (s^2 + t^2) (n_x s + n_y t).  For v = p it
    factors as (s^2 + t^2 + 4a^2) times a line, which is returned instead.
    Trailing t columns negligible against the whole are trimmed, so the
    t-degree is the actual one: a plane parallel to pi has no t^3 term, and
    its t^2 term vanishes too when v is as high above it as p is above pi.
    """
    if at_p:
        out = np.array([[-a * n[2] - o, n[1]], [n[0], 0.0]])
    else:
        quad = np.zeros((3, 3))  # N . v - (s^2 + t^2), N = (2s, 2t, -4a)
        quad[0, 0], quad[1, 0], quad[0, 1] = -4.0 * a * v[2], 2.0 * v[0], 2.0 * v[1]
        quad[2, 0] = quad[0, 2] = -1.0
        lin = np.array([[-4.0 * a * n[2], 2.0 * n[1]], [2.0 * n[0], 0.0]])  # n . N
        out = np.zeros((4, 4))
        for (i, j), c in np.ndenumerate(quad):
            out[i : i + 2, j : j + 2] -= 2.0 * c * lin
        dist = float(n @ v) - o
        out[0, 0] += 16.0 * a * a * dist
        out[2, 0] += 4.0 * dist
        out[0, 2] += 4.0 * dist
    kept = np.flatnonzero(np.abs(out).max(axis=0) > 1e-9 * np.abs(out).max())
    return out[:, : kept[-1] + 1 if kept.size else 1]


def _t_coeffs(poly: np.ndarray, s) -> np.ndarray:
    """Coefficients in t, highest power first, of poly at each value of s."""
    powers = np.asarray(s)[..., None] ** np.arange(poly.shape[0])
    return (powers @ poly)[..., ::-1]


def _sylvester(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Batched Sylvester matrices of polynomials given by coefficient rows."""
    df, dg = f.shape[-1] - 1, g.shape[-1] - 1
    out = np.zeros(f.shape[:-1] + (df + dg, df + dg), dtype=np.result_type(f, g))
    for i in range(dg):
        out[..., i, i : i + df + 1] = f
    for i in range(df):
        out[..., dg + i, i : i + dg + 1] = g
    return out


def _near_real(roots: np.ndarray) -> list[float]:
    """Real values seeded by polynomial roots: each near-real root z gives
    Re z +- |Im z|, since a near-double real pair may come out as a complex
    pair."""
    near = [z for z in roots if abs(z.imag) <= 1e-3 * max(abs(z.real), 1.0)]
    return list(dict.fromkeys(z.real + d * abs(z.imag) for z in near for d in (-1, 1)))


def _t_axis_turn(n1: np.ndarray, n2: np.ndarray) -> RigidFrame:
    """Turn about z that puts the t axis on the better bisector of the
    normals' xy parts, so both cubics' t^3 coefficients 4 n_y are large
    unless a normal is parallel to z."""
    dirs = [u / norm if (norm := math.hypot(*u)) > 1e-9 else np.zeros(2)
            for u in (n1[:2], n2[:2])]
    axis = max(dirs[0] + dirs[1], dirs[0] - dirs[1], key=np.linalg.norm)
    turn = math.atan2(axis[0], axis[1]) if axis.any() else 0.0
    c, s = math.cos(turn), math.sin(turn)
    return RigidFrame(np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]), np.zeros(3))


def solve_3I6(
    p: Point3,
    q: Point3,
    r: Point3,
    pi: Plane3,
    tau: Plane3,
    rho: Plane3,
    tol: float = 1e-8,
) -> FoldSolution:
    """Fold placing p onto pi, q onto tau, and r onto rho: at most 7 planes.

    In the canonical frame of (p, pi) a candidate plane is determined by the
    landing spot (s, t) of the reflected p, and each remaining condition is
    a cubic in (s, t) (see _landing_poly).  Both cubics' top-degree parts
    carry the factor s^2 + t^2, so two of their 3 x 3 = 9 Bezout points are
    the circular points at infinity and the Sylvester resultant in t has
    degree 7 in s (Cox, Little & O'Shea, *Using Algebraic Geometry*, ch. 3).
    It is interpolated from 8 values on a circle whose radius, the scene's,
    is the unit of length for the Newton and clustering tolerances; the
    Newton tolerance is lowered, when needed, to stay below tol.  Each real
    root s, with every real root t of the first cubic at s (of the second,
    if the first does not involve t), seeds a Gauss-Newton polish, and every
    plane is re-verified with tol.  The result is exhaustive, so it is not
    flagged possibly incomplete.
    Raises IllPosed when two constraints coincide or the two cubics share a
    curve, since the solutions then form a continuum.
    """
    for (p1, f1), (p2, f2) in combinations(((p, pi), (q, tau), (r, rho)), 2):
        if points_equal(p1, p2, 1e-10) and planes_setwise_equal(f1, f2, 1e-10):
            raise IllPosed(
                "two of the point-onto-plane constraints coincide; the "
                "solution set is a continuum, not a finite operation"
            )
    frame, a = canonical_frame_point_plane(p, pi)
    rot = frame.rotation
    frame = _t_axis_turn(rot @ tau.normal_vec, rot @ rho.normal_vec).compose(frame)
    inv = frame.inverse()
    qc, rc = (frame.apply_point(x).xyz for x in (q, r))
    (nt, ot), (nr, orr) = ((x.normal_vec, x.offset) for x in map(frame.apply_plane, (tau, rho)))
    # lengths in units of the scene's radius make every tolerance below scale-free
    scale = max(a, float(np.linalg.norm(qc)), float(np.linalg.norm(rc)), abs(ot), abs(orr))
    a, qc, rc, ot, orr = a / scale, qc / scale, rc / scale, ot / scale, orr / scale
    fq = _landing_poly(a, qc, nt, ot, points_equal(p, q, 1e-10))
    fr = _landing_poly(a, rc, nr, orr, points_equal(p, r, 1e-10))
    circle = np.exp(2j * np.pi * np.arange(8) / 8)
    syl = _sylvester(_t_coeffs(fq, circle), _t_coeffs(fr, circle))
    dets = np.linalg.det(syl)
    # below this, against Hadamard's bound on |det|, a value is rounding noise
    noise = 1e-12 * np.max(np.prod(np.linalg.norm(syl, axis=-1), axis=-1))
    if np.max(np.abs(dets)) <= noise:
        raise IllPosed(
            "the two remaining point-onto-plane conditions share a curve of "
            "fold planes; the solution set is a continuum"
        )
    # coefficients of the resultant, lowest power first; np.roots drops the
    # leading zeros, so a degree below 7 yields no spurious roots
    coeffs = np.fft.fft(dets).real / 8
    coeffs[np.abs(coeffs) <= noise] = 0.0
    # at a root s, the t's come from a condition that still involves t
    ft = fq if fq.shape[1] > 1 else fr
    seeds = [
        (s, t)
        for s in _near_real(np.roots(coeffs[::-1]))
        for t in _near_real(np.roots(_t_coeffs(ft, s)))
    ]
    if not seeds:
        return FoldSolution.no_solution()

    def comps(st: np.ndarray) -> np.ndarray:
        s, t = st[:, 0], st[:, 1]
        normals = np.stack([2 * s, 2 * t, np.full_like(s, -4 * a)], axis=1)
        e = s * s + t * t
        den = np.einsum("ij,ij->i", normals, normals)
        out = []
        for v, n, o in ((qc, nt, ot), (rc, nr, orr)):
            image = v - 2.0 * ((normals @ v - e) / den)[:, None] * normals
            out.append(image @ n - o)
        return np.stack(out, axis=1)

    # Newton stops below the verification tolerance, in units of the radius,
    # or at the rounding floor of residuals of unit size
    roots = newton_multistart(
        comps, np.reshape(seeds, (-1, 2)),
        tol=min(1e-10, max(1e-2 * tol / scale, 1e-15)),
        cluster_tol=1e-6, vectorized=True,
    )
    cons = (Constraint.I6(p, pi), Constraint.I6(q, tau), Constraint.I6(r, rho))
    planes = []
    for s, t in roots:
        unit = Plane3.from_coeffs(2 * s, 2 * t, -4 * a, -(s * s + t * t))
        cand = inv.apply_plane(Plane3(unit.normal, unit.offset * scale))
        if all(residual(c, cand) < tol for c in cons):
            planes.append(cand)
    sol = FoldSolution.finite(planes)
    if sol.count > 7:
        raise IllPosed(
            f"{sol.count} distinct fold planes exceed the algebraic bound of 7; "
            "the configuration is degenerate"
        )
    return sol


# ---------------------------------------------------------------------------
# Generic solver and dispatch
# ---------------------------------------------------------------------------


def _checked_spec(cons: Sequence[Constraint]) -> OperationSpec:
    """The operation of cons; raises InvalidOperation for the three rejected
    combinations and for under-constrained multisets."""
    spec = OperationSpec.from_constraints(cons)
    reason = spec.rejection_reason()
    if reason is not None:
        raise InvalidOperation(f"invalid combination {spec}: {reason}")
    if spec.total_codimension < 3:
        raise InvalidOperation(
            f"{spec} has combined codimension {spec.total_codimension} < 3; "
            "it leaves free fold-plane parameters"
        )
    return spec


# solve_generic's normal scan: theta x phi counts by default, and the most
# normals it scans (about 350 B each, 23 MB at the cap).
SCAN_LATTICE = (14, 28)
MAX_SCAN_NORMALS = MAX_ORACLE_RESOLUTION**2
# Most seeds solve_generic refines, lowest score first.
REFINE_COUNT = 320


def checked_lattice(lattice: Sequence[int]) -> tuple[int, int]:
    """lattice as (n_theta, n_phi); raises DegenerateInput unless it is two
    counts of at least 1 with at most MAX_SCAN_NORMALS normals."""
    counts = tuple(lattice)
    if len(counts) != 2 or min(counts) < 1 or math.prod(counts) > MAX_SCAN_NORMALS:
        raise DegenerateInput(
            "lattice wants two counts (theta x phi) of at least 1 and at most "
            f"{MAX_SCAN_NORMALS} normals, not {'x'.join(map(str, counts))}"
        )
    return counts


def solve_generic(
    constraints: Sequence[Constraint],
    tol: float = 1e-8,
    lattice: tuple[int, int] = SCAN_LATTICE,
) -> FoldSolution:
    """Numeric solver for any valid operation: multistart Gauss-Newton over
    the (theta, phi, d) fold-plane parameters, seeded by numerics.normal_scan
    over lattice[0] x lattice[1] normals, valley floors included (at most
    REFINE_COUNT seeds, lowest score first).  numerics.verified_planes keeps
    the planes below tol, clustered within 1e-7 best residual first.
    Flagged possibly incomplete: a numeric search proves existence, never
    exhaustiveness.  Raises DegenerateInput for a lattice that
    checked_lattice refuses.
    """
    cons = tuple(constraints)
    _checked_spec(cons)
    n_theta, n_phi = checked_lattice(lattice)
    seeds, scores = normal_scan(cons, n_theta, n_phi, valley_floors=True)
    roots = newton_multistart(
        stacked_components_fn(cons),
        seeds[np.argsort(scores, kind="stable")[:REFINE_COUNT]],
        tol=SEARCH_NEWTON_TOL,
        max_iter=SEARCH_MAX_ITER,
        cluster_tol=1e-7,
        vectorized=True,
    )
    planes = [plane for plane, _ in verified_planes(cons, roots, tol, 1e-7)]
    return FoldSolution.finite(planes, possibly_incomplete=True, provenance="generic")


# Dedicated solvers by operation key, called with the payload objects of the
# constraints sorted by kind.  Each solver is looked up by name when called,
# so wrappers set on this module (perfbench/tracing.py) see every dispatch.
_DEDICATED = {
    (1,): lambda objs, tol: solve_I1(*objs, tol=tol),
    (2,): lambda objs, tol: solve_I2(*objs, tol=tol),
    (4,): lambda objs, tol: solve_I4(*objs, tol=tol),
    (12,): lambda objs, tol: solve_I12(*objs),
    (5, 6): lambda objs, tol: solve_I5_I6(*objs, tol=tol),
    (5, 9): lambda objs, tol: solve_I5_I9(*objs, tol=tol),
    (6, 8, 11): lambda objs, tol: solve_I6_I8_I11(*objs, tol=tol),
    # the objects interleave (p, pi, q, tau, r, rho); solve_3I6 takes points first
    (6, 6, 6): lambda objs, tol: solve_3I6(*objs[::2], *objs[1::2], tol=max(tol, 1e-8)),
}


def solve_operation(
    constraints: Sequence[Constraint],
    tol: float = TOL_INCIDENCE,
    lattice: tuple[int, int] = SCAN_LATTICE,
) -> FoldSolution:
    """Solve a fold operation given its constraint payloads.

    Routes the worked combinations to their dedicated solvers and everything
    else to the generic numeric search, which scans lattice normals.  Raises
    InvalidOperation for the three rejected combinations and for
    under-constrained multisets.
    """
    cons = tuple(constraints)
    if not cons:
        raise InvalidOperation("no constraints given")
    solver = _DEDICATED.get(_checked_spec(cons).key)
    if solver is None:
        return solve_generic(cons, tol=max(tol, 1e-8), lattice=lattice)
    by_kind = sorted(cons, key=lambda c: c.kind.index)
    return solver(tuple(obj for c in by_kind for obj in c.objects), tol)
