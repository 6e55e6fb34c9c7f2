"""Shared random-instance generators for the test suite.

All generators take a numpy Generator so tests stay reproducible; scenes are
desk scale (coordinates within a few units of the origin) and degenerate
configurations are rejected with a separation margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from unittest import mock

import numpy as np

from fold3d import (
    Constraint,
    IncidenceKind,
    InvalidConstraint,
    Line3,
    OperationSpec,
    Plane3,
    Point3,
    RigidFrame,
    canonical_frame_point_line,
    canonical_frame_point_plane,
    enumerate_operations,
    grid_oracle,
    reflect_point,
    solve_generic,
)
from fold3d.constraints import payload_radius, stacked_residual_grid
from fold3d.numerics import _stacked_components, params_to_planes

MARGIN = 0.3


def random_unit(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_point(rng, scale: float = 2.0) -> Point3:
    return Point3(*rng.uniform(-scale, scale, 3))


def random_line(rng, scale: float = 2.0) -> Line3:
    return Line3(random_point(rng, scale), tuple(random_unit(rng)))


def random_plane(rng, scale: float = 2.0) -> Plane3:
    return Plane3(tuple(random_unit(rng)), rng.uniform(-scale, scale))


def random_frame(rng) -> RigidFrame:
    e1 = random_unit(rng)
    e2 = np.cross(random_unit(rng), e1)
    e2 /= np.linalg.norm(e2)
    e3 = np.cross(e1, e2)
    rot = np.vstack([e1, e2, e3])
    return RigidFrame(rot, rng.uniform(-2, 2, 3))


def point_off_line(rng, scale: float = 2.0) -> tuple[Point3, Line3]:
    while True:
        p, m = random_point(rng, scale), random_line(rng, scale)
        if m.distance_to_point(p) > MARGIN:
            return p, m


def point_off_plane(rng, scale: float = 2.0) -> tuple[Point3, Plane3]:
    while True:
        p, pi = random_point(rng, scale), random_plane(rng, scale)
        if pi.distance(p) > MARGIN:
            return p, pi


def instance_i5_i6(rng) -> list[Constraint]:
    p, m = point_off_line(rng)
    q, pi = point_off_plane(rng)
    return [Constraint.I5(p, m), Constraint.I6(q, pi)]


def instance_i5_i9(rng, solvable: bool) -> list[Constraint]:
    """I5 plus a half-line swap; n's direction is placed in the span of
    (p, m) when a solvable instance is requested."""
    p, m = point_off_line(rng)
    if solvable:
        frame, _ = canonical_frame_point_line(p, m)
        dy = rng.uniform(-1.5, 1.5)
        dz = rng.uniform(0.3, 1.0) * rng.choice([-1.0, 1.0])
        d_can = np.array([0.0, dy, dz])
        d_can /= np.linalg.norm(d_can)
        n = Line3(random_point(rng), tuple(frame.rotation.T @ d_can))
    else:
        n = random_line(rng)
    return [Constraint.I5(p, m), Constraint.I9(n)]


def instance_i6_i8_i11(rng) -> list[Constraint]:
    p, pi = point_off_plane(rng)
    return [
        Constraint.I6(p, pi),
        Constraint.I8(random_point(rng)),
        Constraint.I11(random_plane(rng)),
    ]


def instance_3i6(rng) -> list[Constraint]:
    out = []
    for _ in range(3):
        p, pi = point_off_plane(rng)
        out.append(Constraint.I6(p, pi))
    return out


def skew_lines(rng, scale: float = 2.0) -> tuple[Line3, Line3]:
    from fold3d.geometry import line_line_closest

    while True:
        m, n = random_line(rng, scale), random_line(rng, scale)
        _, _, dist, parallel = line_line_closest(m, n)
        if not parallel and dist > MARGIN:
            return m, n


def parallel_lines(rng, scale: float = 2.0) -> tuple[Line3, Line3]:
    m = random_line(rng, scale)
    shift = random_unit(rng)
    shift -= (shift @ m.direction) * m.direction
    norm = np.linalg.norm(shift)
    if norm < 0.1:
        return parallel_lines(rng, scale)
    shift = shift / norm * rng.uniform(MARGIN, 2.0)
    n = Line3(Point3(*(m.base.xyz + shift)), m.dir)
    return m, n


def line_parallel_to_plane(rng, scale: float = 2.0) -> tuple[Line3, Plane3]:
    """A line parallel to a plane and at least MARGIN off it."""
    while True:
        m, pi = random_line(rng, scale), random_plane(rng, scale)
        d = m.direction - (m.direction @ pi.normal_vec) * pi.normal_vec
        if np.linalg.norm(d) > 0.1 and pi.distance(m.base) > MARGIN:
            return Line3(m.base, tuple(d)), pi


def coplanar_crossing_lines(rng, scale: float = 2.0) -> tuple[Line3, Line3]:
    x = random_point(rng, scale)
    d1 = random_unit(rng)
    while True:
        d2 = random_unit(rng)
        if np.linalg.norm(np.cross(d1, d2)) > 0.2:
            break
    return Line3(x, tuple(d1)), Line3(x, tuple(d2))


CLOSE_PAIRS = ("I5", "I3-skew", "I3-parallel", "I7-parallel")


def close_pair(rng, pair: str, h: float) -> tuple:
    """The payload objects of a separated pair of CLOSE_PAIRS whose second
    object is h from a random line m: an I5 point off m, a skew or parallel
    line (the common perpendicular along u) and a plane parallel to m."""
    m = random_line(rng)
    d = m.direction
    u = np.cross(d, random_unit(rng))
    u /= np.linalg.norm(u)
    x = m.point_at(rng.uniform(-1.0, 1.0)).xyz + h * u
    if pair == "I5":
        return Point3(*x), m
    if pair == "I3-skew":
        turn = rng.uniform(0.3, 1.3)
        return m, Line3(Point3(*x), tuple(math.cos(turn) * d + math.sin(turn) * np.cross(d, u)))
    if pair == "I3-parallel":
        return m, Line3(Point3(*x), tuple(d))
    return m, Plane3.from_point_normal(x, u)


def random_payload(rng, kind: IncidenceKind) -> Constraint:
    """An admissible random payload of one incidence kind."""

    def distinct_points():
        while True:
            p, q = random_point(rng), random_point(rng)
            if p.distance_to(q) > MARGIN:
                return p, q

    def crossing_planes():
        while True:
            pi, tau = random_plane(rng), random_plane(rng)
            if np.linalg.norm(np.cross(pi.normal_vec, tau.normal_vec)) > MARGIN:
                return pi, tau

    def line_crossing_plane():
        while True:
            m, pi = random_line(rng), random_plane(rng)
            if abs(float(m.direction @ pi.normal_vec)) > MARGIN:
                return m, pi

    make = {
        IncidenceKind.I1: distinct_points,
        IncidenceKind.I2: lambda: coplanar_crossing_lines(rng),
        IncidenceKind.I3: lambda: skew_lines(rng),
        IncidenceKind.I4: crossing_planes,
        IncidenceKind.I5: lambda: point_off_line(rng),
        IncidenceKind.I6: lambda: point_off_plane(rng),
        IncidenceKind.I7: line_crossing_plane,
        IncidenceKind.I8: lambda: (random_point(rng),),
        IncidenceKind.I9: lambda: (random_line(rng),),
        IncidenceKind.I10: lambda: (random_line(rng),),
        IncidenceKind.I11: lambda: (random_plane(rng),),
        IncidenceKind.I12: lambda: (random_plane(rng),),
    }[kind]
    return Constraint(kind, tuple(make()))


def scaled_constraint(c: Constraint, k: float) -> Constraint:
    """c with its payload scaled by k about the origin."""

    def scaled(obj):
        if isinstance(obj, Point3):
            return Point3(*(k * obj.xyz))
        if isinstance(obj, Line3):
            return Line3(Point3(*(k * obj.base.xyz)), obj.dir)
        return Plane3(obj.normal, k * obj.offset)

    return Constraint(c.kind, tuple(scaled(obj) for obj in c.objects))


def payload_on_plane(rng, kind: IncidenceKind, plane: Plane3) -> Constraint:
    """A random payload of kind I1, I5, I6, I8, I9, I10 or I11 that the fold
    plane satisfies."""
    n = plane.normal_vec

    def on_plane(x: Point3) -> Point3:
        return Point3(*(x.xyz - plane.signed_distance(x) * n))

    def along_plane() -> np.ndarray:
        while True:
            d = random_unit(rng)
            d -= (d @ n) * n
            if np.linalg.norm(d) > MARGIN:
                return d / np.linalg.norm(d)

    while True:
        p = random_point(rng)
        if plane.distance(p) > MARGIN:
            break
    image = reflect_point(plane, p)
    while True:
        m = Line3(image, tuple(random_unit(rng)))
        pi = Plane3.from_point_normal(image.xyz, random_unit(rng))
        if m.distance_to_point(p) > MARGIN and pi.distance(p) > MARGIN:
            break
    make = {
        IncidenceKind.I1: lambda: (p, image),
        IncidenceKind.I5: lambda: (p, m),
        IncidenceKind.I6: lambda: (p, pi),
        IncidenceKind.I8: lambda: (on_plane(random_point(rng)),),
        IncidenceKind.I9: lambda: (Line3(random_point(rng), tuple(n)),),
        IncidenceKind.I10: lambda: (Line3(on_plane(random_point(rng)), tuple(along_plane())),),
        IncidenceKind.I11: lambda: (Plane3(tuple(along_plane()), rng.uniform(-2, 2)),),
    }[kind]
    return Constraint(kind, make())


# The worked operations: the four kinds that fix the fold plane alone, I5+I6,
# I5+I9, I6+I8+I11 and 3I6.
WORKED_KEYS = {(1,), (2,), (4,), (12,), (5, 6), (5, 9), (6, 8, 11), (6, 6, 6)}


def generic_specs() -> list[OperationSpec]:
    """The 39 valid operations that are not worked ones, all of which
    solve_operation routes to solve_exact."""
    valid, _ = enumerate_operations()
    return [s for s in valid if s.key not in WORKED_KEYS]


def generic_newton_args(cons) -> tuple[tuple, dict]:
    """The arguments solve_generic passes to newton_multistart for cons:
    the residual, its normal-scan seeds and the options."""
    calls = []

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        return []

    with mock.patch("fold3d.numerics.newton_multistart", record):
        solve_generic(cons)
    ((args, kwargs),) = calls
    return args, kwargs


def windowed_counts(cons, solution, resolution=48, n_offsets=64):
    """Dedicated vs oracle plane counts, both restricted to the offset window
    of acceptance criterion 4: three payload radii, minus a two-cell margin
    of an n_offsets lattice over it."""
    window = 3.0 * payload_radius(cons)
    margin = 2.0 * (2.0 * window / n_offsets)
    w_eff = window - margin
    oracle = grid_oracle(cons, resolution=resolution, n_offsets=n_offsets)
    ded = sum(1 for pl in solution.planes if abs(pl.offset) <= w_eff)
    orc = sum(1 for pl, _ in oracle.clusters if abs(pl.offset) <= w_eff)
    return ded, orc


@dataclass(frozen=True)
class SystemInstance3I6:
    """One solution of the triple point-onto-plane system, in the canonical
    frame, carrying the image points and the elimination scalars.

    ``residual_vector`` evaluates the defining relations directly: the two
    midpoint-on-plane identities, image-segment parallelism (scale ell),
    the normal proportionality (scale k), and the two plane memberships.
    """

    half_gap: float
    q: tuple[float, float, float]
    q_image: tuple[float, float, float]
    r: tuple[float, float, float]
    r_image: tuple[float, float, float]
    s: float
    t: float
    k: float
    ell: float
    tau_coeffs: tuple[float, float, float, float]
    rho_coeffs: tuple[float, float, float, float]

    @classmethod
    def from_plane(
        cls,
        p: Point3,
        q: Point3,
        r: Point3,
        pi: Plane3,
        tau: Plane3,
        rho: Plane3,
        plane: Plane3,
    ) -> "SystemInstance3I6":
        frame, a = canonical_frame_point_plane(p, pi)
        pc = frame.apply_plane(plane)
        # scale the plane equation so the z coefficient is -4a
        na = pc.normal_vec
        f = -4.0 * a / na[2]
        s, t = na[0] * f / 2.0, na[1] * f / 2.0
        delta = Plane3.from_coeffs(2 * s, 2 * t, -4 * a, -(s * s + t * t))
        qc = frame.apply_point(q)
        rc = frame.apply_point(r)
        q_img = reflect_point(delta, qc)
        r_img = reflect_point(delta, rc)
        dq = q_img.xyz - qc.xyz
        dr = r_img.xyz - rc.xyz
        i = int(np.argmax(np.abs(dr)))
        ell = float(dq[i] / dr[i]) if abs(dr[i]) > 1e-300 else math.inf
        k = float(-2.0 * a / dq[2]) if abs(dq[2]) > 1e-300 else math.inf
        return cls(
            a,
            tuple(qc.xyz),
            tuple(q_img.xyz),
            tuple(rc.xyz),
            tuple(r_img.xyz),
            s,
            t,
            k,
            ell,
            frame.apply_plane(tau).coeffs(),
            frame.apply_plane(rho).coeffs(),
        )

    def residual_vector(self) -> np.ndarray:
        a = self.half_gap
        qv, qi = np.array(self.q), np.array(self.q_image)
        rv, ri = np.array(self.r), np.array(self.r_image)

        def midpoint_relation(v: np.ndarray, vi: np.ndarray) -> float:
            d = v - vi
            return float(
                2.0 * a * (d[0] ** 2 + d[1] ** 2)
                + (v[0] ** 2 - vi[0] ** 2) * d[2]
                + (v[1] ** 2 - vi[1] ** 2) * d[2]
                + (v[2] ** 2 - vi[2] ** 2) * d[2]
            )

        prop_ell = (qi - qv) - self.ell * (ri - rv)
        prop_k = np.array([self.s, self.t, -2.0 * a]) - self.k * (qi - qv)
        at, bt, ct, dt = self.tau_coeffs
        ar, br, cr, dr = self.rho_coeffs
        members = np.array(
            [
                at * qi[0] + bt * qi[1] + ct * qi[2] + dt,
                ar * ri[0] + br * ri[1] + cr * ri[2] + dr,
            ]
        )
        return np.concatenate(
            [
                [midpoint_relation(qv, qi), midpoint_relation(rv, ri)],
                prop_ell,
                prop_k,
                members,
            ]
        )


def reference_newton_multistart(
    residual,
    seeds,
    tol: float = 1e-10,
    max_iter: int = 60,
    cluster_tol: float = 1e-6,
    fd_step: float = 1e-7,
    vectorized: bool = False,
) -> list[np.ndarray]:
    """The sequential damped Gauss-Newton multistart that
    ``fold3d.numerics.newton_multistart`` replaced, kept verbatim as the
    reference its results are checked against: every line-search halving
    runs over the whole active batch, the step is pinv(J) r, and clustering
    compares candidates pairwise.

    Roots of a residual vector function from every seed, deduplicated; no
    seeds give no roots, as in newton_multistart.

    ``residual`` maps a parameter vector (d,) to a residual vector (m,);
    with ``vectorized=True`` it must accept an (n, d) batch and return
    (n, m).  The Jacobian is a central finite difference with step
    fd_step * (1 + |x|).  Deterministic: fixed iteration order, stable
    clustering (candidates ranked by residual norm, result sorted
    lexicographically).
    """
    x = np.asarray(seeds, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    x = np.array(x, dtype=float)
    n, d = x.shape
    if n == 0:
        return []

    if vectorized:
        def rf(batch: np.ndarray) -> np.ndarray:
            out = np.asarray(residual(batch), dtype=float)
            return out.reshape(batch.shape[0], -1)
    else:
        def rf(batch: np.ndarray) -> np.ndarray:
            rows = [np.atleast_1d(np.asarray(residual(row), dtype=float)) for row in batch]
            return np.vstack(rows)

    r = rf(x)
    m = r.shape[1]
    norms = np.linalg.norm(r, axis=1)
    norms = np.where(np.isfinite(norms), norms, np.inf)
    converged = norms < tol
    stalled = ~np.isfinite(norms)

    for _ in range(max_iter):
        active = ~(converged | stalled)
        if not active.any():
            break
        xa = x[active]
        ra = r[active]
        na = norms[active]
        ka = xa.shape[0]
        # all 2*d central-difference probes x +- h_j e_j in one residual batch
        h = fd_step * (1.0 + np.abs(xa))
        probes = np.repeat(xa[None, None], 2, axis=0).repeat(d, axis=1)
        for j in range(d):
            probes[0, j, :, j] += h[:, j]
            probes[1, j, :, j] -= h[:, j]
        rp = rf(probes.reshape(-1, d)).reshape(2, d, ka, m)
        jac = ((rp[0] - rp[1]) / (2.0 * h.T)[:, :, None]).transpose(1, 2, 0)
        bad = ~np.isfinite(jac).all(axis=(1, 2))
        jac[bad] = np.eye(m, d)[None, :, :]
        step = np.einsum("kdm,km->kd", np.linalg.pinv(jac), ra)
        step_bad = bad | ~np.isfinite(step).all(axis=1)
        # backtracking line search, individually per seed
        alpha = np.ones(ka)
        improved = np.zeros(ka, dtype=bool)
        xn, rn, nn = xa.copy(), ra.copy(), na.copy()
        for _ in range(10):
            todo = ~improved & ~step_bad
            if not todo.any():
                break
            trial = xa - alpha[:, None] * step
            rt = rf(trial)
            nt = np.linalg.norm(rt, axis=1)
            nt = np.where(np.isfinite(nt), nt, np.inf)
            better = todo & (nt < na)
            xn[better] = trial[better]
            rn[better] = rt[better]
            nn[better] = nt[better]
            improved |= better
            alpha = np.where(improved, alpha, alpha * 0.5)
        idx = np.flatnonzero(active)
        x[idx] = xn
        r[idx] = rn
        norms[idx] = nn
        newly_stalled = idx[~improved]
        stalled[newly_stalled[norms[newly_stalled] >= tol]] = True
        converged = norms < tol

    candidates = [(norms[i], x[i]) for i in np.flatnonzero(converged)]
    candidates.sort(key=lambda t: t[0])
    kept: list[np.ndarray] = []
    for _, v in candidates:
        if all(np.linalg.norm(v - w) > cluster_tol for w in kept):
            kept.append(v)
    kept.sort(key=lambda v: tuple(v))
    return kept


def reference_normal_scan(constraints, n_theta: int, n_phi: int, valley_floors: bool):
    """The full-sphere normal scan that ``fold3d.numerics.normal_scan``
    replaced, kept verbatim as the reference its seeds are checked against:
    it scores every cell, so both seeds of a twin pair (theta, phi, d) and
    (pi - theta, phi + pi, -d), the same plane, are usually kept."""
    cons = tuple(constraints)
    radius = payload_radius(cons)
    thetas = (np.arange(n_theta) + 0.5) * math.pi / n_theta
    phis = np.arange(n_phi) * 2.0 * math.pi / n_phi
    th, ph = (a.ravel() for a in np.meshgrid(thetas, phis, indexing="ij"))
    normals, _ = params_to_planes(np.stack([th, ph, np.zeros_like(th)], axis=1))
    a = _stacked_components(cons, normals, np.zeros_like(th))
    b = _stacked_components(cons, normals, np.ones_like(th)) - a
    bb = np.einsum("ij,ij->i", b, b)
    valid = bb > 1e-12 * bb.max()
    dstar = np.zeros_like(th)
    dstar[valid] = -np.einsum("ij,ij->i", a[valid], b[valid]) / bb[valid]
    score = np.full_like(th, np.inf)
    score[valid] = stacked_residual_grid(cons, normals[valid], dstar[valid]) * (
        (radius + 1.0) / (radius + np.abs(dstar[valid]) + 1.0)
    )
    # local minima: theta neighbours beyond the poles count as +inf, phi wraps
    s = score.reshape(n_theta, n_phi)
    padded = np.pad(s, ((1, 1), (0, 0)), constant_values=np.inf)
    low = s < 3.0 * (radius + 1.0) * math.pi / n_theta
    along_theta = (s <= padded[:-2]) & (s <= padded[2:])
    along_phi = (s <= np.roll(s, 1, axis=1)) & (s <= np.roll(s, -1, axis=1))
    i, j = np.nonzero(low & along_theta & along_phi)
    last = n_theta - 1
    rows = [i, np.minimum(i + 1, last), np.maximum(i - 1, 0), i, i]
    cols = [j, j, j, (j + 1) % n_phi, (j - 1) % n_phi]
    if valley_floors:
        i, j = np.nonzero(low & (along_theta | along_phi))
        rows.append(i)
        cols.append(j)
    cells = np.unique(np.concatenate(rows) * n_phi + np.concatenate(cols))
    cells = cells[valid[cells]]
    return np.stack([th[cells], ph[cells], dstar[cells]], axis=1)


# ---------------------------------------------------------------------------
# Reference residuals: the two per-kind if-chains that the kind table in
# fold3d.constraints replaced, kept verbatim but for one edit: the row-wise
# contraction _dot replaced A @ v (BLAS gemv, whose rounding depends on the
# batch), as in the table.  The table's residual_grid and
# residual_components_grid are checked to equal them bit for bit.
# ---------------------------------------------------------------------------


def _dot(A: np.ndarray, v: np.ndarray) -> np.ndarray:
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


def _closest_to_origin(B: np.ndarray, D: np.ndarray) -> np.ndarray:
    t = np.einsum("ij,ij->i", B, D)
    return B - t[:, None] * D


def reference_residual_grid(c: Constraint, N: np.ndarray, O: np.ndarray) -> np.ndarray:
    """Scalar residual of each candidate plane (unit normals N, offsets O)."""
    k = c.kind
    if k is IncidenceKind.I1:
        p, q = c.objects
        return _row_norm(_reflect_pts(N, O, p.xyz) - q.xyz)
    if k is IncidenceKind.I2:
        m, n = c.objects
        B = _reflect_pts(N, O, m.base.xyz)
        D = _reflect_dirs(N, m.direction)
        ang = _asin_clip(_row_norm(np.cross(D, n.direction)))
        gap = _row_norm(_closest_to_origin(B, D) - n.base.xyz)
        return ang + gap
    if k is IncidenceKind.I3:
        m, n = c.objects
        B = _reflect_pts(N, O, m.base.xyz)
        D = _reflect_dirs(N, m.direction)
        w = n.base.xyz - B
        cr = np.cross(D, np.broadcast_to(n.direction, D.shape))
        s = _row_norm(cr)
        skew = np.abs(np.einsum("ij,ij->i", w, cr)) / np.where(s > 1e-12, s, 1.0)
        para = _row_norm(w - np.einsum("ij,ij->i", w, D)[:, None] * D)
        return np.where(s > 1e-12, skew, para)
    if k is IncidenceKind.I4:
        pi, tau = c.objects
        n2 = _reflect_dirs(N, pi.normal_vec)
        f2 = _reflect_pts(N, O, pi.foot.xyz)
        o2 = np.einsum("ij,ij->i", n2, f2)
        ang = _asin_clip(_row_norm(np.cross(n2, tau.normal_vec)))
        gap = _row_norm(o2[:, None] * n2 - tau.offset * tau.normal_vec)
        return ang + gap
    if k is IncidenceKind.I5:
        p, m = c.objects
        P2 = _reflect_pts(N, O, p.xyz)
        v = P2 - m.base.xyz
        d = m.direction
        return _row_norm(v - _dot(v, d)[:, None] * d)
    if k is IncidenceKind.I6:
        p, pi = c.objects
        P2 = _reflect_pts(N, O, p.xyz)
        return np.abs(_dot(P2, pi.normal_vec) - pi.offset)
    if k is IncidenceKind.I7:
        m, pi = c.objects
        a = _reflect_pts(N, O, m.base.xyz)
        b = _reflect_pts(N, O, m.base.xyz + m.direction)
        da = np.abs(_dot(a, pi.normal_vec) - pi.offset)
        db = np.abs(_dot(b, pi.normal_vec) - pi.offset)
        return np.maximum(da, db)
    if k is IncidenceKind.I8:
        (p,) = c.objects
        return np.abs(_dot(N, p.xyz) - O)
    if k is IncidenceKind.I9:
        (m,) = c.objects
        return _asin_clip(_row_norm(np.cross(N, m.direction)))
    if k is IncidenceKind.I10:
        (m,) = c.objects
        return np.abs(_asin_clip(_dot(N, m.direction))) + np.abs(_dot(N, m.base.xyz) - O)
    if k is IncidenceKind.I11:
        (pi,) = c.objects
        return np.abs(_asin_clip(_dot(N, pi.normal_vec)))
    if k is IncidenceKind.I12:
        (pi,) = c.objects
        ang = _asin_clip(_row_norm(np.cross(N, pi.normal_vec)))
        gap = _row_norm(O[:, None] * N - pi.offset * pi.normal_vec)
        return ang + gap
    raise InvalidConstraint(f"unknown constraint kind {k}")


def reference_residual_components_grid(c: Constraint, N: np.ndarray, O: np.ndarray) -> np.ndarray:
    """Signed smooth residual components of each candidate plane, shape (k, m)."""
    k = c.kind
    if k is IncidenceKind.I1:
        p, q = c.objects
        return _reflect_pts(N, O, p.xyz) - q.xyz
    if k is IncidenceKind.I2:
        m, n = c.objects
        B = _reflect_pts(N, O, m.base.xyz)
        D = _reflect_dirs(N, m.direction)
        cr = np.cross(D, np.broadcast_to(n.direction, D.shape))
        gap = _closest_to_origin(B, D) - n.base.xyz
        return np.concatenate([cr, gap], axis=1)
    if k is IncidenceKind.I3:
        m, n = c.objects
        B = _reflect_pts(N, O, m.base.xyz)
        D = _reflect_dirs(N, m.direction)
        w = n.base.xyz - B
        cr = np.cross(D, np.broadcast_to(n.direction, D.shape))
        return np.einsum("ij,ij->i", w, cr)[:, None]
    if k is IncidenceKind.I4:
        pi, tau = c.objects
        n2 = _reflect_dirs(N, pi.normal_vec)
        f2 = _reflect_pts(N, O, pi.foot.xyz)
        o2 = np.einsum("ij,ij->i", n2, f2)
        cr = np.cross(n2, np.broadcast_to(tau.normal_vec, n2.shape))
        gap = o2[:, None] * n2 - tau.offset * tau.normal_vec
        return np.concatenate([cr, gap], axis=1)
    if k is IncidenceKind.I5:
        p, m = c.objects
        P2 = _reflect_pts(N, O, p.xyz)
        v = P2 - m.base.xyz
        d = m.direction
        return v - _dot(v, d)[:, None] * d
    if k is IncidenceKind.I6:
        p, pi = c.objects
        P2 = _reflect_pts(N, O, p.xyz)
        return (_dot(P2, pi.normal_vec) - pi.offset)[:, None]
    if k is IncidenceKind.I7:
        m, pi = c.objects
        a = _reflect_pts(N, O, m.base.xyz)
        b = _reflect_pts(N, O, m.base.xyz + m.direction)
        return np.stack(
            [_dot(a, pi.normal_vec) - pi.offset, _dot(b, pi.normal_vec) - pi.offset], axis=1
        )
    if k is IncidenceKind.I8:
        (p,) = c.objects
        return (_dot(N, p.xyz) - O)[:, None]
    if k is IncidenceKind.I9:
        (m,) = c.objects
        return np.cross(N, np.broadcast_to(m.direction, N.shape))
    if k is IncidenceKind.I10:
        (m,) = c.objects
        return np.stack([_dot(N, m.direction), _dot(N, m.base.xyz) - O], axis=1)
    if k is IncidenceKind.I11:
        (pi,) = c.objects
        return (_dot(N, pi.normal_vec))[:, None]
    if k is IncidenceKind.I12:
        (pi,) = c.objects
        cr = np.cross(N, np.broadcast_to(pi.normal_vec, N.shape))
        gap = O[:, None] * N - pi.offset * pi.normal_vec
        return np.concatenate([cr, gap], axis=1)
    raise InvalidConstraint(f"unknown constraint kind {k}")


# ---------------------------------------------------------------------------
# Reference mesh faces and OBJ writer: the per-element loops that
# meshing._grid and meshing.write_obj replace, kept to compare bytes against
# ---------------------------------------------------------------------------


def reference_grid_faces(resolution: int) -> list:
    faces = []
    for i in range(resolution - 1):
        for j in range(resolution - 1):
            a = i * resolution + j
            b = a + 1
            c = a + resolution
            d = c + 1
            faces.append((a, c, b))
            faces.append((b, c, d))
    return faces


def reference_write_obj(path, objects: list[tuple[str, np.ndarray, list]]) -> None:
    lines = []
    offset = 0
    for name, verts, faces in objects:
        lines.append(f"o {name}")
        for v in verts:
            lines.append(f"v {v[0]:.17g} {v[1]:.17g} {v[2]:.17g}")
        for f in faces:
            lines.append("f " + " ".join(str(i + 1 + offset) for i in f))
        offset += len(verts)
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Reference exact-solver kernels: the per-call loops that operations'
# chart tables, _distinct's one-SVD test and plane_gap's scalar form
# replace, kept to compare against
# ---------------------------------------------------------------------------


def reference_contract(form: np.ndarray, x: np.ndarray, times: int) -> np.ndarray:
    """The symmetric tensor form with times of its slots filled by each row
    of x: form(x, ..., x) when times is its order, and its gradient at x
    over the order when one less."""
    if times == 0:
        return np.broadcast_to(form, x.shape[:-1] + form.shape)
    out = x @ form.reshape(3, -1)
    for _ in range(times - 1):
        out = np.einsum("si,sij->sj", x, out.reshape(len(x), 3, -1))
    return out.reshape(x.shape[:-1] + form.shape[times:])


def reference_t_rows(form: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficients in t, highest power first, of form(a + t b) for each row
    of a: binomial(m, j) form(b, .., b, a, .., a) with j slots b for t^j."""
    m, rows = form.ndim, [reference_contract(form, a, form.ndim)]
    for j in range(1, m + 1):
        form = form @ b
        rows.append(math.comb(m, j) * reference_contract(form, a, m - j))
    return np.stack(rows[::-1], axis=-1)


def reference_distinct(forms, count: int, rel_tol: float) -> list[np.ndarray]:
    """The first count, or fewer, of forms that are linearly independent of
    those kept before them, one SVD per form."""
    kept: list[np.ndarray] = []
    for form in forms:
        stack = np.array([x.ravel() for x in kept + [form]])
        sv = np.linalg.svd(stack, compute_uv=False)
        if np.linalg.norm(form) > rel_tol and np.count_nonzero(sv > rel_tol * sv[0]) > len(kept):
            kept.append(form)
    return kept[:count]


def reference_plane_gap(a: Plane3, b: Plane3) -> float:
    na, nb = a.normal_vec, b.normal_vec
    s = 1.0 if float(na @ nb) >= 0 else -1.0
    ang = math.asin(min(1.0, float(np.linalg.norm(np.cross(na, s * nb)))))
    return ang + abs(a.offset - s * b.offset)


# ---------------------------------------------------------------------------
# Reference root polish: the np.polyval form numerics._polish replaces with a
# scalar Horner loop, kept to compare bits against
# ---------------------------------------------------------------------------


def reference_polish(coeffs, x: float) -> float:
    p = float(np.polyval(coeffs, x))
    dp = float(np.polyval(np.polyder(np.asarray(coeffs, dtype=float)), x))
    if abs(dp) > 1e-30:
        y = x - p / dp
        if abs(np.polyval(coeffs, y)) <= abs(p):
            return y
    return x
