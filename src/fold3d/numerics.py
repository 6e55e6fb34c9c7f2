"""Root-finding primitives and the brute-force fold-plane oracle.

The oracle scans the full 3-parameter space of candidate fold planes
(normal direction angles theta/phi plus signed offset d), refines every
promising grid cell with damped Gauss-Newton on the smooth signed residual
components, and clusters the converged planes.  It is deliberately
independent of the closed-form solvers so it can serve as ground truth for
solution counting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constraints import (
    Constraint,
    payload_radius,
    residual_components_grid,
    residual_grid,
    stacked_residual_grid,
)
from .errors import AllRealLine, DegenerateInput
from .geometry import Plane3, plane_gap


def _clamp(x: float, lo: float = -1.0, hi: float = 1.0) -> float:
    return min(hi, max(lo, x))


@dataclass(frozen=True)
class RealRoots:
    """Sorted real roots with multiplicity flags."""

    roots: tuple[float, ...]
    multiplicities: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.roots)


def _polish(coeffs, x: float) -> float:
    p = float(np.polyval(coeffs, x))
    dp = float(np.polyval(np.polyder(np.asarray(coeffs, dtype=float)), x))
    if abs(dp) > 1e-30:
        y = x - p / dp
        if abs(np.polyval(coeffs, y)) <= abs(p):
            return y
    return x


def _sorted_roots(coeffs, pairs) -> RealRoots:
    polished = [(_polish(coeffs, r), m) for r, m in pairs]
    polished.sort(key=lambda rm: rm[0])
    return RealRoots(
        tuple(r for r, _ in polished), tuple(m for _, m in polished)
    )


def real_roots_quadratic(
    c2: float, c1: float, c0: float, rel_tol: float = 1e-12
) -> RealRoots:
    """Real roots of c2 x^2 + c1 x + c0, numerically stable.

    Raises AllRealLine when the polynomial is identically zero and
    DegenerateInput when it reduces to a nonzero constant.
    """
    scale = max(abs(c2), abs(c1), abs(c0))
    if scale == 0.0:
        raise AllRealLine("all quadratic coefficients vanish")
    if abs(c2) <= rel_tol * scale:
        if abs(c1) <= rel_tol * scale:
            raise DegenerateInput("constant nonzero equation has no roots")
        return RealRoots((-c0 / c1,), (1,))
    disc = c1 * c1 - 4.0 * c2 * c0
    dscale = max(c1 * c1, abs(4.0 * c2 * c0))
    if dscale == 0.0:
        return RealRoots((0.0,), (2,))
    if disc < -rel_tol * dscale:
        return RealRoots((), ())
    if disc <= rel_tol * dscale:
        return RealRoots((-c1 / (2.0 * c2),), (2,))
    sq = math.sqrt(disc)
    qq = -(c1 + math.copysign(sq, c1)) / 2.0
    if qq == 0.0:  # c1 == 0
        r = math.sqrt(-c0 / c2)
        pairs = [(-r, 1), (r, 1)]
    else:
        pairs = [(qq / c2, 1), (c0 / qq, 1)]
    return _sorted_roots((c2, c1, c0), pairs)


def real_roots_cubic(
    c3: float, c2: float, c1: float, c0: float, rel_tol: float = 1e-12
) -> RealRoots:
    """Real roots of c3 x^3 + ... + c0; delegates to the quadratic when the
    leading coefficient is negligible.  Every root gets one Newton polish."""
    scale = max(abs(c3), abs(c2), abs(c1), abs(c0))
    if scale == 0.0:
        raise AllRealLine("all cubic coefficients vanish")
    if abs(c3) <= rel_tol * scale:
        return real_roots_quadratic(c2, c1, c0, rel_tol)
    b, c, d = c2 / c3, c1 / c3, c0 / c3
    shift = b / 3.0
    big_a = c - b * b / 3.0
    big_b = 2.0 * b**3 / 27.0 - b * c / 3.0 + d
    disc = -4.0 * big_a**3 - 27.0 * big_b * big_b
    dscale = max(abs(big_a) ** 3, big_b * big_b, 1e-300)
    thr = rel_tol * dscale
    coeffs = (c3, c2, c1, c0)
    if disc > thr:
        mag = 2.0 * math.sqrt(-big_a / 3.0)
        arg = _clamp(3.0 * big_b / (big_a * mag))
        th = math.acos(arg) / 3.0
        pairs = [
            (mag * math.cos(th - 2.0 * math.pi * k / 3.0) - shift, 1) for k in range(3)
        ]
        return _sorted_roots(coeffs, pairs)
    if disc < -thr:
        half = -big_b / 2.0
        rad = math.sqrt(big_b * big_b / 4.0 + big_a**3 / 27.0)
        u = half + math.copysign(rad, half) if half != 0.0 else rad
        cr = math.copysign(abs(u) ** (1.0 / 3.0), u)
        root = cr - big_a / (3.0 * cr) if cr != 0.0 else 0.0
        return _sorted_roots(coeffs, [(root - shift, 1)])
    # multiple-root region
    u_scale = max(1.0, abs(b), abs(c) ** 0.5, abs(d) ** (1.0 / 3.0))
    if abs(big_a) <= 1e-10 * u_scale**2 and abs(big_b) <= 1e-10 * u_scale**3:
        return RealRoots((_polish(coeffs, -shift),), (3,))
    alpha = -3.0 * big_b / (2.0 * big_a)
    beta = -2.0 * alpha
    return _sorted_roots(coeffs, [(alpha - shift, 2), (beta - shift, 1)])


# ---------------------------------------------------------------------------
# Damped Gauss-Newton multistart
# ---------------------------------------------------------------------------


def newton_multistart(
    residual,
    seeds,
    tol: float = 1e-10,
    max_iter: int = 60,
    cluster_tol: float = 1e-6,
    fd_step: float = 1e-7,
    vectorized: bool = False,
) -> list[np.ndarray]:
    """Roots of a residual vector function from every seed, deduplicated.

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


# ---------------------------------------------------------------------------
# Brute-force grid oracle over fold-plane space
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleResult:
    """Clusters of fold planes found by exhaustive search plus refinement."""

    clusters: tuple[tuple[Plane3, float], ...]
    resolution: int
    refinement_iterations: int

    @property
    def count(self) -> int:
        return len(self.clusters)

    @property
    def planes(self) -> tuple[Plane3, ...]:
        return tuple(p for p, _ in self.clusters)


def params_to_planes(params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map (k, 3) arrays of (theta, phi, d) to unit normals and offsets."""
    p = np.atleast_2d(params)
    th, ph, dd = p[:, 0], p[:, 1], p[:, 2]
    st = np.sin(th)
    normals = np.stack([st * np.cos(ph), st * np.sin(ph), np.cos(th)], axis=1)
    return normals, dd


def plane_from_params(theta: float, phi: float, d: float) -> Plane3:
    n, o = params_to_planes(np.array([[theta, phi, d]]))
    return Plane3(tuple(n[0]), float(o[0]))


def stacked_components_fn(constraints):
    """Batch residual-components function over (theta, phi, d) parameters."""
    cons = tuple(constraints)

    def fn(params: np.ndarray) -> np.ndarray:
        normals, offsets = params_to_planes(params)
        return np.concatenate(
            [residual_components_grid(c, normals, offsets) for c in cons], axis=1
        )

    return fn


def _local_minima_mask(vals: np.ndarray) -> np.ndarray:
    """Cells not larger than their 6 axis neighbors (phi axis wraps)."""
    big = np.inf
    mask = np.ones_like(vals, dtype=bool)
    padded = np.pad(vals, ((1, 1), (0, 0), (0, 0)), constant_values=big)
    mask &= vals <= padded[:-2]
    mask &= vals <= padded[2:]
    mask &= vals <= np.roll(vals, 1, axis=1)
    mask &= vals <= np.roll(vals, -1, axis=1)
    padded = np.pad(vals, ((0, 0), (0, 0), (1, 1)), constant_values=big)
    mask &= vals <= padded[:, :, :-2]
    mask &= vals <= padded[:, :, 2:]
    return mask


def grid_oracle(
    constraints,
    resolution: int = 48,
    n_offsets: int = 64,
    window: float | None = None,
    refine_tol: float = 1e-6,
    cluster_tol: float = 1e-6,
    coarse_threshold: float | None = None,
    max_iter: int = 80,
) -> OracleResult:
    """Exhaustive scan over candidate fold planes with local refinement.

    Candidate planes have normals on a theta/phi grid (resolution points per
    angle) and offsets on a grid of n_offsets points spanning [-window,
    window] (default window: three times the payload radius).  Every local
    minimum of the summed residual below a coarse threshold, together with
    its axis neighbors, seeds a Gauss-Newton refinement; converged planes
    below refine_tol are clustered with the fold-plane dedup metric.
    """
    cons = tuple(constraints)
    if not cons:
        raise DegenerateInput("the oracle needs at least one constraint")
    if sum(c.kind.codimension for c in cons) < 3:
        raise DegenerateInput(
            "combined codimension below 3 leaves a continuum of fold planes; "
            "the oracle only counts isolated solutions"
        )
    radius = payload_radius(cons)
    w = window if window is not None else 3.0 * radius
    thetas = (np.arange(resolution) + 0.5) * math.pi / resolution
    phis = np.arange(resolution) * 2.0 * math.pi / resolution
    offs = np.linspace(-w, w, n_offsets)
    grid = np.stack(np.meshgrid(thetas, phis, offs, indexing="ij"), axis=-1)
    flat = grid.reshape(-1, 3)
    normals, offsets = params_to_planes(flat)
    vals = stacked_residual_grid(cons, normals, offsets).reshape(
        resolution, resolution, n_offsets
    )
    if coarse_threshold is None:
        coarse_threshold = 3.0 * (
            (radius + 1.0) * (math.pi / resolution) + w / n_offsets
        )
    minima = _local_minima_mask(vals) & (vals < coarse_threshold)
    idxs = np.argwhere(minima)
    starts = []
    shifts = [
        (0, 0, 0),
        (1, 0, 0),
        (-1, 0, 0),
        (0, 1, 0),
        (0, -1, 0),
        (0, 0, 1),
        (0, 0, -1),
    ]
    seen = set()
    for i, j, k in idxs:
        for di, dj, dk in shifts:
            ii = min(max(i + di, 0), resolution - 1)
            jj = (j + dj) % resolution
            kk = min(max(k + dk, 0), n_offsets - 1)
            if (ii, jj, kk) not in seen:
                seen.add((ii, jj, kk))
                starts.append((thetas[ii], phis[jj], offs[kk]))
    if not starts:
        return OracleResult((), resolution, max_iter)
    roots = newton_multistart(
        stacked_components_fn(cons),
        np.array(starts),
        tol=1e-10,
        max_iter=max_iter,
        cluster_tol=cluster_tol,
        vectorized=True,
    )
    clusters: list[tuple[Plane3, float]] = []
    found: list[tuple[Plane3, float]] = []
    for root in roots:
        plane = plane_from_params(*root)
        res = float(
            stacked_residual_grid(
                cons, plane.normal_vec[None, :], np.array([plane.offset])
            )[0]
        )
        if res < refine_tol:
            found.append((plane, res))
    found.sort(key=lambda pr: pr[1])
    for plane, res in found:
        if all(plane_gap(plane, q) > cluster_tol for q, _ in clusters):
            clusters.append((plane, res))
    clusters.sort(key=lambda pr: (*pr[0].normal, pr[0].offset))
    return OracleResult(tuple(clusters), resolution, max_iter)
