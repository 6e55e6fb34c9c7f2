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
    payload_radius,
    residual_components_grid,
    stacked_residual,
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
    """Real roots of c2 x^2 + c1 x + c0, numerically stable and free of the
    scale of x.

    The tests run on the balanced polynomial y^2 + b1 y + b0, x = σ y with
    σ = max(|c1/c2|, |c0/c2|^(1/2)), whose largest coefficient is 1.  The
    leading term is therefore never negligible: the degree drops only when
    c2 is zero (or so small that σ overflows), and a small c2 gives a real
    root far out.  Raises AllRealLine when the polynomial is identically
    zero and DegenerateInput when it reduces to a nonzero constant.
    """
    if c2 == 0.0 and c1 == 0.0:
        if c0 == 0.0:
            raise AllRealLine("all quadratic coefficients vanish")
        raise DegenerateInput("constant nonzero equation has no roots")
    if c1 == 0.0 and c0 == 0.0:
        return RealRoots((0.0,), (2,))
    sigma = max(abs(c1 / c2), math.sqrt(abs(c0 / c2))) if c2 != 0.0 else math.inf
    if not math.isfinite(sigma):
        return RealRoots((-c0 / c1,), (1,))
    b1, b0 = c1 / c2 / sigma, c0 / c2 / sigma**2
    disc = b1 * b1 - 4.0 * b0
    dscale = max(b1 * b1, abs(4.0 * b0))
    if disc < -rel_tol * dscale:
        return RealRoots((), ())
    if disc <= rel_tol * dscale:
        return RealRoots((-c1 / (2.0 * c2),), (2,))
    qq = -(b1 + math.copysign(math.sqrt(disc), b1)) / 2.0
    pairs = [(sigma * qq, 1), (sigma * (b0 / qq), 1)]
    return _sorted_roots((c2, c1, c0), pairs)


def _deflated(far: float, c: float, d: float) -> tuple[float, float]:
    """(q1, q0) with y^3 + b y^2 + c y + d = (y - far)(y^2 + q1 y + q0),
    deflated from the constant term: stable when far is the largest root."""
    q0 = -d / far
    return (q0 - c) / far, q0


def real_roots_cubic(
    c3: float, c2: float, c1: float, c0: float, rel_tol: float = 1e-12
) -> RealRoots:
    """Real roots of c3 x^3 + ... + c0, free of the scale of x.

    The tests run on the balanced monic cubic y^3 + b y^2 + c y + d,
    x = σ y with σ = max_k |c_k/c3|^(1/(3-k)), whose largest coefficient is
    1; as for the quadratic, the degree drops only when c3 is zero (or σ
    overflows).  A root far out leaves the other two close together at the
    scale σ, so they are taken from the quotient by the largest root,
    solved at their own scale; with three real roots this only sharpens
    them.  Every root gets one Newton polish.
    """
    if c3 == 0.0:
        if c2 == c1 == c0 == 0.0:
            raise AllRealLine("all cubic coefficients vanish")
        return real_roots_quadratic(c2, c1, c0, rel_tol)
    coeffs = (c3, c2, c1, c0)
    sigma = max(abs(c2 / c3), abs(c1 / c3) ** 0.5, abs(c0 / c3) ** (1.0 / 3.0))
    if not math.isfinite(sigma):
        return real_roots_quadratic(c2, c1, c0, rel_tol)
    if sigma == 0.0:
        return RealRoots((0.0,), (3,))
    b, c, d = c2 / c3 / sigma, c1 / c3 / sigma**2, c0 / c3 / sigma**3
    shift = b / 3.0
    big_a = c - b * b / 3.0
    big_b = 2.0 * b**3 / 27.0 - b * c / 3.0 + d
    disc = -4.0 * big_a**3 - 27.0 * big_b * big_b
    thr = rel_tol * max(abs(big_a) ** 3, big_b * big_b, 1e-300)
    if disc > thr:
        mag = 2.0 * math.sqrt(-big_a / 3.0)
        arg = _clamp(3.0 * big_b / (big_a * mag))
        th = math.acos(arg) / 3.0
        ys = sorted(
            (mag * math.cos(th - 2.0 * math.pi * k / 3.0) - shift for k in range(3)),
            key=abs,
        )
        rest = real_roots_quadratic(1.0, *_deflated(ys[2], c, d), rel_tol)
        if len(rest) == 2:
            ys[:2] = rest.roots
        pairs = [(sigma * y, 1) for y in ys]
    elif disc < -thr:
        half = -big_b / 2.0
        rad = math.sqrt(big_b * big_b / 4.0 + big_a**3 / 27.0)
        u = half + math.copysign(rad, half) if half != 0.0 else rad
        cr = math.copysign(abs(u) ** (1.0 / 3.0), u)
        root = cr - big_a / (3.0 * cr) if cr != 0.0 else 0.0
        pairs = [(sigma * (root - shift), 1)]
    elif abs(big_a) <= 1e-10 and abs(big_b) <= 1e-10:
        return RealRoots((_polish(coeffs, -sigma * shift),), (3,))
    else:
        # a double root alpha and a simple root beta at the scale sigma; when
        # beta is the larger, the pair at alpha may be two roots, or none
        alpha = -3.0 * big_b / (2.0 * big_a) - shift
        beta = 3.0 * big_b / big_a - shift
        if abs(beta) <= abs(alpha):
            pairs = [(sigma * alpha, 2), (sigma * beta, 1)]
        else:
            rest = real_roots_quadratic(1.0, *_deflated(beta, c, d), rel_tol)
            pairs = [(sigma * beta, 1)] + [
                (sigma * y, k) for y, k in zip(rest.roots, rest.multiplicities)
            ]
    return _sorted_roots(coeffs, pairs)


# ---------------------------------------------------------------------------
# Damped Gauss-Newton multistart
# ---------------------------------------------------------------------------


def _least_squares_steps(jac: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Batched Gauss-Newton steps s = argmin |J s - r| for (k, m, d) Jacobians.

    Solves the normal equations JᵀJ s = Jᵀr.  Rows where JᵀJ is nearly
    singular, det ≤ 1e-10 · ∏ diag(JᵀJ) (free of the column scales, since
    the determinant never exceeds the diagonal product), or where that test
    is not finite, take the minimum-norm least-squares step pinv(J) r.
    """
    jtj = np.einsum("kmi,kmj->kij", jac, jac)
    jtr = np.einsum("kmi,km->ki", jac, r)
    det = np.linalg.det(jtj)
    thr = 1e-10 * np.prod(np.einsum("kii->ki", jtj), axis=1)
    solvable = np.isfinite(det) & np.isfinite(thr) & (det > thr)
    step = np.empty_like(jtr)
    step[solvable] = np.linalg.solve(jtj[solvable], jtr[solvable][..., None])[..., 0]
    rest = ~solvable
    if rest.any():
        step[rest] = np.einsum("kdm,km->kd", np.linalg.pinv(jac[rest]), r[rest])
    return step


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
    (n, m).  Every seed runs damped Gauss-Newton until its residual norm is
    below tol (converged), it stalls or max_iter iterations pass.  One
    iteration, for all active seeds at once:

    * Jacobian: central differences with step fd_step * (1 + |x|), all 2·d
      probes in one residual call.
    * Step: s solves the normal equations JᵀJ s = Jᵀr.  Where JᵀJ is
      nearly singular (det ≤ 1e-10 · ∏ diag) or the test is not finite,
      s = pinv(J) r, the minimum-norm least-squares step.
    * Backtracking: the seed moves to x - α s for the largest α in 1, 1/2,
      ..., 1/512 with |r(x - α s)| < |r(x)|.  It stalls if there is none,
      if s is not finite, or if |r - J s| ≥ ½ |r|: then even the linear
      model cannot halve the residual, so r is nearly orthogonal to the
      range of J and the seed sits near a non-zero stationary point of
      |r|² (the first-order test of MINPACK's gtol).  A stalled seed skips
      the line search.  The full step is tried in one call; the halvings
      only for the seeds it did not improve, at most 2·d step lengths per
      call.

    Converged seeds are clustered within cluster_tol, best residual first.
    Deterministic: fixed iteration order, stable clustering, result sorted
    lexicographically.
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

    def norms_of(res: np.ndarray) -> np.ndarray:
        nr = np.sqrt(np.add.reduce(res * res, axis=-1))
        return np.where(np.isfinite(nr), nr, np.inf)

    r = rf(x)
    m = r.shape[1]
    norms = norms_of(r)
    converged = norms < tol
    stalled = ~np.isfinite(norms)
    # step lengths 1, 1/2, ..., 1/512: the full step alone, then the halvings
    # in blocks of at most 2*d, so no batch is larger than the Jacobian's
    lengths = 0.5 ** np.arange(10)
    blocks = [lengths[:1]]
    blocks += [lengths[lo : lo + 2 * d] for lo in range(1, lengths.size, 2 * d)]

    for _ in range(max_iter):
        idx = np.flatnonzero(~(converged | stalled))
        if idx.size == 0:
            break
        xa, ra, na = x[idx], r[idx], norms[idx]
        ka = idx.size
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
        step = _least_squares_steps(jac, ra)
        improved = np.zeros(ka, dtype=bool)
        todo = np.flatnonzero(~bad & np.isfinite(step).all(axis=1))
        # the stall test: skip seeds whose linear model cannot halve |r|
        model = ra[todo] - np.einsum("kmd,kd->km", jac[todo], step[todo])
        todo = todo[norms_of(model) < 0.5 * na[todo]]
        # each seed keeps the largest step length that improves it
        for alphas in blocks:
            if todo.size == 0:
                break
            trial = xa[todo][:, None, :] - alphas[None, :, None] * step[todo][:, None, :]
            rt = rf(trial.reshape(-1, d)).reshape(todo.size, alphas.size, m)
            nt = norms_of(rt)
            better = nt < na[todo][:, None]
            hit = better.any(axis=1)
            first = better.argmax(axis=1)[hit]
            won = todo[hit]
            xa[won] = trial[hit, first]
            ra[won] = rt[hit, first]
            na[won] = nt[hit, first]
            improved[won] = True
            todo = todo[~hit]
        x[idx] = xa
        r[idx] = ra
        norms[idx] = na
        newly_stalled = idx[~improved]
        stalled[newly_stalled[norms[newly_stalled] >= tol]] = True
        converged = norms < tol

    cand = np.flatnonzero(converged)
    cand = x[cand[np.argsort(norms[cand], kind="stable")]]
    kept = np.empty_like(cand)
    nk = 0
    for v in cand:
        if np.all(np.linalg.norm(kept[:nk] - v, axis=1) > cluster_tol):
            kept[nk] = v
            nk += 1
    kept = kept[:nk]
    return list(kept[np.lexsort(kept.T[::-1])])


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
    columns = st * np.cos(ph), st * np.sin(ph), np.cos(th)
    # allocated after its columns, as np.stack does: allocated first, it
    # raises the peak memory of a full lattice scan by about 2 MB
    normals = np.empty((p.shape[0], 3))
    normals[:, 0], normals[:, 1], normals[:, 2] = columns
    return normals, dd


def plane_from_params(theta: float, phi: float, d: float) -> Plane3:
    n, o = params_to_planes(np.array([[theta, phi, d]]))
    return Plane3(tuple(n[0]), float(o[0]))


# Largest (theta, phi, d) lattice a search builds: resolution 256 at 64
# offsets.  Its arrays take (3 + 3 + 1 + 1) * 8 = 64 B per plane (parameters,
# normals, offsets, summed residual), about 268 MB at the cap.
MAX_LATTICE_PLANES = 2**22


def lattice_scan(constraints, counts, window: float):
    """Summed scalar residual of the constraints over a lattice of planes.

    counts = (n_theta, n_phi, n_d): theta at the cell centres of [0, pi],
    phi from 0 in steps of 2 pi / n_phi, d evenly spaced over [-window,
    window].  Returns the three axes, the (n, 3) (theta, phi, d) parameters
    in C order, and the residuals shaped like the lattice.  Raises
    DegenerateInput for a count below 1 or a lattice of more than
    MAX_LATTICE_PLANES planes.
    """
    nth, nph, nd = counts
    shape = f"{nth}x{nph}x{nd}"
    if min(counts) < 1:
        raise DegenerateInput(f"lattice counts must be at least 1, not {shape}")
    if nth * nph * nd > MAX_LATTICE_PLANES:
        raise DegenerateInput(
            f"a {shape} lattice exceeds the cap of {MAX_LATTICE_PLANES} planes"
        )
    thetas = (np.arange(nth) + 0.5) * math.pi / nth
    phis = np.arange(nph) * 2.0 * math.pi / nph
    offs = np.linspace(-window, window, nd)
    grid = np.stack(np.meshgrid(thetas, phis, offs, indexing="ij"), axis=-1)
    params = grid.reshape(-1, 3)
    normals, offsets = params_to_planes(params)
    vals = stacked_residual_grid(constraints, normals, offsets)
    return (thetas, phis, offs), params, vals.reshape(nth, nph, nd)


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
    Raises DegenerateInput for a count below 1 or a lattice above
    MAX_LATTICE_PLANES (resolution 256 at 64 offsets).
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
    (thetas, phis, offs), _, vals = lattice_scan(
        cons, (resolution, resolution, n_offsets), w
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
        res = stacked_residual(cons, plane)
        if res < refine_tol:
            found.append((plane, res))
    found.sort(key=lambda pr: pr[1])
    for plane, res in found:
        if all(plane_gap(plane, q) > cluster_tol for q, _ in clusters):
            clusters.append((plane, res))
    clusters.sort(key=lambda pr: (*pr[0].normal, pr[0].offset))
    return OracleResult(tuple(clusters), resolution, max_iter)
