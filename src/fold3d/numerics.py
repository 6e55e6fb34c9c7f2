"""Root-finding primitives and the fold-plane search behind the generic
solver and the brute-force oracle.

search scans a theta/phi grid of candidate fold-plane normals, takes for
each the offset d that best satisfies the constraints (the residual
components are affine in d, so it has a closed form), refines every
promising normal with damped Gauss-Newton on the smooth signed residual
components in (theta, phi, d), and keeps the converged planes that verify,
clustered.  It sees planes at any offset.  Two presets run it: the generic
solver (operations.solve_generic) scans its fixed SCAN_LATTICE with valley
floors, and grid_oracle a resolution x resolution lattice without.  The
oracle is deliberately independent of the closed-form solvers, so it can
serve as ground truth for solution counting.
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


# A discriminant of the balanced polynomial within this fraction of its
# terms' scale counts as zero: the roots are double.
ROOT_REL_TOL = 1e-12
# Relative step of newton_multistart's central differences, h = FD_STEP (1 + |x|).
FD_STEP = 1e-7


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


def real_roots_quadratic(c2: float, c1: float, c0: float) -> RealRoots:
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
    if disc < -ROOT_REL_TOL * dscale:
        return RealRoots((), ())
    if disc <= ROOT_REL_TOL * dscale:
        return RealRoots((-c1 / (2.0 * c2),), (2,))
    qq = -(b1 + math.copysign(math.sqrt(disc), b1)) / 2.0
    pairs = [(sigma * qq, 1), (sigma * (b0 / qq), 1)]
    return _sorted_roots((c2, c1, c0), pairs)


def _deflated(far: float, c: float, d: float) -> tuple[float, float]:
    """(q1, q0) with y^3 + b y^2 + c y + d = (y - far)(y^2 + q1 y + q0),
    deflated from the constant term: stable when far is the largest root."""
    q0 = -d / far
    return (q0 - c) / far, q0


def real_roots_cubic(c3: float, c2: float, c1: float, c0: float) -> RealRoots:
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
        return real_roots_quadratic(c2, c1, c0)
    coeffs = (c3, c2, c1, c0)
    sigma = max(abs(c2 / c3), abs(c1 / c3) ** 0.5, abs(c0 / c3) ** (1.0 / 3.0))
    if not math.isfinite(sigma):
        return real_roots_quadratic(c2, c1, c0)
    if sigma == 0.0:
        return RealRoots((0.0,), (3,))
    b, c, d = c2 / c3 / sigma, c1 / c3 / sigma**2, c0 / c3 / sigma**3
    shift = b / 3.0
    big_a = c - b * b / 3.0
    big_b = 2.0 * b**3 / 27.0 - b * c / 3.0 + d
    disc = -4.0 * big_a**3 - 27.0 * big_b * big_b
    thr = ROOT_REL_TOL * max(abs(big_a) ** 3, big_b * big_b, 1e-300)
    if disc > thr:
        mag = 2.0 * math.sqrt(-big_a / 3.0)
        arg = _clamp(3.0 * big_b / (big_a * mag))
        th = math.acos(arg) / 3.0
        ys = sorted(
            (mag * math.cos(th - 2.0 * math.pi * k / 3.0) - shift for k in range(3)),
            key=abs,
        )
        rest = real_roots_quadratic(1.0, *_deflated(ys[2], c, d))
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
            rest = real_roots_quadratic(1.0, *_deflated(beta, c, d))
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
    vectorized: bool = False,
) -> list[np.ndarray]:
    """Roots of a residual vector function from every seed, deduplicated.

    ``residual`` maps a parameter vector (d,) to a residual vector (m,);
    with ``vectorized=True`` it must accept an (n, d) batch and return
    (n, m).  Every seed runs damped Gauss-Newton until its residual norm is
    below tol (converged), it stalls or max_iter iterations pass.  One
    iteration, for all active seeds at once:

    * Jacobian: central differences with step FD_STEP * (1 + |x|), all 2·d
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
        h = FD_STEP * (1.0 + np.abs(xa))
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
    # allocated after its columns, as np.stack does, which keeps the peak
    # memory of a large batch down
    normals = np.empty((p.shape[0], 3))
    normals[:, 0], normals[:, 1], normals[:, 2] = columns
    return normals, dd


def plane_from_params(theta: float, phi: float, d: float) -> Plane3:
    n, o = params_to_planes(np.array([[theta, phi, d]]))
    return Plane3(tuple(n[0]), float(o[0]))


def _stacked_components(cons, normals: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    return np.concatenate(
        [residual_components_grid(c, normals, offsets) for c in cons], axis=1
    )


def stacked_components_fn(constraints):
    """Batch residual-components function over (theta, phi, d) parameters."""
    cons = tuple(constraints)

    def fn(params: np.ndarray) -> np.ndarray:
        return _stacked_components(cons, *params_to_planes(params))

    return fn


def normal_scan(constraints, n_theta: int, n_phi: int, valley_floors: bool):
    """Newton seeds (theta, phi, d*) from an n_theta x n_phi grid of
    fold-plane normals (theta at the cell centres of [0, pi], phi wrapping),
    in grid order.

    Every signed residual component is affine in the offset d once the
    normal n is fixed: A(n) + d B(n), read exactly at d = 0 and d = 1.  So
    each normal's best offset is d*(n) = -A.B / B.B (variable projection)
    and no window bounds the search; normals with B.B <= 1e-12 max B.B,
    whose offset is not determined, are skipped.  The score is the summed
    scalar residual at (n, d*) times (r + 1) / (r + |d*| + 1), r the payload
    radius, so far planes, whose residual changes fast with the angle, are
    not lost.  The seeds are the 2-D local minima of the score below the
    coarse threshold 3 (r + 1) pi / n_theta and their four grid
    neighbours.  With valley_floors, every cell below that threshold that
    is a minimum along theta or along phi is a seed too: a plane whose score
    valley slopes down to another solution has no 2-D minimum next to it.
    """
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


# Newton tolerance and iteration cap of the fold-plane search, and the
# plane_gap within which its verified planes are one.
SEARCH_NEWTON_TOL = 1e-10
SEARCH_MAX_ITER = 80
SEARCH_CLUSTER_TOL = 1e-6


def search(
    constraints, n_theta: int, n_phi: int, valley_floors: bool, refine_tol: float
) -> list[tuple[Plane3, float]]:
    """Fold planes of the constraints, with their summed scalar residuals.

    normal_scan seeds Gauss-Newton (newton_multistart) from n_theta x n_phi
    normals at their best offsets, valley floors included if asked; the
    converged planes whose summed residual is below refine_tol are kept,
    clustered with the fold-plane dedup metric (plane_gap) within
    SEARCH_CLUSTER_TOL, best residual first.
    """
    cons = tuple(constraints)
    roots = newton_multistart(
        stacked_components_fn(cons),
        normal_scan(cons, n_theta, n_phi, valley_floors),
        tol=SEARCH_NEWTON_TOL,
        max_iter=SEARCH_MAX_ITER,
        cluster_tol=SEARCH_CLUSTER_TOL,
        vectorized=True,
    )
    planes = [plane_from_params(*root) for root in roots]
    found = [(p, stacked_residual(cons, p)) for p in planes]
    found = sorted((pr for pr in found if pr[1] < refine_tol), key=lambda pr: pr[1])
    clusters: list[tuple[Plane3, float]] = []
    for plane, res in found:
        if all(plane_gap(plane, q) > SEARCH_CLUSTER_TOL for q, _ in clusters):
            clusters.append((plane, res))
    return clusters


# Largest resolution the oracle scans: 256 x 256 normals.
MAX_ORACLE_RESOLUTION = 256
# The oracle keeps the planes whose summed residual is below this.
ORACLE_REFINE_TOL = 1e-6


def grid_oracle(constraints, resolution: int = 48, n_offsets: int = 64) -> OracleResult:
    """Exhaustive scan over fold-plane normals with local refinement.

    search over resolution x resolution normals, without valley floors,
    keeping the planes below ORACLE_REFINE_TOL at every offset, sorted by
    normal and offset.  n_offsets shapes nothing; it is kept only because
    the benchmark's tracer (perfbench/tracing.py) reads it from every call.
    Raises DegenerateInput, with "lattice" in its message, for a resolution
    outside 1..MAX_ORACLE_RESOLUTION or n_offsets below 1.
    """
    cons = tuple(constraints)
    if not cons:
        raise DegenerateInput("the oracle needs at least one constraint")
    if sum(c.kind.codimension for c in cons) < 3:
        raise DegenerateInput(
            "combined codimension below 3 leaves a continuum of fold planes; "
            "the oracle only counts isolated solutions"
        )
    if not 1 <= resolution <= MAX_ORACLE_RESOLUTION:
        raise DegenerateInput(
            f"oracle lattice resolution must be in 1..{MAX_ORACLE_RESOLUTION}, "
            f"not {resolution}"
        )
    if n_offsets < 1:
        raise DegenerateInput(f"lattice counts must be at least 1, not n_offsets={n_offsets}")
    clusters = search(cons, resolution, resolution, False, ORACLE_REFINE_TOL)
    clusters.sort(key=lambda pr: (*pr[0].normal, pr[0].offset))
    return OracleResult(tuple(clusters), resolution)
