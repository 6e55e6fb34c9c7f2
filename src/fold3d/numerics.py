"""Root-finding primitives and the fold-plane search behind the generic
solver and the brute-force oracle.

search scans a theta/phi grid of candidate fold-plane normals, takes for
each the offset d that best satisfies the constraints (the residual
components are affine in d, so it has a closed form), refines every
promising normal with damped Gauss-Newton on the smooth signed residual
components in (theta, phi, d), and keeps the converged planes that verify,
clustered.  It sees planes at any offset.  (theta, phi, d) and (pi - theta,
phi + pi, -d) are the same plane, so with an even number of phi columns the
scan scores the rows down to the equator, mirrors them onto the rest, and
seeds each fold plane once.  Newton's steps and line search treat every
seed on its own, and the residual kernels give each row the same bits in
any batch, so a seed's root does not depend on the seeds that share its
batches.  Two presets run it: the generic solver (operations.solve_generic)
scans its fixed SCAN_LATTICE with valley floors, and grid_oracle a
resolution x resolution lattice without.  The oracle is deliberately
independent of the closed-form solvers, so it can serve as ground truth for
solution counting.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .constraints import (
    check_payload_radius,
    payload_radius,
    residual_components_grid,
    stacked_residual_grid,
)
from .errors import AllRealLine, DegenerateInput
from .geometry import TOL_PLANE_IDENTITY, Plane3, plane_gap


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


def _horner(coeffs, x: float) -> float:
    """np.polyval at a scalar x, in its order: y = y x + c from y = 0.0."""
    y = 0.0
    for c in coeffs:
        y = y * x + c
    return float(y)


def _polish(coeffs, x: float) -> float:
    """One Newton step from x, kept where p and p' are finite and |p| does not rise."""
    p = _horner(coeffs, x)
    dp = _horner([float(c) * k for c, k in zip(coeffs, range(len(coeffs) - 1, 0, -1))], x)
    if abs(dp) > 1e-30 and math.isfinite(p) and math.isfinite(dp):
        y = x - p / dp
        if abs(_horner(coeffs, y)) <= abs(p):
            return y
    return x


def _sorted_roots(coeffs, pairs) -> RealRoots:
    polished = [(_polish(coeffs, r), m) for r, m in pairs]
    polished.sort(key=lambda rm: rm[0])
    return RealRoots(
        tuple(r for r, _ in polished), tuple(m for _, m in polished)
    )


def _power(sigma: float, k: int) -> float:
    """sigma**k, or 0.0 where it over- or underflows, without an error."""
    try:
        return math.pow(sigma, k)
    except OverflowError:
        return 0.0


def real_roots_quadratic(c2: float, c1: float, c0: float) -> RealRoots:
    """Real roots of c2 x^2 + c1 x + c0, numerically stable and free of the
    scale of x.

    The tests run on the balanced polynomial y^2 + b1 y + b0, x = σ y with
    σ = max(|c1/c2|, |c0/c2|^(1/2)), whose largest coefficient is 1.  The
    leading term is therefore never negligible: the degree drops only when
    c2 is zero (or so small that σ overflows, when c1 = 0 leaving the roots
    ±√|c0| / √|c2| where -c0/c2 > 0 and they are finite), and a small c2
    gives a real root far out.  Where σ² overflows (σ = |c1/c2| beyond
    1.3e154), the smaller root is c0/c2 over the larger.  Raises AllRealLine
    when the polynomial is identically zero and DegenerateInput when it
    reduces to a nonzero constant.
    """
    c2, c1, c0 = float(c2), float(c1), float(c0)  # Python floats: no NumPy warning
    if c2 == 0.0 and c1 == 0.0:
        if c0 == 0.0:
            raise AllRealLine("all quadratic coefficients vanish")
        raise DegenerateInput("constant nonzero equation has no roots")
    if c1 == 0.0 and c0 == 0.0:
        return RealRoots((0.0,), (2,))
    sigma = max(abs(c1 / c2), math.sqrt(abs(c0 / c2))) if c2 != 0.0 else math.inf
    if not math.isfinite(sigma):
        if c1 != 0.0:
            return RealRoots((-c0 / c1,), (1,))
        x = math.sqrt(abs(c0)) / math.sqrt(abs(c2))
        real = (c0 < 0.0) != (c2 < 0.0) and math.isfinite(x)
        return RealRoots((-x, x), (1, 1)) if real else RealRoots((), ())
    if sigma == 0.0:  # c1/c2 and c0/c2 underflow: both roots round to 0
        return RealRoots((0.0,), (2,))
    s2 = _power(sigma, 2)
    b1, b0 = c1 / c2 / sigma, c0 / c2 / s2 if s2 else c0 / c2 / sigma / sigma
    disc = b1 * b1 - 4.0 * b0
    dscale = max(b1 * b1, abs(4.0 * b0))
    if disc < -ROOT_REL_TOL * dscale:
        return RealRoots((), ())
    if disc <= ROOT_REL_TOL * dscale:
        return RealRoots((-c1 / (2.0 * c2),), (2,))
    qq = -(b1 + math.copysign(math.sqrt(disc), b1)) / 2.0
    pairs = [(sigma * qq, 1), (sigma * (b0 / qq) if s2 else c0 / c2 / (sigma * qq), 1)]
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
    them.  Where σ³ overflows (σ beyond 5.6e102), d may underflow, so a
    root below the scale σ is taken in x: from that quotient, or from the
    product of the roots, -c0/c3.  Every root gets one Newton polish.
    """
    c3, c2, c1, c0 = float(c3), float(c2), float(c1), float(c0)  # as in the quadratic
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
    s2, s3 = _power(sigma, 2), _power(sigma, 3)
    b = c2 / c3 / sigma
    c = c1 / c3 / s2 if s2 else c1 / c3 / sigma / sigma
    d = c0 / c3 / s3 if s3 else c0 / c3 / sigma / sigma / sigma

    def quotient(far: float) -> list[tuple[float, int]]:
        """The other roots in x, with multiplicities, from the quotient by
        the root sigma far, solved at their own scale."""
        if s3:
            rest = real_roots_quadratic(1.0, *_deflated(far, c, d))
            return [(sigma * y, k) for y, k in zip(rest.roots, rest.multiplicities)]
        rest = real_roots_quadratic(1.0, *_deflated(sigma * far, c1 / c3, c0 / c3))
        return list(zip(rest.roots, rest.multiplicities))

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
        pairs = [(sigma * y, 1) for y in ys]
        rest = quotient(ys[2])
        if len(rest) == 2 or not s3:
            pairs[:2] = rest
    elif disc < -thr:
        half = -big_b / 2.0
        rad = math.sqrt(big_b * big_b / 4.0 + big_a**3 / 27.0)
        u = half + math.copysign(rad, half) if half != 0.0 else rad
        cr = math.copysign(abs(u) ** (1.0 / 3.0), u)
        root = cr - big_a / (3.0 * cr) if cr != 0.0 else 0.0
        y = root - shift
        if s3 or y * y >= c + (b + y) * y:
            pairs = [(sigma * y, 1)]
        else:  # the complex pair, whose product is c + (b + y) y, is the larger
            pairs = [(-(c0 / c3 / sigma / sigma) / (c + (b + y) * y), 1)]
    elif abs(big_a) <= 1e-10 and abs(big_b) <= 1e-10:
        return RealRoots((_polish(coeffs, -sigma * shift),), (3,))
    else:
        # a double root alpha and a simple root beta at the scale sigma; when
        # beta is the larger, the pair at alpha may be two roots, or none
        alpha = -3.0 * big_b / (2.0 * big_a) - shift
        beta = 3.0 * big_b / big_a - shift
        if abs(beta) <= abs(alpha):
            near = sigma * beta if s3 else -(c0 / c3 / sigma / sigma) / (alpha * alpha)
            pairs = [(sigma * alpha, 2), (near, 1)]
        else:
            pairs = [(sigma * beta, 1)] + quotient(beta)
    return _sorted_roots(coeffs, pairs)


# ---------------------------------------------------------------------------
# Damped Gauss-Newton multistart
# ---------------------------------------------------------------------------


def _least_squares_steps(jac: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Batched Gauss-Newton steps s = argmin |J s - r| for (k, m, d) Jacobians.

    Solves the normal equations JᵀJ s = Jᵀr, in one batched solve when every
    row can take it.  Rows where JᵀJ is nearly singular, det ≤ 1e-10 ·
    ∏ diag(JᵀJ) (free of the column scales, since the determinant never
    exceeds the diagonal product), or where that test is not finite, take
    the minimum-norm least-squares step pinv(J) r.
    """
    jt = jac.transpose(0, 2, 1)
    jtj = jt @ jac
    jtr = jt @ r[:, :, None]  # (k, d, 1): columns, as solve takes them
    det = np.linalg.det(jtj)
    thr = 1e-10 * np.multiply.reduce(np.diagonal(jtj, axis1=1, axis2=2), axis=1)
    solvable = np.isfinite(det) & np.isfinite(thr) & (det > thr)
    if solvable.all():
        return np.linalg.solve(jtj, jtr)[..., 0]
    step = np.empty(jtr.shape[:2])
    step[solvable] = np.linalg.solve(jtj[solvable], jtr[solvable])[..., 0]
    rest = ~solvable
    if rest.any():
        step[rest] = np.einsum("kdm,km->kd", np.linalg.pinv(jac[rest]), r[rest])
    return step


@functools.lru_cache(maxsize=8)
def _newton_tables(d: int, m: int):
    """newton_multistart's read-only tables for d parameters and m residual
    components, built once per (d, m): the (2, d, 1, d) probe offsets +e_j
    and -e_j, with -0.0 off the diagonal (x + -0.0 h is x bit for bit, even
    for x = -0.0), the ten step lengths 1, 1/2, ..., 1/512, and the (m, d)
    identity that stands in for a Jacobian that is not finite."""
    on = np.eye(d, dtype=bool)
    signs = np.stack([np.where(on, 1.0, -0.0), np.where(on, -1.0, -0.0)])[:, :, None, :]
    lengths = 0.5 ** np.arange(10)
    eye = np.eye(m, d)
    for a in (signs, lengths, eye):
        a.setflags(write=False)
    return signs, lengths, eye


def _norms(res: np.ndarray) -> np.ndarray:
    """|r| of each row of res (last axis).  A norm that is not finite, inf
    or NaN, passes no < test, so NaN needs no mapping to inf."""
    return np.sqrt(np.add.reduce(res * res, axis=-1))


def newton_multistart(
    residual,
    seeds,
    tol: float = 1e-10,
    max_iter: int = 60,
    cluster_tol: float = TOL_PLANE_IDENTITY,
    vectorized: bool = False,
) -> list[np.ndarray]:
    """Roots of a residual vector function from every seed, deduplicated.

    ``residual`` maps a parameter vector (d,) to a residual vector (m,);
    with ``vectorized=True`` it must accept an (n, d) batch and return
    (n, m).  Every seed runs damped Gauss-Newton until its residual norm is
    below tol (converged), it stalls or max_iter iterations pass.  One
    iteration, for all active seeds at once:

    * Jacobian: central differences with step FD_STEP * (1 + |x|), all 2·d
      probes built in one broadcast and evaluated in one residual call.
    * Step: s solves the normal equations JᵀJ s = Jᵀr.  Where JᵀJ is
      nearly singular (det ≤ 1e-10 · ∏ diag) or the test is not finite,
      s = pinv(J) r, the minimum-norm least-squares step.
    * Backtracking: the seed moves to x - α s for the largest α in 1, 1/2,
      ..., 1/512 with |r(x - α s)| < |r(x)|.  It stalls if there is none,
      if s is not finite, or if |r - J s| ≥ ½ |r|: then even the linear
      model cannot halve the residual, so r is nearly orthogonal to the
      range of J and the seed sits near a non-zero stationary point of
      |r|² (the first-order test of MINPACK's gtol).  A stalled seed skips
      the line search.  The step lengths are tried in blocks, one residual
      call each, from the full step down, the later blocks only for the
      seeds no earlier one improved.  A batch residual's block holds as
      many lengths as fit in the rows of the first Jacobian call (2·d·n for
      n seeds), at least 2·d: once at most 2·d·n / 10 seeds are searching,
      all ten lengths go in one call, and no batch is larger than the first
      Jacobian's.  A per-row residual, where every row is its own call
      anyway, takes blocks of 2·d (for d = 3: 1 ... 1/32, then 1/64 ...
      1/512).

    The active seeds' indices, parameters, residuals and norms are kept in
    compact arrays, and a seed leaves them once, when it converges or
    stalls.  The probe offsets, step lengths and identity fill are built
    once per (d, m) and cached read-only (_newton_tables).  Finiteness is
    one whole-array test per iteration; per-row masks are built only when
    it fails.

    A seed's path depends on its own values alone, not on which other seeds
    share its batches or how many lengths a block tries, as long as the
    residual's rows do (the fold-plane residual kernels give every row the
    same bits in any batch).

    Converged seeds are clustered greedily within cluster_tol, best residual
    first: each kept root drops the remaining candidates within cluster_tol
    of it, one norm call per kept root.  Deterministic: fixed iteration
    order, stable clustering, result sorted lexicographically.
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
    norms = _norms(r)
    converged = norms < tol
    signs, lengths, eye = _newton_tables(d, m)
    # the active seeds: neither converged nor with a residual that is not finite
    idx = np.flatnonzero(~converged & np.isfinite(norms))
    xa, ra, na = x[idx], r[idx], norms[idx]
    # the rows of the first Jacobian call: no line-search batch is larger
    rows = 2 * d * idx.size

    for _ in range(max_iter):
        ka = idx.size
        if ka == 0:
            break
        # all 2*d central-difference probes x +- h_j e_j in one residual batch
        h = FD_STEP * (1.0 + np.abs(xa))
        rp = rf((xa + signs * h).reshape(-1, d)).reshape(2, d, ka, m)
        jac = ((rp[0] - rp[1]) / (2.0 * h.T)[:, :, None]).transpose(1, 2, 0)
        jac_finite = np.isfinite(jac).all()
        if not jac_finite:
            bad = ~np.isfinite(jac).all(axis=(1, 2))
            jac[bad] = eye
        step = _least_squares_steps(jac, ra)
        # the stall test: skip seeds whose linear model cannot halve |r|
        if jac_finite and np.isfinite(step).all():
            model = ra - np.einsum("kmd,kd->km", jac, step)
            todo = np.flatnonzero(_norms(model) < 0.5 * na)
        else:
            finite = np.isfinite(step).all(axis=1)
            todo = np.flatnonzero(finite if jac_finite else finite & ~bad)
            model = ra[todo] - np.einsum("kmd,kd->km", jac[todo], step[todo])
            todo = todo[_norms(model) < 0.5 * na[todo]]
        improved = np.zeros(ka, dtype=bool)
        # each seed keeps the largest step length that improves it
        lo = 0
        while todo.size and lo < lengths.size:
            per_call = max(2 * d, rows // todo.size) if vectorized else 2 * d
            alphas = lengths[lo : lo + per_call]
            lo += alphas.size
            if todo.size == ka:
                xt, st, nb = xa, step, na
            else:
                xt, st, nb = xa[todo], step[todo], na[todo]
            trial = xt[:, None, :] - alphas[None, :, None] * st[:, None, :]
            rt = rf(trial.reshape(-1, d)).reshape(todo.size, alphas.size, m)
            nt = _norms(rt)
            better = nt < nb[:, None]
            hit = better.any(axis=1)
            first = better.argmax(axis=1)[hit]
            won = todo[hit]
            xa[won] = trial[hit, first]
            ra[won] = rt[hit, first]
            na[won] = nt[hit, first]
            improved[won] = True
            todo = todo[~hit]
        # a seed leaves when it converges or, not improved, stalls
        done = na < tol
        stay = improved & ~done
        if not stay.all():
            conv = idx[done]
            x[conv] = xa[done]
            norms[conv] = na[done]
            converged[conv] = True
            idx, xa, ra, na = idx[stay], xa[stay], ra[stay], na[stay]

    cand = np.flatnonzero(converged)
    kept = _cluster(x[cand[np.argsort(norms[cand], kind="stable")]], cluster_tol)
    return list(kept[np.lexsort(kept.T[::-1])])


def _cluster(cand: np.ndarray, cluster_tol: float) -> np.ndarray:
    """The greedy clustering of (k, d) candidates in their order: a candidate
    is kept when it is more than cluster_tol from every kept one.  Each kept
    candidate drops the remaining ones within cluster_tol of it, so there is
    one norm call per kept root and no k x k matrix."""
    kept = []
    while cand.shape[0]:
        kept.append(cand[0])
        cand = cand[1:][np.linalg.norm(cand[1:] - cand[0], axis=1) > cluster_tol]
    return np.reshape(kept, (-1, cand.shape[1]))


# ---------------------------------------------------------------------------
# Brute-force grid oracle over fold-plane space
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleResult:
    """Clusters of fold planes found by exhaustive search plus refinement."""

    clusters: tuple[tuple[Plane3, float], ...]

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


@functools.lru_cache(maxsize=4)
def _scan_lattice(n_theta: int, n_phi: int):
    """normal_scan's lattice, as read-only arrays built once per shape: theta
    and phi of every cell in grid order, the normals of the scored cells
    (the first half when n_phi is even, else all), the twin (n_theta - 1
    - i, j + n_phi/2) of each scored cell (i, j), None when n_phi is odd,
    and the doubled lattice the scan evaluates in one call: the scored
    normals twice, at the offsets 0 and then 1."""
    thetas = (np.arange(n_theta) + 0.5) * math.pi / n_theta
    phis = np.arange(n_phi) * 2.0 * math.pi / n_phi
    th, ph = (a.ravel() for a in np.meshgrid(thetas, phis, indexing="ij"))
    half = th.size // 2 if n_phi % 2 == 0 else th.size
    normals, _ = params_to_planes(np.stack([th[:half], ph[:half], np.zeros(half)], axis=1))
    doubled = np.concatenate([normals, normals]), np.repeat([0.0, 1.0], half)
    arrays = [th, ph, normals, *doubled]
    twins = None
    if half < th.size:
        i, j = np.divmod(np.arange(half), n_phi)
        twins = (n_theta - 1 - i) * n_phi + (j + n_phi // 2) % n_phi
        arrays.append(twins)
    for a in arrays:
        a.setflags(write=False)
    return th, ph, normals, twins, doubled


def normal_scan(constraints, n_theta: int, n_phi: int, valley_floors: bool):
    """Newton seeds (theta, phi, d*) from an n_theta x n_phi grid of
    fold-plane normals (theta at the cell centres of [0, pi], phi wrapping),
    in grid order.

    Every signed residual component is affine in the offset d once the
    normal n is fixed: A(n) + d B(n), read exactly at d = 0 and d = 1, both
    in one residual_components_grid call per constraint on the doubled
    lattice.  So each normal's best offset is d*(n) = -A.B / B.B (variable
    projection) and no window bounds the search; normals with B.B <= 1e-12
    max B.B, whose offset is not determined, are skipped (d* = 0).  The
    score is the summed scalar residual at (n, d*) times (r + 1) / (r +
    |d*| + 1), r the payload radius, so far planes, whose residual changes
    fast with the angle, are not lost.  The seeds are the 2-D local minima
    of the score below the coarse threshold 3 (r + 1) pi / n_theta and
    their four grid neighbours, the neighbours compared by slicing.  With
    valley_floors, every cell below that threshold that is a minimum along
    theta or along phi is a seed too: a plane whose score valley slopes
    down to another solution has no 2-D minimum next to it.

    (theta, phi, d) and (pi - theta, phi + pi, -d) are the same plane.  So
    with n_phi even, the cell (i, j) has the twin (n_theta - 1 - i, j +
    n_phi/2), and the first half of the cells in grid order (the rows down
    to the equator) holds one cell of every twin pair.  Only that half is
    scored; the other half gets its mirror copy of the score (the twin's d*
    is -d*, and it is valid when its twin is), so the seed rule sees the
    whole sphere and seeds twins together.  Of every seeded twin pair only
    the first-half cell is kept: each fold plane is searched once.  With
    n_phi odd every cell is scored and kept.  The lattice, its scored normals,
    the doubled lattice and the twin map are built once per (n_theta,
    n_phi) and cached read-only (_scan_lattice, a few shapes at most).
    """
    cons = tuple(constraints)
    radius = payload_radius(cons)
    th, ph, normals, twins, doubled = _scan_lattice(n_theta, n_phi)
    n, half = th.size, normals.shape[0]
    ab = _stacked_components(cons, *doubled)
    a = ab[:half]
    b = ab[half:] - a
    bb = np.einsum("ij,ij->i", b, b)
    valid = bb > 1e-12 * bb.max()
    # the rows that are not valid divide by a B.B near 0 and are dropped
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        dstar = np.where(valid, -np.einsum("ij,ij->i", a, b) / bb, 0.0)
    score = np.full(n, np.inf)
    score[:half][valid] = stacked_residual_grid(cons, normals[valid], dstar[valid]) * (
        (radius + 1.0) / (radius + np.abs(dstar[valid]) + 1.0)
    )
    if twins is not None:
        score[twins] = score[:half]
    s = score.reshape(n_theta, n_phi)
    low = s < 3.0 * (radius + 1.0) * math.pi / n_theta
    # local minima: no theta neighbour beyond the poles, phi wraps
    along_theta = np.ones(s.shape, dtype=bool)
    along_theta[1:] = s[1:] <= s[:-1]
    along_theta[:-1] &= s[:-1] <= s[1:]
    along_phi = np.empty(s.shape, dtype=bool)
    along_phi[:, :-1] = s[:, :-1] <= s[:, 1:]
    along_phi[:, -1] = s[:, -1] <= s[:, 0]
    along_phi[:, 1:] &= s[:, 1:] <= s[:, :-1]
    along_phi[:, 0] &= s[:, 0] <= s[:, -1]
    i, j = np.nonzero(low & along_theta & along_phi)
    last = n_theta - 1
    rows = [i, np.minimum(i + 1, last), np.maximum(i - 1, 0), i, i]
    cols = [j, j, j, (j + 1) % n_phi, (j - 1) % n_phi]
    if valley_floors:
        i, j = np.nonzero(low & (along_theta | along_phi))
        rows.append(i)
        cols.append(j)
    cells = np.unique(np.concatenate(rows) * n_phi + np.concatenate(cols))
    cells = cells[cells < half]
    cells = cells[valid[cells]]
    return np.stack([th[cells], ph[cells], dstar[cells]], axis=1)


# Newton tolerance and iteration cap of the fold-plane search.
SEARCH_NEWTON_TOL = 1e-10
SEARCH_MAX_ITER = 80


def search(
    constraints, n_theta: int, n_phi: int, valley_floors: bool, refine_tol: float
) -> list[tuple[Plane3, float]]:
    """Fold planes of the constraints, with their summed scalar residuals.

    normal_scan seeds Gauss-Newton (newton_multistart) from n_theta x n_phi
    normals at their best offsets, valley floors included if asked; the
    converged planes whose summed residual is below refine_tol are kept,
    clustered with the fold-plane dedup metric (plane_gap) within
    TOL_PLANE_IDENTITY, best residual first.  The roots are mapped to planes
    by one params_to_planes call and verified by one stacked_residual_grid
    call on the planes' own normals and offsets, which gives each plane the
    bits of stacked_residual.  Raises DegenerateInput, as the solvers do,
    for a payload radius beyond constraints.MAX_PAYLOAD_RADIUS.
    """
    cons = tuple(constraints)
    check_payload_radius(payload_radius(cons))
    roots = newton_multistart(
        stacked_components_fn(cons),
        normal_scan(cons, n_theta, n_phi, valley_floors),
        tol=SEARCH_NEWTON_TOL,
        max_iter=SEARCH_MAX_ITER,
        vectorized=True,
    )
    if not roots:
        return []
    normals, offsets = params_to_planes(np.array(roots))
    planes = [Plane3(nm, o) for nm, o in zip(normals.tolist(), offsets.tolist())]
    residuals = stacked_residual_grid(
        cons, np.array([p.normal for p in planes]), np.array([p.offset for p in planes])
    )
    found = sorted(
        (pr for pr in zip(planes, residuals.tolist()) if pr[1] < refine_tol), key=lambda pr: pr[1]
    )
    clusters: list[tuple[Plane3, float]] = []
    for plane, res in found:
        if all(plane_gap(plane, q) > TOL_PLANE_IDENTITY for q, _ in clusters):
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
    outside 1..MAX_ORACLE_RESOLUTION or n_offsets below 1, and, as search
    does, for a payload radius beyond constraints.MAX_PAYLOAD_RADIUS.
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
    return OracleResult(tuple(clusters))
