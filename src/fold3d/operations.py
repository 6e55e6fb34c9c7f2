"""Elementary fold operations: enumeration of the valid constraint
combinations and solvers for them.

A fold plane has three degrees of freedom, so an elementary operation is a
multiset of incidence constraints whose codimensions sum to at least 3.
Three combinations are structurally invalid (they over-constrain the fold
normal and admit either no plane or a continuum): three half-plane swaps
(3I11), a half-line swap with a half-plane swap (I9+I11), and two half-line
swaps (2I9).  That leaves 47 valid operations.

One exact solver, solve_exact, solves every valid multiset.  It reads the
operation in dual plane coordinates h = (N, d), where each constraint is a
few linear forms and at most one quadric (constraints.dual_locus).  The
linear forms leave a P^k of planes (k = 3 minus their number).  On a point
or a line (k <= 1: 33 of the 47 operations, and every multiset with I1,
I2, I4 or I12) the first quadric is at most a quadratic; on a plane (k = 2:
10 operations) two quadrics are two conics; on all of P^3 (k = 3: 4
operations) eliminating d from three quadrics leaves two plane cubics in
N, meeting in at most 7 planes, or d-free conics where the quadrics' d
terms are dependent.  Two plane curves are met by a Sylvester resultant.

_DEDICATED is a speed table of six closed forms, faster than solve_exact
and with the same planes: the direct solvers of I1, I2, I4 and I12, and
I5+I6 and I5+I9, which put the parameter t of the I5 family of tangent
planes into the other condition (a cubic in t, and linear in t).  The
generic search (a scan of fold-plane normals, each at its best offset,
seeding Gauss-Newton) solves no operation; it cross-checks the others.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement, permutations
from typing import Sequence

import numpy as np

from .constraints import (  # MAX_PAYLOAD_RADIUS re-exported
    MAX_PAYLOAD_RADIUS,
    Constraint,
    FoldSolution,
    IncidenceKind,
    check_payload_radius,
    dual_locus,
    payload_radius,
    residual,
    solve_I1,
    solve_I2,
    solve_I4,
    solve_I12,
    stacked_residual_grid,
)
from .envelopes import family_I5
from .errors import DegenerateInput, IllPosed, InvalidOperation, ParseError
from .geometry import TOL_INCIDENCE, Line3, Plane3, Point3
from .numerics import real_roots_cubic, real_roots_quadratic, search

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

    @property
    def dual_dimension(self) -> int:
        """k = 3 minus the linear forms of the kinds' dual loci in general
        position: the dimension of the projective space of planes h = (N, d)
        they leave, below 0 when the forms over-determine it."""
        return 3 - sum(k.linear_forms for k in self.kinds)

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

def _i5_i6_cubic(a: float, q, nu, dist: float) -> tuple[float, float, float, float]:
    """Coefficients in t, highest first, of |N|^2 / 4 times the signed distance
    from the plane nu . x = o of q's image across the I5 member N . x = t^2,
    N = (0, 2t, -4a), all in the canonical frame of (p, m); dist = nu . q - o."""
    _, y, z = q
    _, ny, nz = nu
    return (ny, dist - 2 * a * nz - 2 * y * ny, 4 * a * (y * nz + z * ny),
            4 * a * a * (dist - 2 * z * nz))


def solve_I5_I6(
    p: Point3, m: Line3, q: Point3, pi: Plane3, tol: float = TOL_INCIDENCE
) -> FoldSolution:
    """Fold placing p onto line m and q onto plane pi: zero to three planes.

    The candidates are the I5 family of (p, m), the tangent planes
    2ty - 4az = t^2 of a parabolic cylinder in its canonical frame, and
    q-onto-pi is a cubic in t (_i5_i6_cubic) whose real roots give the
    planes.  A cubic that vanishes at the payload's scale r means the
    constraints are dependent: the whole family solves the operation (an
    infinite outcome).
    """
    fam = family_I5(p, m)
    qc, pic = fam.frame.apply_point(q), fam.frame.apply_plane(pi)
    dist = pic.signed_distance(qc)
    r = fam.half_gap + abs(qc.y) + abs(qc.z) + abs(dist)
    check_payload_radius(r)
    cubic = _i5_i6_cubic(fam.half_gap, qc.coords, pic.normal, dist)
    # each term c_k t^k is a length cubed, so c_k r^k is set against r^3
    if all(abs(c) * r**k <= 1e-10 * r**3 for c, k in zip(cubic, (3.0, 2.0, 1.0, 0.0))):
        return FoldSolution.infinite(fam)
    try:
        roots = real_roots_cubic(*cubic).roots
    except DegenerateInput:  # a nonzero constant: the only fold is the limit t -> oo
        return FoldSolution.no_solution()
    cons = (Constraint.I5(p, m), Constraint.I6(q, pi))
    planes = [fam.plane(t) for t in roots]
    return FoldSolution.finite([x for x in planes if all(residual(c, x) < tol for c in cons)])


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
    dx, dy, dz = (fam.frame.rotation @ n.direction).tolist()
    if abs(dx) > 1e-9 or abs(dz) <= 1e-9:
        return FoldSolution.no_solution()
    cand = fam.plane(-2.0 * fam.half_gap * dy / dz)
    cons = (Constraint.I5(p, m), Constraint.I9(n))
    if all(residual(c, cand) < tol for c in cons):
        return FoldSolution.finite([cand])
    return FoldSolution.no_solution()


# ---------------------------------------------------------------------------
# Exact solver in dual plane coordinates
# ---------------------------------------------------------------------------

# Singular values of the stacked unit linear forms below this fraction of the
# largest, and a unit quadric's values on the null line below it, are zero.
EXACT_REL_TOL = 1e-10
# The least residual tolerance of the exact route (solve_operation raises a
# smaller tol to it), and the default of solve_exact, solve_3I6 and solve_generic.
EXACT_TOL_FLOOR = 1e-8
# A unit candidate h = (N, d / r) with |N| below this is the plane at infinity.
_AT_INFINITY = 1e-9
# Charts (s, t, 1) -> U (s, t, 1) of a projective plane for the resultant of
# two plane curves: fixed generic rotations U, whose middle column is the
# centre the resultant projects from.
_CHARTS = np.linalg.qr(np.random.default_rng(2028).normal(size=(6, 3, 3)))[0]
# Newton steps that polish each common point of two plane curves.
_POLISH_STEPS = 2


def _norms(x: np.ndarray, axis=1) -> np.ndarray:
    """np.linalg.norm(x, axis=axis) of a real array: the same sums, without
    its argument handling."""
    return np.sqrt(np.add.reduce(x * x, axis=axis))


def _sylvester(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Batched Sylvester matrices of polynomials given by coefficient rows,
    scattered by the table of their degrees (_CURVE_TABLES)."""
    m, n = f.shape[-1] - 1, g.shape[-1] - 1
    slots, entries = _CURVE_TABLES[m, n][:2]
    rows = np.concatenate((f, g), axis=-1)
    out = np.zeros(f.shape[:-1] + ((m + n) ** 2,), dtype=rows.dtype)
    out[..., slots] = rows[..., entries]
    return out.reshape(f.shape[:-1] + (m + n, m + n))


def _resultant(f: np.ndarray, g: np.ndarray) -> np.ndarray | None:
    """Coefficients, lowest power first, of the resultant in t of two
    polynomials given by their t-coefficient rows at the n-th roots of unity
    s, n one more than the resultant's degree: the Sylvester determinants,
    interpolated by FFT.  Coefficients below the rounding noise, 1e-12 of
    Hadamard's bound |f|^dg |g|^df on |det| (the Sylvester rows are dg
    copies of f and df of g, for degrees df and dg), are zeroed, so _roots,
    which drops leading zeros, sees the actual degree.  None when every
    determinant is noise: the resultant vanishes identically."""
    dets = np.linalg.det(_sylvester(f, g))
    bound = _norms(np.abs(f), -1) ** (g.shape[-1] - 1) * _norms(np.abs(g), -1) ** (f.shape[-1] - 1)
    noise = 1e-12 * np.maximum.reduce(bound)
    if np.maximum.reduce(np.abs(dets)) <= noise:
        return None
    coeffs = np.fft.fft(dets).real / len(dets)
    coeffs[np.abs(coeffs) <= noise] = 0.0
    return coeffs


def _roots(p: np.ndarray) -> np.ndarray:
    """The roots of a float array p, highest power first, that np.roots
    gives, bit for bit, without its argument checks: the eigenvalues of the
    companion matrix of p without its leading and trailing zeros, then a 0
    for each trailing zero."""
    nonzero = np.flatnonzero(p)
    if not nonzero.size:
        return np.array([])
    first, last = nonzero[0], nonzero[-1]
    roots = np.array([])
    if last > first:
        companion = np.eye(last - first, k=-1)
        companion[0] = -p[first + 1 : last + 1] / p[first]
        roots = np.linalg.eigvals(companion)
    return np.concatenate((roots, np.zeros(len(p) - 1 - last, roots.dtype)))


def _near_real(roots: np.ndarray) -> list[float]:
    """Real values seeded by polynomial roots: each near-real root z gives
    Re z -+ |Im z|, in that order, since a near-double real pair may come out
    as a complex pair."""
    pairs = [(z.real, abs(z.imag)) for z in roots.tolist()]
    return list(dict.fromkeys(x + s * e for x, e in pairs
                              if e <= 1e-3 * max(abs(x), 1.0) for s in (-1.0, 1.0)))


def _rank(sv: np.ndarray) -> int:
    """The singular values sv (largest first) above EXACT_REL_TOL times the
    largest."""
    return int(np.count_nonzero(sv > EXACT_REL_TOL * sv[0]))


def _line_points(line: np.ndarray, quadrics) -> list[list[float]]:
    """The points h = x h1 + y h2 of the null line (rows h1, h2) where the
    first quadric that does not vanish on it does: a binary quadratic,
    solved in the chart of its larger end coefficient.  Raises IllPosed
    when every quadric vanishes on the line, a continuum of planes."""
    h1, h2 = line
    for q in quadrics:
        h1q = h1 @ q
        a, b, c = float(h1q @ h1), float(h1q @ h2), float(h2 @ q @ h2)
        if max(abs(a), abs(b), abs(c)) > EXACT_REL_TOL:
            break
    else:
        raise IllPosed(
            "a line of fold planes satisfies every constraint; the solution "
            "set is a continuum, not a finite operation"
        )
    h1, h2 = line.tolist()
    if abs(a) < abs(c):
        (a, c), (h1, h2) = (c, a), (h2, h1)
    points = [[t * x + y for x, y in zip(h1, h2)]
              for t in real_roots_quadratic(a, 2.0 * b, c).roots]
    # a = 0 leaves c = 0 too, and the chart's point at infinity h1 is a root
    return points + [h1] if a == 0.0 else points


def _chart_maps(order: int) -> np.ndarray:
    """For each chart U of _CHARTS, the matrix taking a symmetric tensor of
    the given order (raveled) to the coefficients c[p, q] (raveled, p and q
    up to the order) of s^p t^q of the form at U (s, t, 1)."""
    maps = np.ones((len(_CHARTS), 1, 1, 1))  # chart, p, q, raveled slots so far
    for k in range(1, order + 1):
        out = np.zeros((len(_CHARTS), k + 1, k + 1, 3 ** (k - 1), 3))
        slot = maps[..., None]
        # the new slot holds s U e1 + t U e2 + U e3
        out[:, 1:, :-1] += slot * _CHARTS[:, None, None, None, :, 0]
        out[:, :-1, 1:] += slot * _CHARTS[:, None, None, None, :, 1]
        out[:, :-1, :-1] += slot * _CHARTS[:, None, None, None, :, 2]
        maps = out.reshape(len(_CHARTS), k + 1, k + 1, 3**k)
    return maps.reshape(len(_CHARTS), (order + 1) ** 2, 3**order)


# _chart_maps of every order _curve_points meets: cubics, conics, and what
# _divided leaves of them.
_CHART_MAPS = tuple(_chart_maps(m) for m in range(4))


def _chart_coeffs(form: np.ndarray) -> np.ndarray:
    """c[chart, p, m - q], the coefficient of s^p t^q of form, of order m, at
    U (s, t, 1) in each chart U of _CHARTS: row p is in t, highest power
    first."""
    m = form.ndim
    return (_CHART_MAPS[m] @ form.ravel()).reshape(-1, m + 1, m + 1)[:, :, ::-1]


def _curve_table(m: int, n: int) -> tuple[np.ndarray, ...]:
    """For orders (m, n): the raveled slots of the Sylvester matrix that hold
    coefficients, their indices in the concatenated rows (f, g), the powers
    s^p (p <= m, and p <= n) at the (m n + 1)-th roots of unity s, and the
    exponents 0, ..., max(m, n)."""
    # n shifted rows of f's m + 1 coefficients, then m shifted rows of g's
    rows = [(i, i + j, j) for i in range(n) for j in range(m + 1)]
    rows += [(n + i, i + j, m + 1 + j) for i in range(m) for j in range(n + 1)]
    row, col, entry = np.array(rows, dtype=np.intp).reshape(-1, 3).T
    powers = np.arange(max(m, n) + 1)
    circle = np.power.outer(np.exp(2j * np.pi * np.arange(m * n + 1) / (m * n + 1)), powers)
    return row * (m + n) + col, entry, circle[:, : m + 1].copy(), circle[:, : n + 1].copy(), powers


# _curve_table of every pair of orders _curve_points meets (those of
# _CHART_MAPS), and of every pair of degrees _sylvester meets.
_CURVE_TABLES = {(m, n): _curve_table(m, n) for m in range(4) for n in range(4)}


def _outer_power(x: np.ndarray, order: int) -> np.ndarray:
    """The raveled outer power of the given order of each row of x."""
    if not order:
        return np.ones((len(x), 1))
    out = x
    for _ in range(order - 1):
        out = (out[:, :, None] * x[:, None, :]).reshape(len(x), -1)
    return out


def _grad(form: np.ndarray, x: np.ndarray) -> np.ndarray:
    """form(x, ..., x, .) at each row of x, the gradient of a form of order
    m >= 1 over m: the outer power of x of order m - 1 times the form as a
    3^(m - 1) x 3 matrix."""
    return _outer_power(x, form.ndim - 1) @ form.reshape(-1, 3)


def _grads(f: np.ndarray, g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """_grad of f and of g at each row of x, stacked on the second axis; one
    product when their orders agree."""
    if f.ndim != g.ndim:
        return np.stack((_grad(f, x), _grad(g, x)), axis=1)
    forms = np.concatenate((f.reshape(-1, 3), g.reshape(-1, 3)), axis=1)
    return (_outer_power(x, f.ndim - 1) @ forms).reshape(len(x), 2, 3)


def _curve_points(f: np.ndarray, g: np.ndarray) -> list[np.ndarray]:
    """The real common points, unit 3-vectors, of the plane curves f = 0 and
    g = 0 given as symmetric tensors of orders m and n.

    One product with _CHART_MAPS gives, in every chart x = U (s, t, 1), the
    coefficients c[p, q] of s^p t^q of each curve, and so the values
    c[0, m] at the chart's centre U e2 and the curve's coefficients in t at
    any s (a Vandermonde product).  In the chart whose centre is farthest
    from both curves, the resultant in t is interpolated from m n + 1
    values on the unit circle (_resultant, with the powers of the circle
    from _CURVE_TABLES); the next chart is taken while it has lower degree,
    a common point on the chart's line at infinity.  Its real roots s
    (_roots, the companion eigenvalues of np.roots) each give t from the
    kernel of the Sylvester matrix at s (the hidden-variable method, Cox,
    Little & O'Shea, *Using Algebraic Geometry*, ch. 3), and every point is
    polished by Newton steps on the unit sphere, with both gradients and
    their 2 x 2 Gram matrices each from one batched product.  Raises
    IllPosed when the resultant vanishes identically: the curves share a
    component.
    """
    f, g = f / math.sqrt(np.vdot(f, f)), g / math.sqrt(np.vdot(g, g))
    m, n = f.ndim, g.ndim
    circle_f, circle_g, powers = _CURVE_TABLES[m, n][2:]
    cf, cg = _chart_coeffs(f), _chart_coeffs(g)
    far = np.minimum(np.abs(cf[:, 0, 0]), np.abs(cg[:, 0, 0]))
    for i in np.argsort(-far, kind="stable"):
        coeffs = _resultant(circle_f @ cf[i], circle_g @ cg[i])
        if coeffs is None:
            raise IllPosed(
                "two of the conditions share a curve of fold planes; the "
                "solution set is a continuum, not a finite operation"
            )
        if coeffs[-1] != 0.0:
            break  # else the last chart serves
    s = np.array(_near_real(_roots(coeffs[::-1])))
    if not s.size:
        return []
    vander = np.power.outer(s, powers)
    syl = _sylvester(vander[:, : m + 1] @ cf[i], vander[:, : n + 1] @ cg[i])
    kernel = np.linalg.svd(syl)[2][:, -1]
    # the kernel is (t^(D-1), ..., t, 1), so its head is t times its tail;
    # the tail is 0 only at the chart's centre, which is off both curves
    tail = np.maximum(np.einsum("ij,ij->i", kernel[:, 1:], kernel[:, 1:]), np.finfo(float).tiny)
    x = np.ones((len(s), 3))
    x[:, 0] = s
    x[:, 1] = np.einsum("ij,ij->i", kernel[:, :-1], kernel[:, 1:]) / tail
    x = x @ _CHARTS[i].T
    x /= _norms(x)[:, None]
    orders = np.array([[m], [n]])
    for _ in range(_POLISH_STEPS):
        # a form of order m is x . grad / m, and the step is the minimum-norm
        # J^T (J J^T)^-1 r, taken only where the gradients are independent
        grads = _grads(f, g, x)
        r = (grads @ x[:, :, None])[:, :, 0]
        jac = grads * orders
        gram = jac @ jac.transpose(0, 2, 1)
        m00, m01, m11 = gram[:, 0, 0], gram[:, 0, 1], gram[:, 1, 1]
        det = m00 * m11 - m01 * m01
        det = np.where(det > 1e-30 * m00 * m11, det, np.inf)
        y0, y1 = (m11 * r[:, 0] - m01 * r[:, 1]) / det, (m00 * r[:, 1] - m01 * r[:, 0]) / det
        x = x - y0[:, None] * jac[:, 0] - y1[:, None] * jac[:, 1]
        x /= _norms(x)[:, None]
    return list(x)


def _symmetrized(form: np.ndarray) -> np.ndarray:
    """The mean of form over every order of its slots."""
    return sum(form.transpose(p) for p in permutations(range(form.ndim))) / math.factorial(form.ndim)


_DEPENDENT = ("the constraints are dependent and leave a continuum of fold "
              "planes, not a finite operation")


def _distinct(forms: np.ndarray, count: int) -> list[np.ndarray]:
    """The first count, or fewer, of forms (stacked on the first axis) that
    are linearly independent of those kept before them."""
    if len(forms) >= count:
        head = np.reshape(forms[:count], (count, -1))
        if np.all(_norms(head) > EXACT_REL_TOL) and _rank(
                np.linalg.svd(head, compute_uv=False)) == count:
            # by interlacing, every prefix of the head has full rank too, so
            # the rule below would keep each of them
            return list(forms[:count])
    kept: list[np.ndarray] = []
    for form in forms:
        stack = np.array([x.ravel() for x in kept + [form]])
        if np.linalg.norm(form) > EXACT_REL_TOL and _rank(
                np.linalg.svd(stack, compute_uv=False)) > len(kept):
            kept.append(form)
    return kept[:count]


def _plane_points(plane: np.ndarray, quadrics) -> list[np.ndarray]:
    """The points h = x plane, the rows of plane spanning a plane of P^3,
    where the quadrics vanish.  The first two distinct quadrics restricted
    to it are two conics, met by _curve_points.  A lone conic has finitely
    many real points only when it is semidefinite of rank 2 or more: those
    of its null space.  Raises IllPosed otherwise, a continuum."""
    conics = _distinct(plane @ quadrics @ plane.T, 2)
    if len(conics) == 2:
        return [x @ plane for x in _curve_points(*conics)]
    if conics:
        w, v = np.linalg.eigh(conics[0])
        zero = np.abs(w) <= EXACT_REL_TOL * np.abs(w).max()
        if np.count_nonzero(zero) <= 1 and len(set(np.sign(w[~zero]))) == 1:
            return list(v[:, zero].T @ plane)
    raise IllPosed(_DEPENDENT)


def _divided(curves: list[np.ndarray], factor: np.ndarray) -> list[np.ndarray] | None:
    """The symmetric tensors q with curve = factor q (the symmetrized
    product) for each of curves, or None when factor does not divide them
    all to within 1e-8 of their norm."""
    out = []
    for form in curves:
        order = form.ndim - factor.ndim
        if order < 0:
            return None
        basis = np.eye(3**order).reshape((-1,) + (3,) * order)
        image = np.array([_symmetrized(np.multiply.outer(factor, e)).ravel() for e in basis]).T
        q = np.linalg.lstsq(image, form.ravel(), rcond=None)[0]
        if np.linalg.norm(image @ q - form.ravel()) > 1e-8 * np.linalg.norm(form):
            return None
        out.append(_symmetrized(q.reshape((3,) * order)))
    return out


def _cubics(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The symmetrized cubics (N^T A_j N)(b_1 . N) - (N^T A_1 N)(b_j . N)
    for j > 1, of symmetric A_j stacked in a and b_j in b."""
    # (A_j b_1 - A_1 b_j)[i, k, l] is symmetric in i and k, so the mean of
    # its three distinct slot orders is the mean of all six
    mixed = a[1:, :, :, None] * b[:1, None, None] - a[:1, :, :, None] * b[1:, None, None]
    return (mixed + mixed.transpose(0, 1, 3, 2) + mixed.transpose(0, 3, 1, 2)) / 3.0


def _three_quadric_points(quadrics: np.ndarray) -> list[np.ndarray]:
    """The points h = (N, d) of the first three independent quadrics
    N^T A_j N + 2 d b_j . N = 0, stacked on the first axis, which all pass
    through the plane at infinity (0, 0, 0, 1).  Raises IllPosed when fewer
    than three are independent.

    The quadrics are first mixed, by one product, by the left singular
    vectors of the rows b_j, which makes the mixed b'_j orthogonal, largest
    first; those of singular value zero (the rank test of _rank) are the
    d-free conics N^T A'_j N = 0, two of them when every b_j is vertical (I3
    lines in horizontal planes, I6 onto horizontal planes).  When the first
    three b_j have rank 3, those three quadrics are independent, as their d
    terms are; else _distinct picks the three, and b's SVD is taken again.
    Eliminating d with the first from each other mixed quadric of b'_j != 0
    gives the plane cubic (N^T A'_j N)(b'_1 . N) - (N^T A'_1 N)(b'_j . N);
    two such cubics also share the two points where b'_1 . N = N^T A'_1 N
    = 0, which re-verification drops.  The first two of the cubics and
    conics are met by _curve_points.  d comes back, for all the normals in
    one batch, from the mixed quadric with the largest |b'_j . N|, and a
    point whose d is beyond 1 / _AT_INFINITY is the plane at infinity.
    Two curves that share a component are divided by the shared factors
    that carry no continuum, and met again.  One is b'_1 . N, whose plane
    b'_1 . N = 0 of P^3 is then met on its own (_plane_points): the first
    mixed quadric is a pair of planes, one of them this, in mirror-symmetric
    3I6 scenes, and the d-free conics both contain it when the I6 planes
    are parallel at matching heights.  The other is N . N, which has no
    real point: it divides both cubics when one point lands on three
    planes.  Any other shared component raises IllPosed."""
    head = quadrics[:3]
    u, sv, _ = np.linalg.svd(head[:, :3, 3])
    rank = _rank(sv)
    if rank < 3:
        head = np.array(_distinct(quadrics, 3))
        if len(head) < 3:
            raise IllPosed(_DEPENDENT)
        u, sv, _ = np.linalg.svd(head[:, :3, 3])
        rank = _rank(sv)
    mixed = (u.T @ head.reshape(3, 16)).reshape(3, 4, 4)
    a, b = mixed[:, :3, :3], mixed[:, :3, 3]
    curves = (list(_cubics(a[:rank], b[:rank])) + list(a[rank:]))[:2]
    points = []
    try:
        normals = _curve_points(*curves)
    except IllPosed:
        if rank and (quotients := _divided(curves, b[0])):
            curves = quotients
            plane = np.linalg.svd(np.concatenate((b[0], (0.0,)))[None])[2][1:]  # b'_1 . N = 0
            points = _plane_points(plane, head)
        normals = _curve_points(*(_divided(curves, np.eye(3)) or curves))
    if not normals:
        return points
    return points + list(_lifted(np.array(normals), a, b))


def _lifted(normals: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The points (N, d) of the mixed quadrics (a, b) over the rows N of
    normals: d from the quadric with the largest |b_j . N|, and no point
    where that d is beyond 1 / _AT_INFINITY."""
    slopes = normals @ b.T
    j = np.argmax(np.abs(slopes), axis=1)
    rows = np.arange(len(normals))
    slope = slopes[rows, j]
    value = np.add.reduce((normals @ a)[j, rows] * normals, axis=1)
    keep = 2.0 * np.abs(slope) > _AT_INFINITY * np.abs(value)
    return np.concatenate((normals[keep], (-value[keep] / (2.0 * slope[keep]))[:, None]), axis=1)


def solve_exact(constraints: Sequence[Constraint], tol: float = EXACT_TOL_FLOOR) -> FoldSolution:
    """Exact solver for every valid operation.

    Each constraint's dual locus (constraints.dual_locus) is a few linear
    forms and at most one quadric in h = (N, d), with d in units of the
    payload radius.  The unit linear forms' null space, by SVD with a rank
    test relative to the largest singular value, decides the class:
    * one point (k <= 0), the least-squares one when the forms have full
      rank: one candidate;
    * a line (k = 1): the first quadric that does not vanish on it is a
      binary quadratic (real_roots_quadratic, double roots once);
    * a plane of planes (k = 2, also when dependent forms of 2I5, I5+I7 or
      2I7 leave one): the first two distinct quadrics restricted to it are
      two conics, met by _curve_points (_plane_points);
    * all of P^3 (k = 3): three quadrics through the plane at infinity,
      which _three_quadric_points reduces to two plane curves in N: cubics
      after eliminating d, which meet in at most 7 planes, or d-free conics
      where the quadrics' d terms are dependent.
    Points with N = 0 (the plane at infinity) are dropped, and every plane
    is re-verified against tol with the summed residual, so a quadric
    beyond those used is only checked.  The result is exhaustive, never
    flagged possibly incomplete.  Raises IllPosed when the forms are
    dependent and leave a continuum (a null space of more dimensions than
    distinct quadrics on it, a line on which every quadric vanishes, or two
    curves sharing a component that carries planes) or when more than 7
    planes of three quadrics verify, and InvalidOperation as
    solve_operation does.
    """
    # by kind, so the planes do not depend on the order of different kinds
    cons = tuple(sorted(constraints, key=lambda c: c.kind.index))
    _checked_facts(tuple(c.kind.index for c in cons))
    r = check_payload_radius(payload_radius(cons))
    return _solve_exact(cons, r, tol)


def _unit4(h: list[float]) -> list[float]:
    """h over its norm, the squares summed left to right as np.add.reduce does."""
    a, b, c, d = h
    n = math.sqrt(a * a + b * b + c * c + d * d)
    return [a / n, b / n, c / n, d / n]


def _fold_planes(points: list[list[float]], r: float) -> tuple[list[tuple], list[float]]:
    """The unit normals and offsets of the points h = (N, d / r), none at infinity."""
    normals, offsets = [], []
    for x, y, z, d in map(_unit4, points):
        size = math.sqrt(x * x + y * y + z * z)
        if size > _AT_INFINITY:
            normals.append((x / size, y / size, z / size))
            offsets.append(d * r / size)
    return normals, offsets


def _solve_exact(cons: tuple[Constraint, ...], r: float, tol: float) -> FoldSolution:
    """solve_exact on constraints sorted by kind, of a checked operation, and
    on their checked payload radius r.  Its glue around the LAPACK calls
    keeps geometry's rule for single vectors, except the quadrics' norms."""
    scale = np.array([1.0, 1.0, 1.0, r])
    rows, quadrics = [], []
    for c in cons:
        forms, quadric = dual_locus(c)
        rows += forms
        if quadric is not None:
            quadrics.append(quadric)
    quadrics = np.array(quadrics).reshape(-1, 4, 4) * (scale[:, None] * scale)
    quadrics /= _norms(quadrics, (1, 2))[:, None, None]
    spatial = not rows  # no linear forms: all of P^3
    if spatial:
        points = _three_quadric_points(quadrics)
    else:
        _, sv, vt = np.linalg.svd([_unit4(form) for form in (np.array(rows) * scale).tolist()])
        # forms of full rank keep their least-squares plane, so tol decides
        null = vt[min(_rank(sv), 3):]
        if len(null) == 3:
            points = _plane_points(null, quadrics)
        else:
            points = null if len(null) < 2 else _line_points(null, quadrics)
    normals, offsets = _fold_planes(np.array(points).reshape(-1, 4).tolist(), r)
    keep = stacked_residual_grid(cons, np.array(normals).reshape(-1, 3), np.array(offsets)) < tol
    planes = [Plane3(n, o) for n, o, k in zip(normals, offsets, keep.tolist()) if k]
    sol = FoldSolution.finite(planes, provenance="exact")
    if spatial and sol.count > 7:
        raise IllPosed(
            f"{sol.count} distinct fold planes exceed the algebraic bound of 7; "
            "the configuration is degenerate"
        )
    return sol


def solve_I6_I8_I11(
    p: Point3, pi: Plane3, q: Point3, tau: Plane3, tol: float = TOL_INCIDENCE
) -> FoldSolution:
    """Fold through q placing p onto pi and swapping the halves of plane tau:
    at most two planes.  The I8 and I11 forms leave a line of planes, on
    which the I6 quadric is a binary quadratic (solve_exact, k = 1)."""
    return solve_operation((Constraint.I6(p, pi), Constraint.I8(q), Constraint.I11(tau)), tol=tol)


def solve_3I6(
    p: Point3, q: Point3, r: Point3, pi: Plane3, tau: Plane3, rho: Plane3,
    tol: float = EXACT_TOL_FLOOR,
) -> FoldSolution:
    """Fold placing p onto pi, q onto tau, and r onto rho: at most 7 planes,
    met as three quadrics in dual plane coordinates (solve_exact, k = 3).
    Raises IllPosed when two constraints coincide or the solutions
    otherwise form a continuum."""
    return solve_operation((Constraint.I6(p, pi), Constraint.I6(q, tau), Constraint.I6(r, rho)),
                           tol=tol)


# ---------------------------------------------------------------------------
# Generic solver and dispatch
# ---------------------------------------------------------------------------


@lru_cache(maxsize=256)
def _operation_facts(key: tuple[int, ...]) -> tuple[OperationSpec, str | None]:
    """For a sorted tuple of kind indices: the operation and the message of
    its refusal (else None).  Keys are unbounded, so only recent ones stay."""
    spec = OperationSpec.from_kinds(key)
    reason = spec.rejection_reason()
    if reason is not None:
        return spec, f"invalid combination {spec}: {reason}"
    if spec.total_codimension < 3:
        return spec, (f"{spec} has combined codimension {spec.total_codimension} < 3; "
                      "it leaves free fold-plane parameters")
    return spec, None


def _checked_facts(key: tuple[int, ...]) -> OperationSpec:
    """The operation of key from _operation_facts; its refusal (a rejected
    combination, an under-constrained multiset) raises InvalidOperation."""
    spec, refusal = _operation_facts(key)
    if refusal is not None:
        raise InvalidOperation(refusal)
    return spec


# solve_generic's normal scan (theta x phi counts).
SCAN_LATTICE = (14, 28)


def solve_generic(constraints: Sequence[Constraint], tol: float = EXACT_TOL_FLOOR) -> FoldSolution:
    """Numeric solver for any valid operation, kept as a cross-check of the
    exact and dedicated solvers: numerics.search over SCAN_LATTICE normals,
    valley floors included, keeping the planes below tol.  Flagged possibly
    incomplete: a numeric search proves existence, never exhaustiveness.
    Raises DegenerateInput, as search does, for a payload radius beyond
    MAX_PAYLOAD_RADIUS.
    """
    cons = tuple(constraints)
    _checked_facts(tuple(sorted(c.kind.index for c in cons)))
    planes = [plane for plane, _ in search(cons, *SCAN_LATTICE, True, tol)]
    return FoldSolution.finite(planes, provenance="generic")


# The speed table: closed forms faster than solve_exact, by operation key,
# called with the payload objects of the constraints sorted by kind.  Each
# solver is looked up by name when called, so wrappers set on this module
# (perfbench/tracing.py) see every dispatch.
_DEDICATED = {
    (1,): lambda objs, tol: solve_I1(*objs),
    (2,): lambda objs, tol: solve_I2(*objs, tol=tol),
    (4,): lambda objs, tol: solve_I4(*objs),
    (12,): lambda objs, tol: solve_I12(*objs),
    (5, 6): lambda objs, tol: solve_I5_I6(*objs, tol=tol),
    (5, 9): lambda objs, tol: solve_I5_I9(*objs, tol=tol),
}


def solver_route(spec: OperationSpec) -> str:
    """The solver solve_operation picks for spec: "dedicated" for the keys of
    the speed table _DEDICATED (I1, I2, I4, I12, I5+I6 and I5+I9), "exact"
    for the others."""
    return "dedicated" if spec.key in _DEDICATED else "exact"


def solve_operation(
    constraints: Sequence[Constraint], tol: float = TOL_INCIDENCE
) -> FoldSolution:
    """Solve a fold operation given its constraint payloads.

    Routes by solver_route: the six keys of the speed table _DEDICATED go
    to their closed forms with tol, every other operation to solve_exact
    with max(tol, EXACT_TOL_FLOOR).  Both are exhaustive, so no result is flagged
    possibly incomplete.  Raises InvalidOperation for the three rejected
    combinations and for under-constrained multisets, and DegenerateInput,
    on both routes, for a payload radius beyond MAX_PAYLOAD_RADIUS.
    """
    by_kind = tuple(sorted(constraints, key=lambda c: c.kind.index))
    if not by_kind:
        raise InvalidOperation("no constraints given")
    key = tuple(c.kind.index for c in by_kind)
    _checked_facts(key)
    r = check_payload_radius(payload_radius(by_kind))
    if key in _DEDICATED:
        return _DEDICATED[key](tuple(obj for c in by_kind for obj in c.objects), tol)
    return _solve_exact(by_kind, r, max(tol, EXACT_TOL_FLOOR))
