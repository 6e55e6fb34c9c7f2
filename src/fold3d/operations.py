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
terms are dependent.  Every quadric passes through the plane at infinity
(0, 0, 0, 1).  Where the one linear form of a plane has no d term (I3+I5,
I5+I6, 2I3+I11, I3+I6+I11 and 2I6+I11: 5 of the 10), the plane holds it
too, and projecting from it leaves a binary cubic; in the other 5 an I7
or I8 form keeps it out, and two plane curves are met by a Sylvester
resultant.

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
import sys
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
from .geometry import TOL_INCIDENCE, Line3, Plane3, Point3, cross3, perp_unit
from .numerics import RealRoots, real_roots_cubic, real_roots_quadratic, search

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
# Charts (s, t, 1) -> U (s, t, 1) of a projective plane for two plane curves'
# resultant: fixed generic rotations U, whose middle column is the centre it
# projects from, np.linalg.qr(np.random.default_rng(2028).normal(size=(6, 3,
# 3)))[0] row by row, written out so that importing skips numpy.random.
_CHARTS = np.array((
    -0.12706919775709302, 0.616020959930992, -0.7774134009052501, -0.9444712016922943,
    -0.3145902824818805, -0.094905760319823, -0.3030306389711802, 0.7221849701383084,
    0.621788791110815, -0.5334402532546241, 0.2497323561229757, -0.8081307112793755,
    -0.3064992763446045, -0.9475587963971003, -0.0905014970633756, -0.7883525162057111,
    0.1994143366855694, 0.5820087907552413, -0.40596157466656435, 0.48250649051231836,
    -0.7761331628707341, -0.913566651737368, -0.19166498196360418, 0.3586927759549474,
    0.024314043835168674, 0.8546648590543413, 0.5186104568652703, -0.7150316610836436,
    -0.5288167786225122, 0.4572554409684749, 0.693357646467582, -0.6200409750635517,
    0.36715713710504866, 0.08935825497905159, 0.579570534007336, 0.8100080853778868,
    -0.002687987967274985, -0.028957918325895143, -0.9995770173863135, -0.9212164070487853,
    -0.388807810715511, 0.013741095689142774, -0.3890412652981874, 0.9208636844250304,
    -0.02563139875900747, -0.5675845235155104, -0.7636953170254444, 0.3075992058167205,
    0.01399018761269604, -0.3825028603065345, -0.9238483839396383, 0.8231962605091405,
    -0.5200586742000616, 0.22778694447452755,
)).reshape(6, 3, 3)
# Newton steps that polish each common point of two plane curves; a step
# after the first polishes only the points that the last step moved, as a
# unit vector, by more than _POLISH_MOVED in the L1 norm.
_POLISH_STEPS = 2
_POLISH_MOVED = 1e-12
# Two real roots of a binary cubic within this of each other, relative to
# the larger of the two or 1, are a double root that rounding split (by about
# sqrt(eps); the split of a tangency measured up to 7e-8).
_SPLIT_DOUBLE = 2e-7


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
    interpolated by one product with the cached inverse-DFT matrix
    _inverse_dft of that size, cheaper than np.fft.fft on so few values.
    Coefficients below the rounding noise, 1e-12 of
    Hadamard's bound |f|^dg |g|^df on |det| (the Sylvester rows are dg
    copies of f and df of g, for degrees df and dg), are zeroed, so _roots,
    which drops leading zeros, sees the actual degree.  None when every
    determinant is noise: the resultant vanishes identically."""
    dets = np.linalg.det(_sylvester(f, g))
    bound = _norms(np.abs(f), -1) ** (g.shape[-1] - 1) * _norms(np.abs(g), -1) ** (f.shape[-1] - 1)
    noise = 1e-12 * np.maximum.reduce(bound)
    if np.maximum.reduce(np.abs(dets)) <= noise:
        return None
    coeffs = (_inverse_dft(len(dets)) @ dets).real
    coeffs[np.abs(coeffs) <= noise] = 0.0
    return coeffs


_SUBDIAGONALS = tuple(np.broadcast_to(np.eye(k, k=-1), (k, k)) for k in range(10))  # read-only


def _roots(p: np.ndarray) -> np.ndarray:
    """np.roots of a float array p (highest power first, degree at most 9),
    bit for bit, without its argument checks: the eigenvalues of the
    companion matrix (on a copy of _SUBDIAGONALS') of p without its leading
    and trailing zeros, then a 0 for each trailing zero."""
    c = p.tolist()
    nonzero = [k for k, x in enumerate(c) if x != 0.0]
    if not nonzero:
        return np.array([])
    first, last = nonzero[0], nonzero[-1]
    roots = np.array([])
    if last > first:
        companion = _SUBDIAGONALS[last - first].copy()
        companion[0] = [-x / c[first] for x in c[first + 1 : last + 1]]
        roots = np.linalg.eigvals(companion)
    return roots if last == len(c) - 1 else np.concatenate((roots, np.zeros(len(c) - 1 - last)))


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


@lru_cache(maxsize=None)
def _inverse_dft(size: int) -> np.ndarray:
    """The inverse of evaluation at the size-th roots of unity, size = m n + 1
    for the orders of _CURVE_TABLES: the DFT matrix over size, so one
    product gives np.fft.fft / size.  Built on first use, so a run that
    meets no curves does not load numpy.fft."""
    return np.fft.fft(np.eye(size)) / size


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


def _bezout_t(f: list[float], g: list[float]) -> float:
    """t at a common root of two polynomials in t, of coefficient rows f and
    g (highest power first, degrees up to 3, the shorter padded with zeros),
    from the kernel v = (1, t, ..., t^(D-1)) of their D x D Bezoutian, D the
    larger degree: the largest cross product of two rows for D = 3, the
    larger row turned a quarter for D = 2, and v = (1, t) at the linear
    rows' least-squares common root for D = 1; t = sum v_k v_(k+1) / sum
    v_k^2 over k < D - 1 (Cox, Little & O'Shea, *Using Algebraic Geometry*,
    ch. 3; Nakatsukasa, Noferini & Townsend, Numer. Math. 129, 2015)."""
    a, b = f[::-1] + [0.0] * (len(g) - len(f)), g[::-1] + [0.0] * (len(f) - len(g))
    if len(a) == 2:
        v0, v1 = a[1] * a[1] + b[1] * b[1], -(a[0] * a[1] + b[0] * b[1])
    elif len(a) == 3:
        p, q, r = a[0] * b[1] - a[1] * b[0], a[0] * b[2] - a[2] * b[0], a[1] * b[2] - a[2] * b[1]
        v0, v1 = (q, -p) if p * p + q * q >= q * q + r * r else (r, -q)
    else:  # the Bezoutian ((c01, c02, c03), (c02, c03 + c12, c13), (c03, c13, c23))
        (a0, a1, a2, a3), (b0, b1, b2, b3) = a, b
        c01, c02, c03 = a0 * b1 - a1 * b0, a0 * b2 - a2 * b0, a0 * b3 - a3 * b0
        c12, c13, c23 = a1 * b2 - a2 * b1, a1 * b3 - a3 * b1, a2 * b3 - a3 * b2
        x0, x1, x2 = (s := c03 + c12) * c23 - c13 * c13, c13 * c03 - c02 * c23, c02 * c13 - s * c03
        y1, y2, z2 = c01 * c23 - c03 * c03, c03 * c02 - c01 * c13, c01 * s - c02 * c02
        v0, v1, v2 = max((x0, x1, x2), (x1, y1, y2), (x2, y2, z2), key=lambda w: math.hypot(*w))
        return (v0 * v1 + v1 * v2) / max(v0 * v0 + v1 * v1, sys.float_info.min)
    # v0 is 0 only at the chart's centre, which is off both curves
    return v0 * v1 / max(v0 * v0, sys.float_info.min)


def _curve_points(f: np.ndarray, g: np.ndarray) -> list[list[float]]:
    """The real common points, unit 3-vectors as lists, of the plane curves
    f = 0 and g = 0 given as symmetric tensors of orders m and n.

    One product with _CHART_MAPS gives, in every chart x = U (s, t, 1), the
    coefficients c[p, q] of s^p t^q of each curve, and so the values
    c[0, m] at the chart's centre U e2 and the curve's coefficients in t at
    any s (a Vandermonde product).  In the chart whose centre is farthest
    from both curves, the Sylvester resultant in t is interpolated from
    m n + 1 values on the unit circle (_resultant, with the powers of the
    circle from _CURVE_TABLES); the next chart is taken while it has lower
    degree, a common point on the chart's line at infinity.  Its real roots
    s (_roots, the companion eigenvalues of np.roots) each give t from the
    kernel of the curves' Bezout matrix in t at s (_bezout_t), and each
    point is polished by Newton steps on the unit sphere: the first on
    every point, the second only on those the first moved by more than
    _POLISH_MOVED, since the seeds of simple meetings are already good to
    about 1e-15 and only tangential ones move (by about 1e-8).  Raises
    IllPosed when the resultant vanishes identically: the curves share a
    component.

    The real seeds are lifted and polished one at a time in Python floats,
    where NumPy's per-call cost outweighs the arithmetic; a polish step
    makes one product for both gradients at the points it polishes (_grads).
    """
    f, g = f / math.sqrt(np.vdot(f, f)), g / math.sqrt(np.vdot(g, g))
    m, n = f.ndim, g.ndim
    circle_f, circle_g, powers = _CURVE_TABLES[m, n][2:]
    cf, cg = _chart_coeffs(f), _chart_coeffs(g)
    far = np.minimum(np.abs(cf[:, 0, 0]), np.abs(cg[:, 0, 0])).tolist()
    for i in sorted(range(len(far)), key=far.__getitem__, reverse=True):
        coeffs = _resultant(circle_f @ cf[i], circle_g @ cg[i])
        if coeffs is None:
            raise IllPosed(
                "two of the conditions share a curve of fold planes; the "
                "solution set is a continuum, not a finite operation"
            )
        if coeffs[-1] != 0.0:
            break  # else the last chart serves
    s = _near_real(_roots(coeffs[::-1]))
    if not s:
        return []
    vander = np.power.outer(s, powers)
    rows = (vander[:, : m + 1] @ cf[i]).tolist(), (vander[:, : n + 1] @ cg[i]).tolist()
    (u0, u1, u2), (v0, v1, v2), (w0, w1, w2) = _CHARTS[i].tolist()
    points = [_unit3(u0 * x + u1 * t + u2, v0 * x + v1 * t + v2, w0 * x + w1 * t + w2)
              for x, t in zip(s, map(_bezout_t, *rows))]
    moving = list(range(len(points)))
    for _ in range(_POLISH_STEPS):
        # a form of order m is x . grad / m, and the step is the minimum-norm
        # J^T (J J^T)^-1 r, taken only where the gradients are independent
        grads = _grads(f, g, np.array([points[k] for k in moving])).tolist()
        moved = []
        for k, (a, b) in zip(moving, grads):
            x0, y0, z0 = x, y, z = points[k]
            ax, ay, az = m * a[0], m * a[1], m * a[2]
            bx, by, bz = n * b[0], n * b[1], n * b[2]
            r0, r1 = a[0] * x + a[1] * y + a[2] * z, b[0] * x + b[1] * y + b[2] * z
            m00, m11 = ax * ax + ay * ay + az * az, bx * bx + by * by + bz * bz
            m01 = ax * bx + ay * by + az * bz
            if (det := m00 * m11 - m01 * m01) > 1e-30 * m00 * m11:
                e0, e1 = (m11 * r0 - m01 * r1) / det, (m00 * r1 - m01 * r0) / det
                x, y, z = x - e0 * ax - e1 * bx, y - e0 * ay - e1 * by, z - e0 * az - e1 * bz
            points[k] = x, y, z = _unit3(x, y, z)
            if abs(x - x0) + abs(y - y0) + abs(z - z0) > _POLISH_MOVED:
                moved.append(k)
        if not (moving := moved):
            break
    return points


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


def _plane_points(plane: np.ndarray, quadrics) -> list[list[float]]:
    """The points h = x plane, the rows of plane spanning a plane of P^3,
    where the quadrics vanish.  The first two distinct quadrics restricted
    to it are two conics, met by _curve_points.  A lone conic has finitely
    many real points only when it is semidefinite of rank 2 or more: those
    of its null space.  Raises IllPosed otherwise, a continuum."""
    conics = _distinct(plane @ quadrics @ plane.T, 2)
    if len(conics) == 2:
        return (np.reshape(_curve_points(*conics), (-1, 3)) @ plane).tolist()
    if conics:
        w, v = np.linalg.eigh(conics[0])
        zero = np.abs(w) <= EXACT_REL_TOL * np.abs(w).max()
        if np.count_nonzero(zero) <= 1 and len(set(np.sign(w[~zero]))) == 1:
            return (v[:, zero].T @ plane).tolist()
    raise IllPosed(_DEPENDENT)


def _plane_through_infinity(normal: list[float]) -> np.ndarray:
    """Rows (u1, 0), (u2, 0) and e4 = (0, 0, 0, 1) spanning the plane of P^3
    of the form (normal, 0): u1 = perp_unit(normal), u2 = normal x u1."""
    n = _unit3(*normal)
    u1 = perp_unit(n).tolist()
    return np.array(((*u1, 0.0), (*cross3(n, u1).tolist(), 0.0), (0.0, 0.0, 0.0, 1.0)))


def _rejoined(found: RealRoots, c3: float, c2: float, c1: float) -> list[float]:
    """The real roots found of a cubic c3 t^3 + c2 t^2 + c1 t + c0, with a
    double root, a tangency, that rounding split rejoined.  Split roots are
    only about sqrt(eps) accurate; their mean, -(c2 / c3 + s) / 2 for the
    third root s (Vieta), is accurate to rounding.  With one real root s,
    the complex pair m +- i e is joined where e <= 1e-3 max(|m|, 1), the
    bound of _near_real (e^2 = c1 / c3 - 2 s m - m^2), and re-verification
    decides; of three, two adjacent ones within _SPLIT_DOUBLE of each other,
    relative to the larger of the two or 1, are joined.  A third root far
    out, near the chart's end, does not widen that bound."""
    roots = list(found.roots)
    if c3 == 0.0 or found.multiplicities not in ((1,), (1, 1, 1)):
        return roots  # a quadratic's, or a double root found as such
    if len(roots) == 1:
        s = roots[0]
        m = -(c2 / c3 + s) / 2.0
        if math.isfinite(m) and c1 / c3 - 2.0 * s * m - m * m <= 1e-6 * max(m * m, 1.0):
            roots.append(m)
        return roots
    a, b, c = roots
    if b - a <= _SPLIT_DOUBLE * max(1.0, abs(a), abs(b)):
        return [-(c2 / c3 + c) / 2.0, c]
    return [a, -(c2 / c3 + a) / 2.0] if c - b <= _SPLIT_DOUBLE * max(1.0, abs(b), abs(c)) else roots


def _projected_points(plane: np.ndarray, quadrics: np.ndarray) -> list[list[float]]:
    """The points h = x plane where the first two quadrics vanish, for the
    rows (u1, 0), (u2, 0), e4 of _plane_through_infinity.  Both contain e4,
    the plane at infinity: restricted to the plane they are q_j + 2 w l_j,
    for a binary quadratic q_j and linear form l_j in N = x1 u1 + x2 u2, and
    projected from e4 (Richter-Gebert, *Perspectives on Projective
    Geometry*, ch. 11) their other common points are the roots of the binary
    cubic q_2 l_1 - q_1 l_2, w eliminated.  Its real roots come from
    real_roots_cubic in the chart of its larger end coefficient, with the
    chart's point at infinity where that coefficient is 0.0, as in
    _line_points; a double root, a tangency, comes once, and one that
    rounding split is rejoined (_rejoined).  _lifted gives each normal its
    w.  Falls back to _plane_points where both l_j vanish or the
    cubic does, so a continuum raises IllPosed there."""
    (a1, h1, p1), (_, b1, s1), _ = (plane @ quadrics[0] @ plane.T).tolist()
    (a2, h2, p2), (_, b2, s2), _ = (plane @ quadrics[1] @ plane.T).tolist()
    cubic = (a2 * p1 - a1 * p2, a2 * s1 + 2.0 * (h2 * p1 - h1 * p2) - a1 * s2,
             2.0 * (h2 * s1 - h1 * s2) + b2 * p1 - b1 * p2, b2 * s1 - b1 * s2)
    if (max(math.hypot(p1, s1), math.hypot(p2, s2)) <= EXACT_REL_TOL
            or max(map(abs, cubic)) <= EXACT_REL_TOL):
        return _plane_points(plane, quadrics)
    (c3, c2, c1, c0), (u1, u2) = cubic, plane[:2, :3].tolist()
    if abs(c3) < abs(c0):
        (c3, c2, c1, c0), (u1, u2) = (c0, c1, c2, c3), (u2, u1)
    roots = _rejoined(real_roots_cubic(c3, c2, c1, c0), c3, c2, c1)
    # N = t u1 + u2, or u1 + u2 / t where t is large
    normals = [_unit3(*(x + y / t if abs(t) > 1.0 else t * x + y for x, y in zip(u1, u2)))
               for t in roots]
    # c3 = 0 leaves c0 = 0 too, and the chart's point at infinity u1 is a root
    normals += [u1] if c3 == 0.0 else []
    return _lifted(normals, quadrics[:2, :3, :3], quadrics[:2, :3, 3])


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


def _three_quadric_points(quadrics: np.ndarray) -> list[list[float]]:
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
    return points + _lifted(normals, a, b)


def _lifted(normals: list[list[float]], a: np.ndarray, b: np.ndarray) -> list[list[float]]:
    """The points (N, d) of the mixed quadrics (a, b) over the normals N:
    d from the quadric with the largest |b_j . N|, and no point where that d
    is beyond 1 / _AT_INFINITY."""
    a, b = a.tolist(), b.tolist()
    points = []
    for x, y, z in normals:
        slopes = [bx * x + by * y + bz * z for bx, by, bz in b]
        j = max(range(len(slopes)), key=lambda k: abs(slopes[k]))
        value = sum((ax * x + ay * y + az * z) * c for (ax, ay, az), c in zip(a[j], (x, y, z)))
        if 2.0 * abs(slopes[j]) > _AT_INFINITY * abs(value):
            points.append([x, y, z, -value / (2.0 * slopes[j])])
    return points


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
    * a plane of planes (k = 2): where the one linear form has no d term
      (I3+I5, I5+I6, 2I3+I11, I3+I6+I11 and 2I6+I11; a parallel-disjoint
      I7 in I3+I7 or I6+I7; and a parallel I3 pair, which has one form and
      no quadric, in 3I3, 2I3+I6 or I3+2I6), the plane holds the plane at
      infinity, which both quadrics contain, and projecting from it leaves
      a binary cubic (_projected_points), with no SVD; otherwise (the other 5, and
      dependent forms of 2I5, I5+I7 or 2I7 that leave a plane) the first
      two distinct quadrics restricted to it are two conics, met by
      _curve_points (_plane_points);
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


def _unit3(x: float, y: float, z: float) -> list[float]:
    """(x, y, z) over its norm."""
    size = math.sqrt(x * x + y * y + z * z)
    return [x / size, y / size, z / size]


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
    elif len(rows) == 1 and rows[0][3] == 0.0:  # I5, I11, parallel I7 or I3: e4 on the plane
        points = _projected_points(_plane_through_infinity(rows[0][:3].tolist()), quadrics)
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
