"""Output checks, run outside the timed region.

The library functions used here are bound when this module is imported,
before any tracing wrapper is installed, so checking never shows up in the
per-layer numbers.  Each ``check_*`` function returns a list of failure
messages; an empty list means the output passed.
"""

from __future__ import annotations

import json

import numpy as np

from fold3d.constraints import Outcome, payload_radius, residual
from fold3d.geometry import Plane3
from inputs import DEDICATED_KEYS

# The tolerance each solver path verifies its planes against when called
# through solve_operation with its default tolerance: the closed forms use
# it as given, while 3I6 and the generic search raise it to 1e-8.
TOL_CLOSED_FORM = 1e-9
TOL_MULTISTART = 1e-8
CLOSED_FORM_KEYS = DEDICATED_KEYS - {(6, 6, 6)}

# The oracle keeps a cluster when its summed residual is below this.
ORACLE_REFINE_TOL = 1e-6
ORACLE_N_OFFSETS = 64

# Algebraic bounds on the number of fold planes: (fewest, most).
COUNT_BOUNDS = {
    (1,): (1, 1),
    (12,): (1, 1),
    (2,): (1, 2),  # coplanar lines: crossing -> 2, parallel -> 1
    (4,): (1, 2),
    (5, 6): (0, 3),
    (5, 9): (0, 1),
    (6, 8, 11): (0, 2),
    (6, 6, 6): (0, 9),
}

# An exported envelope vertex lies on the quadric when the normalized
# quadric equation vanishes to this tolerance relative to |v|^2.
QUADRIC_TOL = 1e-8


def spec_key(cons) -> tuple[int, ...]:
    return tuple(sorted(c.kind.index for c in cons))


def solve_tolerance(key: tuple[int, ...]) -> float:
    return TOL_CLOSED_FORM if key in CLOSED_FORM_KEYS else TOL_MULTISTART


def _count_errors(key, count: int) -> list[str]:
    lo, hi = COUNT_BOUNDS.get(key, (0, None))
    if count < lo or (hi is not None and count > hi):
        return [f"{count} planes outside the algebraic bound [{lo}, {hi}]"]
    return []


def plane_errors(cons, planes, tol: float) -> list[str]:
    errors = []
    for plane in planes:
        worst = max(residual(c, plane) for c in cons)
        if not worst <= tol:
            errors.append(f"plane {plane.coeffs()} has residual {worst:.3e} > {tol:g}")
    return errors


def check_solution(cons, sol) -> list[str]:
    """A solve_operation result: finite or empty, count within its bound,
    every plane within the solve's tolerance."""
    if sol.outcome is Outcome.INFINITE:
        return ["unexpected infinite family for a generic-position instance"]
    key = spec_key(cons)
    errors = _count_errors(key, sol.count)
    errors += plane_errors(cons, sol.planes, solve_tolerance(key))
    return errors


def check_oracle(cons, result) -> list[str]:
    """An oracle result: every cluster's summed residual below the oracle's
    refinement tolerance and the count within the algebraic bound."""
    errors = _count_errors(spec_key(cons), result.count)
    for plane, _ in result.clusters:
        total = sum(residual(c, plane) for c in cons)
        if not total < ORACLE_REFINE_TOL:
            errors.append(f"oracle plane {plane.coeffs()} has residual {total:.3e}")
    return errors


def windowed_counts(cons, planes, oracle_planes) -> tuple[int, int]:
    """Plane counts of a solver and the oracle, both restricted to the
    oracle's offset window minus a two-cell margin (the rule of acceptance
    criterion 4: a windowed grid cannot see planes beyond its offsets)."""
    window = 3.0 * payload_radius(cons)
    w_eff = window - 2.0 * (2.0 * window / ORACLE_N_OFFSETS)
    ded = sum(1 for p in planes if abs(p.offset) <= w_eff)
    orc = sum(1 for p in oracle_planes if abs(p.offset) <= w_eff)
    return ded, orc


# ---------------------------------------------------------------------------
# CLI outputs
# ---------------------------------------------------------------------------

_EXIT_CODES = {Outcome.FINITE: 0, Outcome.NO_SOLUTION: 2, Outcome.INFINITE: 3}


def check_cli_solve(cons, reference, out) -> list[str]:
    """``fold3d solve --json``: exit code, parseable JSON, the same outcome
    and count as the in-process reference solve, and planes that pass."""
    code, stdout, stderr = out
    want = _EXIT_CODES[reference.outcome]
    if code != want:
        return [f"exit code {code}, expected {want}; stderr {stderr.strip()!r}"]
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"solve output is not JSON: {exc}"]
    if doc.get("outcome") != reference.outcome.value:
        return [f"outcome {doc.get('outcome')!r}, expected {reference.outcome.value!r}"]
    planes = [Plane3.from_coeffs(*p["coeffs"]) for p in doc.get("planes", [])]
    errors = _count_errors(spec_key(cons), len(planes))
    if len(planes) != reference.count:
        errors.append(f"{len(planes)} planes, in-process solve gives {reference.count}")
    errors += plane_errors(cons, planes, solve_tolerance(spec_key(cons)))
    return errors


def check_cli_verify(out) -> list[str]:
    code, stdout, stderr = out
    if code != 0:
        return [f"verify exit code {code}; stderr {stderr.strip()!r}"]
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"verify output is not JSON: {exc}"]
    if doc.get("pass") is not True:
        return [f"verify did not pass: {doc.get('checks')}"]
    return []


def obj_groups(text: str) -> dict[str, np.ndarray]:
    """Vertices of each named object of a Wavefront OBJ file."""
    groups: dict[str, list] = {}
    current = None
    for line in text.splitlines():
        if line.startswith("o "):
            current = groups.setdefault(line[2:].strip(), [])
        elif line.startswith("v ") and current is not None:
            current.append([float(v) for v in line.split()[1:4]])
    return {k: np.array(v, dtype=float).reshape(-1, 3) for k, v in groups.items()}


def check_cli_envelope(quadric, tangent_planes: int, out, obj_text: str) -> list[str]:
    """``fold3d envelope``: exit code, the exported object names, and every
    envelope vertex on the closed-form quadric."""
    code, stdout, stderr = out
    if code != 0:
        return [f"envelope exit code {code}; stderr {stderr.strip()!r}"]
    groups = obj_groups(obj_text)
    want = ["envelope"] + [f"fold_plane_{i + 1}" for i in range(tangent_planes)]
    if sorted(groups) != sorted(want):
        return [f"OBJ objects {sorted(groups)}, expected {want}"]
    verts = groups["envelope"]
    if len(verts) == 0:
        return ["OBJ envelope has no vertices"]
    values = np.abs(quadric.evaluate_xyz(verts))
    canon = quadric.frame.apply_xyz(verts)
    limit = QUADRIC_TOL * (1.0 + np.einsum("ij,ij->i", canon, canon))
    off = int(np.count_nonzero(~(values <= limit)))
    if off:
        return [f"{off} of {len(verts)} envelope vertices off the quadric "
                f"(worst {float(values.max()):.3e})"]
    return []
