"""Seeded input generators for the benchmark.

Everything here depends only on a ``numpy.random.Generator`` built from the
benchmark's ``--seed``, so the same seed gives the same instances.  The
generators are the benchmark's own (they do not import the test suite), so
editing a test cannot change what the benchmark measures.

Payloads are desk scale (coordinates within a few units of the origin) and
every precondition is met with a separation margin, so no instance sits on a
degenerate boundary.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from fold3d import (
    Constraint,
    IncidenceKind,
    Line3,
    Plane3,
    Point3,
    canonical_frame_point_line,
    enumerate_operations,
)
from fold3d.geometry import line_line_closest

MARGIN = 0.3
SCALE = 2.0

# Scene scales of the rescaled copies in the closed_form workload.
RESCALES = (1e-3, 1e4)

# The operations solve_operation routes to a dedicated (non-generic) solver.
DEDICATED_KEYS = {(1,), (2,), (4,), (12,), (5, 6), (5, 9), (6, 8, 11), (6, 6, 6)}


def unit(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def point(rng) -> Point3:
    return Point3(*rng.uniform(-SCALE, SCALE, 3))


def line(rng) -> Line3:
    return Line3(point(rng), tuple(unit(rng)))


def plane(rng) -> Plane3:
    return Plane3(tuple(unit(rng)), rng.uniform(-SCALE, SCALE))


def point_off_line(rng) -> tuple[Point3, Line3]:
    while True:
        p, m = point(rng), line(rng)
        if m.distance_to_point(p) > MARGIN:
            return p, m


def point_off_plane(rng) -> tuple[Point3, Plane3]:
    while True:
        p, pi = point(rng), plane(rng)
        if pi.distance(p) > MARGIN:
            return p, pi


def skew_lines(rng) -> tuple[Line3, Line3]:
    while True:
        m, n = line(rng), line(rng)
        _, _, dist, parallel = line_line_closest(m, n)
        if not parallel and dist > MARGIN:
            return m, n


def distinct_points(rng) -> tuple[Point3, Point3]:
    while True:
        p, q = point(rng), point(rng)
        if p.distance_to(q) > MARGIN:
            return p, q


def crossing_planes(rng) -> tuple[Plane3, Plane3]:
    while True:
        pi, tau = plane(rng), plane(rng)
        if np.linalg.norm(np.cross(pi.normal_vec, tau.normal_vec)) > MARGIN:
            return pi, tau


def line_off_plane(rng) -> tuple[Line3, Plane3]:
    """A line crossing a plane at an angle of at least ~0.3 rad."""
    while True:
        m, pi = line(rng), plane(rng)
        if abs(float(m.direction @ pi.normal_vec)) > MARGIN:
            return m, pi


def coplanar_lines(rng, parallel: bool) -> tuple[Line3, Line3]:
    """Two distinct coplanar lines, crossing or parallel (I2 needs one of
    these; random lines are skew and have no solution)."""
    if parallel:
        m = line(rng)
        while True:
            shift = unit(rng)
            shift -= (shift @ m.direction) * m.direction
            norm = np.linalg.norm(shift)
            if norm > 0.1:
                break
        shift *= rng.uniform(MARGIN, SCALE) / norm
        return m, Line3(Point3(*(m.base.xyz + shift)), m.dir)
    x = point(rng)
    d1 = unit(rng)
    while True:
        d2 = unit(rng)
        if np.linalg.norm(np.cross(d1, d2)) > MARGIN:
            return Line3(x, tuple(d1)), Line3(x, tuple(d2))


def i5_i9(rng, solvable: bool) -> tuple[Constraint, ...]:
    """I5 plus a half-line swap.  A solvable instance puts n's direction in
    the span of (p, m) and off m's direction; an unsolvable one draws n at
    random (almost surely outside that span)."""
    p, m = point_off_line(rng)
    if solvable:
        frame, _ = canonical_frame_point_line(p, m)
        d = np.array([0.0, rng.uniform(-1.5, 1.5), rng.uniform(MARGIN, 1.0)])
        d *= rng.choice([-1.0, 1.0]) / np.linalg.norm(d)
        n = Line3(point(rng), tuple(frame.rotation.T @ d))
    else:
        n = line(rng)
    return (Constraint.I5(p, m), Constraint.I9(n))


def payload(rng, kind: IncidenceKind) -> Constraint:
    """An admissible random payload of one incidence kind."""
    make = {
        IncidenceKind.I1: lambda: distinct_points(rng),
        IncidenceKind.I2: lambda: coplanar_lines(rng, parallel=False),
        IncidenceKind.I3: lambda: skew_lines(rng),
        IncidenceKind.I4: lambda: crossing_planes(rng),
        IncidenceKind.I5: lambda: point_off_line(rng),
        IncidenceKind.I6: lambda: point_off_plane(rng),
        IncidenceKind.I7: lambda: line_off_plane(rng),
        IncidenceKind.I8: lambda: (point(rng),),
        IncidenceKind.I9: lambda: (line(rng),),
        IncidenceKind.I10: lambda: (line(rng),),
        IncidenceKind.I11: lambda: (plane(rng),),
        IncidenceKind.I12: lambda: (plane(rng),),
    }[kind]
    return Constraint(kind, tuple(make()))


def generic_specs() -> list:
    """The 39 valid operations that solve_operation routes to solve_generic."""
    valid, _ = enumerate_operations()
    return [s for s in valid if s.key not in DEDICATED_KEYS]


def random_instance(rng, spec) -> tuple[Constraint, ...]:
    return tuple(payload(rng, k) for k in spec.kinds)


# ---------------------------------------------------------------------------
# Instances of the dedicated closed-form paths
# ---------------------------------------------------------------------------


def closed_form_instance(rng, path: str) -> tuple[Constraint, ...]:
    if path == "I1":
        return (Constraint.I1(*distinct_points(rng)),)
    if path == "I2":
        return (Constraint.I2(*coplanar_lines(rng, parallel=bool(rng.integers(0, 2)))),)
    if path == "I4":
        return (Constraint.I4(*crossing_planes(rng)),)
    if path == "I12":
        return (Constraint.I12(plane(rng)),)
    if path == "I5+I6":
        p, m = point_off_line(rng)
        q, pi = point_off_plane(rng)
        return (Constraint.I5(p, m), Constraint.I6(q, pi))
    if path == "I5+I9/solvable":
        return i5_i9(rng, solvable=True)
    if path == "I5+I9/unsolvable":
        return i5_i9(rng, solvable=False)
    if path == "I6+I8+I11":
        p, pi = point_off_plane(rng)
        return (Constraint.I6(p, pi), Constraint.I8(point(rng)), Constraint.I11(plane(rng)))
    if path == "3I6":
        return tuple(Constraint.I6(*point_off_plane(rng)) for _ in range(3))
    raise ValueError(f"unknown path {path!r}")


CLOSED_FORM_PATHS = (
    "I1",
    "I2",
    "I4",
    "I12",
    "I5+I6",
    "I5+I9/solvable",
    "I5+I9/unsolvable",
    "I6+I8+I11",
)


def rescale(cons, s: float) -> tuple[Constraint, ...]:
    """The same scene with every coordinate multiplied by s."""

    def obj(o):
        if isinstance(o, Point3):
            return Point3(*(s * o.xyz))
        if isinstance(o, Line3):
            return Line3(Point3(*(s * o.base.xyz)), o.dir)
        return Plane3(o.normal, s * o.offset)

    return tuple(Constraint(c.kind, tuple(obj(o) for o in c.objects)) for c in cons)


# ---------------------------------------------------------------------------
# Scene files
# ---------------------------------------------------------------------------

_ARG_NAMES = {
    ("point", 0): "point",
    ("point", 1): "point2",
    ("line", 0): "line",
    ("line", 1): "line2",
    ("plane", 0): "plane",
    ("plane", 1): "plane2",
}


def scene_dict(cons) -> dict:
    """Scene JSON document (the fold3d scene schema) holding the payloads."""
    doc = {"points": {}, "lines": {}, "planes": {}, "constraints": []}
    for i, c in enumerate(cons):
        args = {}
        seen: dict[str, int] = {}
        for obj, role in zip(c.objects, c.kind.signature):
            slot = seen.get(role, 0)
            seen[role] = slot + 1
            name = f"{role[:2]}{i}_{slot}"
            if role == "point":
                doc["points"][name] = [obj.x, obj.y, obj.z]
            elif role == "line":
                doc["lines"][name] = {"point": list(obj.base.xyz), "dir": list(obj.dir)}
            else:
                doc["planes"][name] = {"normal": list(obj.normal), "offset": obj.offset}
            args[_ARG_NAMES[(role, slot)]] = name
        doc["constraints"].append({"type": c.kind.value, "args": args})
    return doc


def write_scene(path: Path, cons) -> Path:
    path.write_text(json.dumps(scene_dict(cons)) + "\n")
    return path
