"""JSON scene files and result documents.

Scene schema::

    {
      "points":  {"P": [x, y, z], ...},
      "lines":   {"m": {"point": [x, y, z], "dir": [x, y, z]}, ...},
      "planes":  {"pi": {"normal": [x, y, z], "offset": r}, ...},
                 # or {"coeffs": [a, b, c, d]} for a x + b y + c z + d = 0
      "constraints": [
        {"type": "I5", "args": {"point": "P", "line": "m"}},
        ...
      ]
    }

Numbers are written back with ``repr`` (17 significant digits), so a
load/write/load round trip gives points, lines and planes back bit for bit
(``Plane3`` keeps a normal that is already unit, ``Line3`` such a direction
and a base point already perpendicular to it).
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .constraints import Constraint, IncidenceKind, residual_grid
from .errors import FoldError, InvalidConstraint, ParseError, ValidationError
from .geometry import Line3, Plane3, Point3


def _arg_keys(kind: IncidenceKind) -> list[tuple[str, str]]:
    """(argument name, scene section) of each payload object of a kind: the
    object kind, with a 2 on its repeat (I1 takes point and point2), and
    the section named by its plural."""
    sig = kind.signature
    return [
        (obj + ("2" if obj in sig[:i] else ""), obj + "s") for i, obj in enumerate(sig)
    ]


@dataclass(frozen=True)
class SceneConstraint:
    kind: IncidenceKind
    constraint: Constraint
    args: dict[str, str]

    def label(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.args.items())
        return f"{self.kind.value}({inner})"


@dataclass
class Scene:
    points: dict[str, Point3] = field(default_factory=dict)
    lines: dict[str, Line3] = field(default_factory=dict)
    planes: dict[str, Plane3] = field(default_factory=dict)
    constraints: list[SceneConstraint] = field(default_factory=list)

    def constraint_list(self) -> list[Constraint]:
        return [sc.constraint for sc in self.constraints]


def _is_number(v) -> bool:
    """A JSON number a float holds: no boolean, string, null or huge integer."""
    return isinstance(v, float) or (type(v) is int and abs(v) <= sys.float_info.max)


def _numbers(value, count: int, where: str) -> tuple[float, ...]:
    """A list of count JSON numbers as floats; ParseError otherwise."""
    if not (isinstance(value, (list, tuple)) and len(value) == count
            and all(map(_is_number, value))):
        raise ParseError(f"{where}: expected {count} numbers, got {value!r}")
    return tuple(float(v) for v in value)


def _parse_point(name: str, raw) -> Point3:
    return Point3(*_numbers(raw, 3, f"points.{name}"))


def _parse_line(name: str, raw) -> Line3:
    if not isinstance(raw, dict) or "point" not in raw or "dir" not in raw:
        raise ParseError(f"lines.{name}: expected an object with 'point' and 'dir'")
    base = _numbers(raw["point"], 3, f"lines.{name}.point")
    direction = _numbers(raw["dir"], 3, f"lines.{name}.dir")
    try:
        return Line3(Point3(*base), direction)
    except FoldError as exc:
        raise ParseError(f"lines.{name}: {exc}") from None


def _parse_plane(name: str, raw) -> Plane3:
    if not isinstance(raw, dict):
        raise ParseError(f"planes.{name}: expected an object")
    try:
        if "coeffs" in raw:
            return Plane3.from_coeffs(*_numbers(raw["coeffs"], 4, f"planes.{name}.coeffs"))
        if "normal" in raw and "offset" in raw:
            normal = _numbers(raw["normal"], 3, f"planes.{name}.normal")
            if not _is_number(raw["offset"]):
                raise ParseError(f"planes.{name}.offset: expected a number, got {raw['offset']!r}")
            return Plane3(normal, float(raw["offset"]))
    except ParseError:
        raise
    except FoldError as exc:
        raise ParseError(f"planes.{name}: {exc}") from None
    raise ParseError(
        f"planes.{name}: expected 'normal' + 'offset' or 'coeffs' [a, b, c, d]"
    )


def scene_from_dict(data: dict) -> Scene:
    if not isinstance(data, dict):
        raise ParseError("scene root must be a JSON object")
    scene = Scene()
    for section, parser, target in (
        ("points", _parse_point, "points"),
        ("lines", _parse_line, "lines"),
        ("planes", _parse_plane, "planes"),
    ):
        raw = data.get(section, {})
        if not isinstance(raw, dict):
            raise ParseError(f"{section}: expected a name -> object mapping")
        for name, value in raw.items():
            getattr(scene, target)[name] = parser(name, value)
    all_names = set(scene.points) | set(scene.lines) | set(scene.planes)
    if len(all_names) != len(scene.points) + len(scene.lines) + len(scene.planes):
        raise ValidationError("object names must be unique across sections")
    raw_cons = data.get("constraints", [])
    if not isinstance(raw_cons, list):
        raise ParseError("constraints: expected an array")
    for i, entry in enumerate(raw_cons):
        where = f"constraints[{i}]"
        if not isinstance(entry, dict) or "type" not in entry:
            raise ParseError(f"{where}: expected an object with a 'type'")
        try:
            kind = IncidenceKind(str(entry["type"]))
        except ValueError:
            raise ParseError(f"{where}: unknown incidence type {entry['type']!r}") from None
        args = entry.get("args", {})
        if not isinstance(args, dict):
            raise ParseError(f"{where}.args: expected an object")
        objects = []
        resolved: dict[str, str] = {}
        for arg_name, section in _arg_keys(kind):
            if arg_name not in args:
                raise ParseError(f"{where}.args: {kind.value} needs '{arg_name}'")
            ref = args[arg_name]
            pool = getattr(scene, section)
            if not isinstance(ref, str) or ref not in pool:
                raise ValidationError(
                    f"{where}: no {section[:-1]} named {ref!r} in the scene"
                )
            objects.append(pool[ref])
            resolved[arg_name] = str(ref)
        try:
            constraint = Constraint(kind, tuple(objects))
        except InvalidConstraint as exc:
            raise ValidationError(f"{where} ({kind.value}): {exc}") from None
        scene.constraints.append(SceneConstraint(kind, constraint, resolved))
    return scene


def load_scene(source) -> Scene:
    """Load a scene from a path or a JSON string."""
    name, text = "scene", source
    if isinstance(source, Path) or (
        isinstance(source, str) and not source.lstrip().startswith("{")
    ):
        path = Path(source)
        if not path.exists():
            raise ParseError(f"scene file not found: {path}")
        name = f"scene file {path}"
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeError) as exc:
            raise ParseError(f"cannot read {name}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"scene is not valid JSON: {exc}") from None
    except RecursionError:
        raise ParseError(f"{name} nests its JSON too deeply") from None
    return scene_from_dict(data)


def scene_to_dict(scene: Scene) -> dict:
    return {
        "points": {k: [p.x, p.y, p.z] for k, p in scene.points.items()},
        "lines": {
            k: {"point": [m.base.x, m.base.y, m.base.z], "dir": list(m.dir)}
            for k, m in scene.lines.items()
        },
        "planes": {
            k: {"normal": list(pl.normal), "offset": pl.offset}
            for k, pl in scene.planes.items()
        },
        "constraints": [
            {"type": sc.kind.value, "args": dict(sc.args)} for sc in scene.constraints
        ],
    }


def write_scene(scene: Scene, path=None) -> str:
    """Serialize a scene; also writes to `path` when given."""
    text = json.dumps(scene_to_dict(scene), indent=2)
    if path is not None:
        Path(path).write_text(text + "\n")
    return text


# ---------------------------------------------------------------------------
# Result documents
# ---------------------------------------------------------------------------


@dataclass
class ResultDocument:
    """Serializable record of one solve: outcome, planes with their
    per-constraint residuals, solver provenance, and a completeness flag."""

    operation: str
    tolerance: float
    outcome: str
    solver: str
    possibly_incomplete: bool
    planes: list[dict] = field(default_factory=list)
    family: dict | None = None
    message: str = ""

    @classmethod
    def from_solution(cls, operation, constraints: list[SceneConstraint], solution,
                      tol) -> "ResultDocument":
        planes = []
        if solution.planes:
            # one residual_grid call per constraint over every plane; each row
            # has the bits a one-plane call would give
            N = np.array([p.normal for p in solution.planes])
            O = np.array([p.offset for p in solution.planes])
            by_constraint = [residual_grid(sc.constraint, N, O).tolist() for sc in constraints]
        for i, plane in enumerate(solution.planes):
            planes.append(
                {
                    "normal": list(plane.normal),
                    "offset": plane.offset,
                    "coeffs": list(plane.coeffs()),
                    "residuals": [
                        {"constraint": sc.label(), "residual": r[i]}
                        for sc, r in zip(constraints, by_constraint)
                    ],
                }
            )
        family = None
        if solution.family is not None:
            family = {
                "dimension": solution.family.dimension,
                "parameters": [
                    {"name": p.name, "range": [p.low, p.high]}
                    for p in solution.family.parameters
                ],
            }
        return cls(
            operation=str(operation),
            tolerance=tol,
            outcome=solution.outcome.value,
            solver=solution.provenance,
            possibly_incomplete=solution.possibly_incomplete,
            planes=planes,
            family=family,
        )

    def to_dict(self) -> dict:
        out = {
            "operation": self.operation,
            "tolerance": self.tolerance,
            "outcome": self.outcome,
            "solver": self.solver,
            "possibly_incomplete": self.possibly_incomplete,
            "planes": self.planes,
        }
        if self.family is not None:
            out["family"] = self.family
        if self.message:
            out["message"] = self.message
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def render_text(self) -> str:
        lines = [
            f"operation:  {self.operation}",
            f"outcome:    {self.outcome}"
            + (" (possibly incomplete)" if self.possibly_incomplete else ""),
            f"solver:     {self.solver}",
            f"tolerance:  {self.tolerance:g}",
        ]
        if self.message:
            lines.append(f"note:       {self.message}")
        for i, plane in enumerate(self.planes, 1):
            a, b, c, d = plane["coeffs"]
            lines.append(
                f"plane {i}: {a:+.12g} x {b:+.12g} y {c:+.12g} z {d:+.12g} = 0"
            )
            for entry in plane["residuals"]:
                lines.append(
                    f"    {entry['constraint']}: residual {entry['residual']:.3e}"
                )
        if self.family is not None:
            names = ", ".join(p["name"] for p in self.family["parameters"])
            lines.append(
                f"family:     {self.family['dimension']}-parameter ({names})"
            )
        return "\n".join(lines)

    @property
    def exit_code(self) -> int:
        return {"finite": 0, "no_solution": 2, "infinite": 3, "ill_posed": 3}[
            self.outcome
        ]
