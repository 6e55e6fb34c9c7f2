"""Command-line interface.

Subcommands: solve, enumerate, envelope, oracle, verify.  Exit codes for
solve/oracle: 0 finite solutions, 2 no solution, 3 infinite family or
ill-posed instance, 1 any other error.  The FOLD3D_TOL environment variable
sets the default of solve's and verify's residual tolerance --tol; it is
read on every call, and the argument parser is built once per default
tolerance and then reused.  oracle reports numerics.ORACLE_REFINE_TOL.
solve, oracle and verify refuse a scene beyond MAX_PAYLOAD_RADIUS, verify
also a plane.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from .constraints import (MAX_PAYLOAD_RADIUS, FoldSolution, IncidenceKind, check_payload_radius,
                          payload_radius, residual)
from .envelopes import family_I3, family_I5, family_I6, family_I7
from .errors import DegenerateInput, FoldError, IllPosed
from .geometry import Plane3
from .meshing import export_envelope_obj
from .numerics import ORACLE_REFINE_TOL, grid_oracle
from .operations import OperationSpec, enumerate_operations, solve_operation, solver_route
from .scene import ResultDocument, load_scene


def _positive_tol(text: str, name: str) -> float:
    """A residual tolerance; FoldError unless it is a finite number > 0."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol > 0):
        raise FoldError(f"{name} must be a positive number, not {text!r}")
    return tol


def _env_tol() -> float:
    """Default residual tolerance: FOLD3D_TOL, or 1e-9 when it is unset."""
    return _positive_tol(os.environ.get("FOLD3D_TOL", "1e-9"), "FOLD3D_TOL")


# A few entries, so a process that keeps changing FOLD3D_TOL stays bounded.
@functools.lru_cache(maxsize=4)
def _build_parser(default_tol: float) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fold3d",
        description="Fold-plane solver: reflections of 3D space across a plane "
        "under incidence constraints.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, tol=True):
        p.add_argument("scene", help="scene JSON file")
        if tol:
            p.add_argument("--tol", type=lambda text: _positive_tol(text, "--tol"),
                           default=default_tol,
                           help="residual tolerance (default from FOLD3D_TOL or 1e-9)")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--out", help="also write the output to this file")

    p_solve = sub.add_parser("solve", help="solve the scene's fold operation")
    add_common(p_solve)
    p_solve.add_argument("--spec", help="operation spec like I1, I5+I6, 3I6 "
                         "(default: derived from the scene constraints)")

    p_enum = sub.add_parser("enumerate", help="list the valid fold operations")
    p_enum.add_argument("--json", action="store_true")
    p_enum.add_argument("--out", help="also write the output to this file")

    p_env = sub.add_parser("envelope", help="export an envelope quadric as OBJ")
    p_env.add_argument("scene", help="scene JSON file")
    p_env.add_argument("--out", help="OBJ file to write (default envelope.obj)")
    p_env.add_argument("--incidence", required=True,
                       choices=["I3", "I5", "I6", "I7"],
                       help="which constraint of the scene to take the envelope of")
    p_env.add_argument("--extent", type=float, default=4.0, help="patch half-width")
    p_env.add_argument("--resolution", type=int, default=33, help="mesh grid points per side")
    p_env.add_argument("--tangent-planes", type=int, default=0,
                       help="also export this many sampled tangent fold planes")

    p_oracle = sub.add_parser("oracle", help="brute-force grid search for fold planes")
    add_common(p_oracle, tol=False)
    p_oracle.add_argument("--spec", help="validate the scene against this operation spec")
    p_oracle.add_argument("--resolution", type=int, default=48,
                          help="grid points per normal angle (1..256); each normal's "
                               "offset is solved for, at any distance")

    p_verify = sub.add_parser("verify", help="check a candidate plane against the scene")
    add_common(p_verify)
    p_verify.add_argument("--plane", required=True,
                          help="candidate plane as 'a,b,c,d' of a x + b y + c z + d = 0")
    p_verify.add_argument("--spec", help="validate the scene against this operation spec")
    return parser


def _emit(args, text: str) -> None:
    """Print text and write it to --out, if given; an --out that cannot be
    opened is an error before anything is printed."""
    out = getattr(args, "out", None)
    try:
        fh = open(out, "w") if out else None
    except OSError as exc:
        raise FoldError(f"cannot write {out}: {exc.strerror}") from None
    print(text)
    if fh is not None:
        with fh:
            fh.write(text + "\n")


def _check_spec(args, scene) -> OperationSpec:
    derived = OperationSpec.from_constraints(scene.constraint_list())
    if getattr(args, "spec", None):
        requested = OperationSpec.parse(args.spec)
        if requested != derived:
            raise FoldError(
                f"scene constraints form {derived}, not the requested {requested}"
            )
        return requested
    return derived


def _cmd_solve(args) -> int:
    scene = load_scene(args.scene)
    if not scene.constraints:
        raise FoldError("scene has no constraints to solve")
    spec = _check_spec(args, scene)
    try:
        solution = solve_operation(scene.constraint_list(), tol=args.tol)
        doc = ResultDocument.from_solution(spec, scene.constraints, solution, args.tol)
    except IllPosed as exc:
        doc = ResultDocument(
            operation=str(spec), tolerance=args.tol, outcome="ill_posed",
            solver=solver_route(spec), possibly_incomplete=False, message=str(exc),
        )
    _emit(args, doc.to_json() if args.json else doc.render_text())
    return doc.exit_code


_SIGNATURE_CLASSES = {(3,): "single", (2, 1): "1+2", (2, 2): "2+2", (1, 1, 1): "1+1+1"}


def _cmd_enumerate(args) -> int:
    valid, rejected = enumerate_operations()
    if args.json:
        payload = {
            "valid": [
                {
                    "spec": str(s),
                    "codimensions": list(s.codim_signature()),
                    "total_codimension": s.total_codimension,
                }
                for s in valid
            ],
            "rejected": [{"spec": str(s), "reason": r} for s, r in rejected],
        }
        _emit(args, json.dumps(payload, indent=2))
        return 0
    lines = []
    for s in valid:
        codims = "+".join(str(c) for c in s.codim_signature())
        lines.append(f"{str(s):12s} codimension {codims}")
    lines.append("")
    for s, reason in rejected:
        lines.append(f"rejected {str(s):10s} {reason}")
    lines.append("")
    by_class = dict.fromkeys(_SIGNATURE_CLASSES.values(), 0)
    for s in valid:
        by_class[_SIGNATURE_CLASSES[s.codim_signature()]] += 1
    lines.append(
        f"{len(valid)} valid operations "
        f"({by_class['single']} singles, {by_class['1+2']} pairs of codimension 1+2, "
        f"{by_class['2+2']} pairs of codimension 2+2, {by_class['1+1+1']} triples), "
        f"{len(rejected)} rejected"
    )
    _emit(args, "\n".join(lines))
    return 0


# one family builder per kind, in tuples that perfbench's tracer rewrites
_ENVELOPE_BUILDERS = {
    "I3": (family_I3,),
    "I5": (family_I5,),
    "I6": (family_I6,),
    "I7": (family_I7,),
}


def _cmd_envelope(args) -> int:
    scene = load_scene(args.scene)
    kind = IncidenceKind(args.incidence)
    match = [sc for sc in scene.constraints if sc.kind is kind]
    if not match:
        raise FoldError(f"scene has no {kind.value} constraint")
    objects = match[0].constraint.objects
    (fam_fn,) = _ENVELOPE_BUILDERS[kind.value]
    out = args.out or "envelope.obj"
    try:
        names = export_envelope_obj(out, fam_fn(*objects), extent=args.extent,
                                    resolution=args.resolution, tangent_count=args.tangent_planes)
    except OSError as exc:
        raise FoldError(f"cannot write {out}: {exc.strerror}") from None
    print(f"wrote {out}: " + ", ".join(names))
    return 0


def _cmd_oracle(args) -> int:
    scene = load_scene(args.scene)
    if not scene.constraints:
        raise FoldError("scene has no constraints to search for")
    spec = _check_spec(args, scene)
    result = grid_oracle(scene.constraint_list(), resolution=args.resolution)
    solution = FoldSolution.finite(result.planes, provenance="oracle")
    doc = ResultDocument.from_solution(spec, scene.constraints, solution, ORACLE_REFINE_TOL)
    doc.message = f"grid resolution {args.resolution}"
    for entry, (_, res) in zip(doc.planes, result.clusters, strict=True):
        entry["cluster_residual"] = res
    _emit(args, doc.to_json() if args.json else doc.render_text())
    return doc.exit_code


def _cmd_verify(args) -> int:
    scene = load_scene(args.scene)
    if not scene.constraints:
        raise FoldError("scene has no constraints to verify against")
    _check_spec(args, scene)
    try:
        coeffs = [float(v) for v in args.plane.split(",")]
    except ValueError:
        raise FoldError("--plane wants four comma-separated numbers a,b,c,d") from None
    if len(coeffs) != 4:
        raise FoldError("--plane wants four comma-separated numbers a,b,c,d")
    check_payload_radius(payload_radius(scene.constraint_list()))
    plane = Plane3.from_coeffs(*coeffs)
    if not abs(plane.offset) <= MAX_PAYLOAD_RADIUS:  # its reflections would overflow
        raise DegenerateInput(f"plane offset beyond ±{MAX_PAYLOAD_RADIUS:g}: {plane.offset:.3g}")
    rows = []
    all_ok = True
    for sc in scene.constraints:
        res = residual(sc.constraint, plane)
        ok = res <= args.tol
        all_ok &= ok
        rows.append({"constraint": sc.label(), "residual": res, "pass": bool(ok)})
    if args.json:
        _emit(args, json.dumps({"plane": coeffs, "tolerance": args.tol,
                                "checks": rows, "pass": bool(all_ok)}, indent=2))
    else:
        lines = [
            f"{row['constraint']}: residual {row['residual']:.3e} "
            f"{'pass' if row['pass'] else 'FAIL'}"
            for row in rows
        ]
        lines.append("all pass" if all_ok else "verification failed")
        _emit(args, "\n".join(lines))
    return 0 if all_ok else 1


_COMMANDS = {
    "solve": _cmd_solve,
    "enumerate": _cmd_enumerate,
    "envelope": _cmd_envelope,
    "oracle": _cmd_oracle,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    try:
        args = _build_parser(_env_tol()).parse_args(argv)
        return _COMMANDS[args.command](args)
    except FoldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
