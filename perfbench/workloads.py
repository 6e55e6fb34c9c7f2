"""The four benchmark workloads.

Each workload builds, from the seed, a fixed list of operations.  The
timed loop in run.py cycles through that list in order, one call at a time (a
closed loop with a single in-process client), and checks every output
outside the timed region.  ``summarize`` turns the first output of each
list entry into the workload's correctness figures, so those figures depend
only on the seed, never on how many operations fit in the run.

The program's functions are looked up on the fold3d modules at call time,
so the tracer's wrappers see the calls the benchmark makes.  Reference
computations (checks, agreement counts) use the functions bound at import,
before tracing is installed.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import fold3d
import fold3d.cli
from fold3d import OperationSpec
from fold3d import envelope_I3, envelope_I5, envelope_I6, envelope_I7
from fold3d import solve_operation as reference_solve

import checks
import inputs


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]


@dataclass
class Plan:
    ops: list[Op]
    warmups: list[Callable[[], object]]
    # first output of every list entry -> (figures, failures); figures map
    # a name to (value, unit, note) and always hold planes_per_op
    summarize: Callable[[list], tuple[dict, list]]


def _solve(cons):
    return fold3d.solve_operation(cons)


def _oracle(cons):
    return fold3d.grid_oracle(cons)


def _cli(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = fold3d.cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _warmup_rng() -> np.random.Generator:
    """Warm-up instances come from a fixed stream, not from the seed, so
    set-up time does not vary with the workload seed."""
    return np.random.default_rng(0)


def _share(flags: list[bool]) -> float:
    return sum(flags) / len(flags) if flags else 0.0


def _count(out) -> int:
    """Planes in a solver output; an operation that raised has none."""
    return -1 if out is None else out.count


def _planes_per_op(counts: list[int]) -> tuple[float, str, str]:
    counts = [max(c, 0) for c in counts]
    return (sum(counts) / len(counts), "count",
            f"{sum(counts)} planes over the {len(counts)} listed operations")


# ---------------------------------------------------------------------------
# closed_form
# ---------------------------------------------------------------------------

CLOSED_FORM_BASE_PER_PATH = 256


def closed_form(seed: int, workdir: Path) -> Plan:
    """Each dedicated closed-form path at scene scale 1 and as rescaled
    copies; scale_agreement compares each copy's count with scale 1."""
    rng = np.random.default_rng(seed)
    ops, twins = [], []
    for _ in range(CLOSED_FORM_BASE_PER_PATH):
        for path in inputs.CLOSED_FORM_PATHS:
            cons = inputs.closed_form_instance(rng, path)
            base = len(ops)
            for scale in (1.0, *inputs.RESCALES):
                scaled = cons if scale == 1.0 else inputs.rescale(cons, scale)
                ops.append(Op(f"{path}@{scale:g}", partial(_solve, scaled),
                              partial(checks.check_solution, scaled)))
                twins.append(None if scale == 1.0 else base)
    n_paths = len(inputs.CLOSED_FORM_PATHS) * (1 + len(inputs.RESCALES))
    warmups = [op.run for op in ops[:n_paths]]

    def summarize(outs):
        by_label: dict[str, list[bool]] = {}
        for i, t in enumerate(twins):
            if t is not None:
                by_label.setdefault(ops[i].label, []).append(
                    outs[i] is not None and _count(outs[i]) == _count(outs[t]))
        flags = [f for v in by_label.values() for f in v]
        lost = ", ".join(f"{k} {len(v) - sum(v)}/{len(v)}" for k, v in by_label.items() if not all(v))
        note = f"{sum(flags)}/{len(flags)} rescaled scenes; differing: {lost or 'none'}"
        return {
            "planes_per_op": _planes_per_op([_count(out) for out in outs]),
            "scale_agreement": (_share(flags), "ratio", note),
        }, []

    return Plan(ops, warmups, summarize)


# ---------------------------------------------------------------------------
# multistart
# ---------------------------------------------------------------------------

MULTISTART_PAIRS = 195


def multistart(seed: int, workdir: Path) -> Plan:
    """3I6 alternating with a cycle over the 39 generic-routed specs."""
    rng = np.random.default_rng(seed)
    specs = inputs.generic_specs()
    three = OperationSpec.parse("3I6")
    ops = []
    for i in range(2 * MULTISTART_PAIRS):
        spec = three if i % 2 == 0 else specs[(i // 2) % len(specs)]
        cons = inputs.random_instance(rng, spec)
        ops.append(Op(str(spec), partial(_solve, cons), partial(checks.check_solution, cons)))

    def summarize(outs):
        return {"planes_per_op": _planes_per_op([_count(out) for out in outs])}, []

    rng = _warmup_rng()
    warmups = [partial(_solve, inputs.random_instance(rng, spec)) for spec in (three, specs[0])]
    return Plan(ops, warmups, summarize)


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

ORACLE_PER_KIND = 80
ORACLE_KINDS = ("I5+I6", "I5+I9", "I6+I8+I11", "3I6")


def oracle(seed: int, workdir: Path) -> Plan:
    """grid_oracle at its defaults on the four worked operations;
    oracle_agreement compares its windowed counts with the dedicated
    solvers'."""
    rng = np.random.default_rng(seed)
    ops, instances = [], []
    for j in range(ORACLE_PER_KIND):
        for kind in ORACLE_KINDS:
            if kind == "I5+I9":
                cons = inputs.i5_i9(rng, solvable=j % 2 == 0)
            else:
                cons = inputs.closed_form_instance(rng, kind)
            instances.append(cons)
            ops.append(Op(kind, partial(_oracle, cons), partial(checks.check_oracle, cons)))
    rng = _warmup_rng()
    warmups = [partial(_oracle, inputs.closed_form_instance(rng, kind))
               for kind in ("I5+I6", "I5+I9/solvable", "I6+I8+I11", "3I6")]

    def summarize(outs):
        flags, failures, differ = [], [], {}
        for op, cons, result in zip(ops, instances, outs):
            if result is None:
                flags.append(False)
                continue
            ref = reference_solve(cons)
            errors = checks.check_solution(cons, ref)
            if errors:
                failures.append((f"reference {op.label}", errors))
            ded, orc = checks.windowed_counts(cons, ref.planes, result.planes)
            flags.append(ded == orc)
            if ded != orc:
                differ[op.label] = differ.get(op.label, 0) + 1
        note = (f"{sum(flags)}/{len(flags)} instances; differing: "
                + (", ".join(f"{k} {v}" for k, v in differ.items()) or "none"))
        return {
            "planes_per_op": _planes_per_op([_count(out) for out in outs]),
            "oracle_agreement": (_share(flags), "ratio", note),
        }, failures

    return Plan(ops, warmups, summarize)


# ---------------------------------------------------------------------------
# scene_cli
# ---------------------------------------------------------------------------

CLI_SOLVE_PER_PATH = 120
CLI_ENVELOPE_PER_KIND = 64
CLI_TOL = "1e-9"
TANGENT_PLANES = 3
# Per block of ten operations: five solves, three verifies, two envelopes.
CLI_BLOCK = ("solve",) * 5 + ("verify",) * 3 + ("envelope",) * 2

_ENVELOPES = {"I3": envelope_I3, "I5": envelope_I5, "I6": envelope_I6, "I7": envelope_I7}


def _cli_planes(out) -> int:
    try:
        return len(json.loads(out[1])["planes"])
    except (TypeError, ValueError, KeyError):  # raised, or output not a result document
        return 0


def _envelope_op(quadric, obj_path: Path, argv: list[str]) -> Op:
    def run():
        return _cli(argv)

    def check(out):
        return checks.check_cli_envelope(quadric, TANGENT_PLANES, out, obj_path.read_text())

    return Op(f"envelope {argv[3]}", run, check)


def scene_cli(seed: int, workdir: Path) -> Plan:
    """In-process ``fold3d`` CLI calls on scene files written here."""
    rng = np.random.default_rng(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    solves, verifies = [], []
    for j in range(CLI_SOLVE_PER_PATH):
        for path in inputs.CLOSED_FORM_PATHS:
            cons = inputs.closed_form_instance(rng, path)
            scene = inputs.write_scene(workdir / f"solve-{len(solves)}.json", cons)
            ref = reference_solve(cons)
            solves.append(Op(
                f"solve {path}",
                partial(_cli, ["solve", str(scene), "--json", "--tol", CLI_TOL]),
                partial(checks.check_cli_solve, cons, ref),
            ))
            if ref.count:
                coeffs = ",".join(repr(float(v)) for v in ref.planes[0].coeffs())
                verifies.append(Op(
                    f"verify {path}",
                    partial(_cli, ["verify", str(scene), "--plane", coeffs, "--json",
                                   "--tol", CLI_TOL]),
                    checks.check_cli_verify,
                ))
    obj_path = workdir / "envelope.obj"
    envelopes = []
    for j in range(CLI_ENVELOPE_PER_KIND):
        for kind, env in _ENVELOPES.items():
            c = inputs.payload(rng, fold3d.IncidenceKind(kind))
            scene = inputs.write_scene(workdir / f"envelope-{len(envelopes)}.json", (c,))
            argv = ["envelope", str(scene), "--incidence", kind,
                    "--tangent-planes", str(TANGENT_PLANES), "--out", str(obj_path)]
            envelopes.append(_envelope_op(env(*c.objects), obj_path, argv))
    pools = {"solve": solves, "verify": verifies, "envelope": envelopes}
    used = {k: 0 for k in pools}
    ops = []
    for _ in range(len(solves) // CLI_BLOCK.count("solve")):
        for kind in CLI_BLOCK:
            pool = pools[kind]
            ops.append(pool[used[kind] % len(pool)])
            used[kind] += 1
    warmups = [solves[0].run, verifies[0].run, envelopes[0].run]

    def summarize(outs):
        counts = [_cli_planes(out) for op, out in zip(ops, outs) if op.label.startswith("solve")]
        return {"planes_per_op": _planes_per_op(counts)}, []

    return Plan(ops, warmups, summarize)
