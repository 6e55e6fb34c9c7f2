"""Record the outputs of a benchmark operation list, and compare two records.

    python3 tools/compare_outputs.py write --workload multistart --seed 1 --out change.jsonl
    python3 tools/compare_outputs.py write --root ../parent --workload multistart --seed 1 --out parent.jsonl
    python3 tools/compare_outputs.py compare parent.jsonl change.jsonl

``write`` imports fold3d from ``<root>/src`` and builds the operation list of
one workload and seed with ``<root>/perfbench`` (``inputs.py`` and
``workloads.py``, read only; ``--root`` defaults to this checkout).  It runs
every operation once, in order, and writes one JSON line per operation:
its label, its outcome (the solution's, an exit code, or the exception
raised), its plane count, and the ``float.hex`` of every plane's normal and
offset and of its stacked residual.  A CLI operation records its standard
output and the OBJ file it wrote as SHA-256 digests instead.  The workload
``exact`` is not the benchmark's: it runs ``solve_exact`` on 20 random
instances of each valid operation.

``compare`` reports how many records are bit-identical, the records whose
outcome or count differ, the worst ``plane_gap`` between planes of records
that agree in count, and the median and largest stacked residual on each
side.  Its last line is the same report as one JSON object.  It exits 1 when
an outcome or a count differs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import sys
import tempfile
from functools import partial
from pathlib import Path

import numpy as np

WORKLOADS = ("closed_form", "multistart", "oracle", "scene_cli", "exact")
EXACT_PER_OPERATION = 20


def _load(root: Path):
    """fold3d from root/src, and the benchmark's inputs and workloads."""
    os.environ.pop("FOLD3D_TOL", None)  # the CLI reads it at import, as perfbench/run.py does
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import fold3d
    import inputs
    import workloads

    if Path(fold3d.__file__).resolve().parent != (root / "src" / "fold3d").resolve():
        sys.exit(f"compare_outputs: imported fold3d from {fold3d.__file__}, not from {root / 'src'}")
    return fold3d, inputs, workloads


def _exact_ops(fold3d, inputs, seed: int) -> list[tuple[str, object]]:
    rng = np.random.default_rng(seed)
    valid, _ = fold3d.enumerate_operations()
    return [(str(spec), partial(fold3d.solve_exact, inputs.random_instance(rng, spec)))
            for spec in valid for _ in range(EXACT_PER_OPERATION)]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _record(fold3d, run, out, workdir: Path) -> dict:
    if isinstance(out, BaseException):
        return {"outcome": f"raised {type(out).__name__}: {out}", "count": -1}
    if isinstance(out, tuple):  # a CLI call: exit code, stdout, stderr
        code, stdout, _ = out
        rec = {"outcome": f"exit {code}", "count": _cli_count(stdout),
               "stdout": _digest(stdout.replace(str(workdir), "<dir>"))}
        for obj in sorted(workdir.glob("*.obj")):
            rec[obj.name] = _digest(obj.read_text())
            obj.unlink()
        return rec
    cons = run.args[0] if isinstance(run, partial) and run.args else None
    planes = [[*map(float.hex, p.normal), float.hex(p.offset)] for p in out.planes]
    residuals = ([float.hex(fold3d.stacked_residual(cons, p)) for p in out.planes]
                 if cons is not None else [])
    outcome = out.outcome.value if hasattr(out, "outcome") else type(out).__name__  # OracleResult
    return {"outcome": outcome, "count": out.count, "planes": planes, "residuals": residuals}


def _cli_count(stdout: str) -> int:
    try:
        return len(json.loads(stdout)["planes"])
    except (TypeError, ValueError, KeyError):
        return -1


def write(args) -> int:
    fold3d, inputs, workloads = _load(Path(args.root).resolve())
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        if args.workload == "exact":
            ops = _exact_ops(fold3d, inputs, args.seed)
        else:
            plan = getattr(workloads, args.workload)(args.seed, workdir)
            ops = [(op.label, op.run) for op in plan.ops]
        with open(args.out, "w") as fh:
            for i, (label, run) in enumerate(ops):
                try:
                    out = run()
                except Exception as exc:  # an operation that raises is a record too
                    out = exc
                rec = {"i": i, "label": label, **_record(fold3d, run, out, workdir)}
                fh.write(json.dumps(rec) + "\n")
    print(f"{len(ops)} records written to {args.out}")
    return 0


def _plane_gap(a: list[float], b: list[float]) -> float:
    """geometry.plane_gap of two planes given as (normal, offset)."""
    (ax, ay, az, ao), (bx, by, bz, bo) = a, b
    s = 1.0 if ax * bx + ay * by + az * bz >= 0 else -1.0
    sine = math.hypot(ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx)
    return math.asin(min(1.0, sine)) + abs(ao - s * bo)


def _floats(rec: dict, key: str) -> list:
    return [[float.fromhex(x) for x in row] if isinstance(row, list) else float.fromhex(row)
            for row in rec.get(key, [])]


def compare(args) -> int:
    recs = [[json.loads(line) for line in open(path)] for path in (args.first, args.second)]
    if [r["label"] for r in recs[0]] != [r["label"] for r in recs[1]]:
        sys.exit("compare_outputs: the two files hold different operation lists")
    identical, mismatches, worst, where = 0, [], 0.0, None
    for a, b in zip(*recs):
        identical += a == b
        if (a["outcome"], a["count"]) != (b["outcome"], b["count"]):
            mismatches.append(f"{a['i']} {a['label']}: {a['outcome']} {a['count']} "
                              f"against {b['outcome']} {b['count']}")
            continue
        pa, pb = _floats(a, "planes"), _floats(b, "planes")
        for x, y in ((pa, pb), (pb, pa)):
            for p in x:
                gap = min((_plane_gap(p, q) for q in y), default=0.0)
                if gap > worst:
                    worst, where = gap, f"{a['i']} {a['label']}"
    residuals = [sorted(x for r in side for x in _floats(r, "residuals")) for side in recs]
    planes = [sum(len(r.get("planes", ())) for r in side) for side in recs]
    same_planes = sum(p == q for a, b in zip(*recs) if a["count"] == b["count"]
                      for p, q in zip(a.get("planes", ()), b.get("planes", ())))
    report = {
        "records": len(recs[0]),
        "identical_records": identical,
        "mismatches": len(mismatches),
        "planes": planes,
        "identical_planes": same_planes,
        "worst_plane_gap": worst,
        "worst_at": where,
        "residual_median": [statistics.median(r) if r else None for r in residuals],
        "residual_max": [r[-1] if r else None for r in residuals],
    }
    print(f"{identical} of {len(recs[0])} records bit-identical; "
          f"{same_planes} of {planes[0]} / {planes[1]} planes identical")
    for line in mismatches[:20]:
        print("MISMATCH", line)
    print(f"worst plane_gap {worst:.3g}" + (f" at {where}" if where else ""))
    for name, i in ((args.first, 0), (args.second, 1)):
        print(f"{name}: residual median {report['residual_median'][i]}, "
              f"max {report['residual_max'][i]}")
    print(json.dumps(report))
    return 1 if mismatches else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    w = sub.add_parser("write", help="record one workload's outputs")
    w.add_argument("--root", default=str(Path(__file__).resolve().parent.parent),
                   help="the fold3d checkout to run (default: this one)")
    w.add_argument("--workload", required=True, choices=WORKLOADS)
    w.add_argument("--seed", type=int, required=True)
    w.add_argument("--out", required=True)
    c = sub.add_parser("compare", help="compare two records")
    c.add_argument("first")
    c.add_argument("second")
    args = parser.parse_args(argv)
    return write(args) if args.command == "write" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
