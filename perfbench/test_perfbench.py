"""Self-tests of the benchmark (two to three minutes).

    python3 -m pytest -q perfbench/test_perfbench.py
    python3 perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import replace
from functools import cache
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from fold3d import Constraint, FoldSolution, Outcome, Plane3, solve_operation  # noqa: E402
from fold3d.cli import main as cli_main  # noqa: E402
from fold3d.envelopes import envelope_I6  # noqa: E402
from run import END_TO_END, WORKLOADS, _per_operation  # noqa: E402
from tracing import Tracer, traced_names  # noqa: E402

SEED = 7
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@cache
def _run(workload: str, trace: int = 0) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def _figure(lines: list[str], name: str) -> str:
    (line,) = [ln for ln in lines if ln.split()[:1] == [name]]
    return line.split()[1]


def test_benchmark_json_names_match_run():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(END_TO_END)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert len(BENCHMARK["per_layer"]) <= 128


def test_short_run_prints_every_metric_with_unit():
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    for workload in WORKLOADS:
        lines, result = _run(workload)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert result["metrics"].keys() == units.keys()
        for name, unit in units.items():
            assert result["metrics"][name]["unit"] == unit
            assert result["metrics"][name]["value"] > 0
            assert any(ln.split()[:1] == [name] and unit in ln.split() for ln in lines)
        for name in ("host_speed", "wall.ops_per_s", "wall.op_ms_p50", "wall.op_ms_p90"):
            assert float(_figure(lines, name)) > 0


def test_calibration_scales_by_kernel_median():
    cal = reference.Calibrated()
    cal.add(0.002)  # runs kernel slots for about SHARE of it
    kernel_s = list(cal._kernel_s)
    cal.flush()
    assert kernel_s and cal.factors == [1e-3 * reference.NOMINAL_MS / statistics.median(kernel_s)]
    assert cal.scaled == [0.002 * cal.factors[0]]
    assert 0 < reference.burst_factor() < 100


def test_each_listed_operation_counts_once():
    assert _per_operation([0, 1, 0, 2, 0], [1.0, 5.0, 3.0, 7.0, 2.0]) == [2.0, 5.0, 7.0]


def test_traced_run_reports_every_layer_metric():
    lines, result = _run("closed_form", trace=1)
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert 0 < result["metrics"]["trace.self_over_wall"]["value"] <= 1.0
    assert result["metrics"]["operations.solve_operation.calls"]["value"] > 0
    assert result["metrics"]["constraints.residual.calls"]["value"] > 0


def test_same_seed_same_instances_and_figures():
    def payloads(plan):
        return [[(c.kind, c.objects) for c in op.run.args[0]] for op in plan.ops]

    for build in (workloads.closed_form, workloads.multistart, workloads.oracle):
        assert payloads(build(SEED, None)) == payloads(build(SEED, None))
    assert payloads(workloads.closed_form(SEED, None)) != payloads(workloads.closed_form(SEED + 1, None))
    tmp = Path(tempfile.mkdtemp())
    try:
        workloads.scene_cli(SEED, tmp / "a")
        workloads.scene_cli(SEED, tmp / "b")
        names = sorted(p.name for p in (tmp / "a").glob("*.json"))
        assert names and all((tmp / "a" / n).read_text() == (tmp / "b" / n).read_text() for n in names)
    finally:
        shutil.rmtree(tmp)
    for workload, names in (("closed_form", ("planes_per_op", "scale_agreement")),
                            ("oracle", ("planes_per_op", "oracle_agreement"))):
        first, _ = _run(workload)
        _run.cache_clear()
        again, _ = _run(workload)
        for name in names:
            assert _figure(first, name) == _figure(again, name)


def test_scale_defect_shows():
    lines, _ = _run("closed_form")
    assert float(_figure(lines, "scale_agreement")) < 1.0


def _i5_i6():
    return inputs.closed_form_instance(np.random.default_rng(3), "I5+I6")


def test_checker_rejects_shifted_plane():
    cons = _i5_i6()
    sol = solve_operation(cons)
    assert sol.count >= 1 and checks.check_solution(cons, sol) == []
    p = sol.planes[0]
    shifted = replace(sol, planes=(Plane3(p.normal, p.offset + 1e-3),) + sol.planes[1:])
    assert any("residual" in e for e in checks.check_solution(cons, shifted))


def test_checker_rejects_count_over_bound():
    cons = inputs.i5_i9(np.random.default_rng(4), solvable=True)
    sol = solve_operation(cons)
    assert sol.count == 1 and checks.check_solution(cons, sol) == []
    doubled = FoldSolution(Outcome.FINITE, sol.planes * 2)
    assert any("bound" in e for e in checks.check_solution(cons, doubled))
    i1 = (Constraint.I1(*inputs.distinct_points(np.random.default_rng(5))),)
    assert any("bound" in e for e in checks.check_solution(i1, FoldSolution.no_solution()))


def test_checker_rejects_vertex_off_quadric():
    tmp = Path(tempfile.mkdtemp())
    try:
        p, pi = inputs.point_off_plane(np.random.default_rng(6))
        scene = inputs.write_scene(tmp / "s.json", (Constraint.I6(p, pi),))
        obj = tmp / "e.obj"
        out = (cli_main(["envelope", str(scene), "--incidence", "I6", "--out", str(obj)]), "", "")
        quadric = envelope_I6(p, pi)
        text = obj.read_text()
        assert checks.check_cli_envelope(quadric, 0, out, text) == []
        lines = text.splitlines()
        i = next(k for k, ln in enumerate(lines) if ln.startswith("v "))
        x, y, z = (float(v) for v in lines[i].split()[1:])
        lines[i] = f"v {x} {y} {z + 1e-3}"
        assert checks.check_cli_envelope(quadric, 0, out, "\n".join(lines)) != []
    finally:
        shutil.rmtree(tmp)


def test_tracer_uninstall_restores_bindings():
    import fold3d
    import fold3d.cli
    import fold3d.operations

    before = (fold3d.operations.residual, fold3d.cli._ENVELOPE_BUILDERS["I6"],
              fold3d.ResultDocument.__dict__["from_solution"])
    tracer = Tracer()
    tracer.install()
    try:
        assert fold3d.operations.residual is not before[0]
        tracer.recording = True
        fold3d.solve_operation(_i5_i6())
        tracer.recording = False
    finally:
        tracer.uninstall()
    after = (fold3d.operations.residual, fold3d.cli._ENVELOPE_BUILDERS["I6"],
             fold3d.ResultDocument.__dict__["from_solution"])
    assert after == before
    assert tracer.calls["operations.solve_I5_I6"] == 1
    assert tracer.calls["constraints.residual"] >= 1
    assert set(tracer.calls) <= set(traced_names())
    assert tracer.self_sum() <= tracer.total["operations.solve_operation"] + 1e-9


def test_fails_without_library_sources():
    tmp = Path(tempfile.mkdtemp())
    try:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, tmp / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "closed_form", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180,
        )
        assert proc.returncode != 0 and proc.stdout.strip() == ""
    finally:
        shutil.rmtree(tmp)


if __name__ == "__main__":
    tests = [(n, f) for n, f in sorted(globals().items()) if n.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
