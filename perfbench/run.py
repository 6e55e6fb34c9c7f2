"""fold3d benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload closed_form --seed 1 --seconds 25 --trace 0

Run from the root of a fold3d checkout; the library is imported from its
``src/`` directory.  Operations run one at a time in this process (each
call waits for the previous one; no threads are started).  Every output is
checked outside the timed region.  Human-readable lines come first; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: the end-to-end metrics, measured untraced, with times
  scaled to the nominal host speed (see reference.py).
* ``--trace 1``: the per-layer metrics.  The first half of the run is
  untraced and the second half traced, so the tracing overhead is reported
  beside them; the spans are written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("closed_form", "multistart", "oracle", "scene_cli")
SETUP_REPEATS = 5
END_TO_END = ("setup_s", "ops_per_s", "op_ms_p50", "op_ms_p90", "ok_ratio", "planes_per_op",
              "peak_rss_mb")


def _parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_library() -> float:
    """Import fold3d from this checkout's src/ and return the seconds taken."""
    src = ROOT / "src"
    if not (src / "fold3d" / "__init__.py").is_file():
        sys.exit(f"perfbench: no fold3d sources at {src}; run from a fold3d checkout")
    # the CLI reads its default tolerance from the environment at import
    os.environ.pop("FOLD3D_TOL", None)
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import fold3d
    import fold3d.cli  # noqa: F401

    elapsed = time.perf_counter() - t0
    if Path(fold3d.__file__).resolve().parent != (src / "fold3d").resolve():
        sys.exit(f"perfbench: imported fold3d from {fold3d.__file__}, not from {src}")
    return elapsed


def _percentile(sorted_ms: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_ms[max(0, math.ceil(q / 100.0 * len(sorted_ms)) - 1)]


class Run:
    """The timed closed loop over a plan's operation list."""

    def __init__(self, plan):
        self.plan = plan
        self.first: dict[int, object] = {}
        self.latencies: list[float] = []
        self.indices: list[int] = []  # list index of each call in latencies
        self.failures: list[tuple[str, list[str]]] = []
        self.attempted = 0
        self.position = 0
        self.tracer = None  # records spans around each operation when set
        self.calibrated = None  # scales latencies to the nominal host speed when set

    def _one(self, index: int) -> None:
        op = self.plan.ops[index]
        if self.tracer is not None:
            self.tracer.recording = True
        t0 = time.perf_counter()
        try:
            out, errors = op.run(), None
        except Exception as exc:  # any raise is a failed operation
            out, errors = None, [f"raised {type(exc).__name__}: {exc}"]
        elapsed = time.perf_counter() - t0
        if self.tracer is not None:
            self.tracer.recording = False
        self.attempted += 1
        self.latencies.append(elapsed)
        self.indices.append(index)
        if self.calibrated is not None:
            self.calibrated.add(elapsed)
        if errors is None:
            try:
                errors = op.check(out)
            except Exception as exc:
                errors = [f"check raised {type(exc).__name__}: {exc}"]
        if errors:
            self.failures.append((f"#{index} {op.label}", errors))
        self.first.setdefault(index, out)

    def loop(self, seconds: float) -> tuple[int, float]:
        """Cycle through the list for `seconds` of wall time; return the
        operation count and their summed latency."""
        n0, busy0 = len(self.latencies), sum(self.latencies)
        end = time.perf_counter() + seconds
        n_ops = len(self.plan.ops)
        while time.perf_counter() < end:
            self._one(self.position % n_ops)
            self.position += 1
        return len(self.latencies) - n0, sum(self.latencies) - busy0

    def complete(self) -> None:
        """Run and time every listed operation the loop did not reach, so
        every figure covers the whole list."""
        for index in range(len(self.plan.ops)):
            if index not in self.first:
                self._one(index)


def _emit(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"{name:48s} {value:14.6g} {unit:6s} {note}".rstrip())


def main(argv=None) -> int:
    args = _parse_args(argv)
    import_s = _import_library()
    import reference
    import workloads  # its checks bind the library functions before any tracing

    # set-up times are scaled to the nominal host speed, like latencies
    import_s *= reference.burst_factor()
    build = getattr(workloads, args.workload)
    workdir = OUT_DIR / f"{args.workload}-{os.getpid()}"
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            plan = build(args.seed, workdir)
            for warm in plan.warmups:
                warm()
            elapsed = time.perf_counter() - t0
            setup_times.append(elapsed * reference.burst_factor())
        setup_s = import_s + statistics.median(setup_times)
        # the operation list is the benchmark's, not the program's: keep the
        # collector from rescanning it during the timed loop
        gc.collect()
        gc.freeze()

        run = Run(plan)
        if args.trace:
            metrics = _traced(run, args)
        else:
            metrics = _untraced(run, args)
            figures, ref_failures = plan.summarize([run.first[i] for i in range(len(plan.ops))])
            run.failures.extend(ref_failures)
            metrics["ok_ratio"] = (1.0 - len(run.failures) / run.attempted, "ratio", "")
            metrics["planes_per_op"] = figures.pop("planes_per_op")
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", "")
            metrics["setup_s"] = (setup_s, "s", f"import {import_s:.3f} s + median of "
                                  f"{SETUP_REPEATS} set-ups {[round(t, 3) for t in setup_times]}, "
                                  "at the nominal host speed")
            metrics.update(figures)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit, note) in metrics.items():
        _emit(name, value, unit, note)
    for label, errors in run.failures:
        print(f"FAILED {label}: {'; '.join(errors)}")
    reported = metrics if args.trace else {k: metrics[k] for k in END_TO_END}
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in reported.items()},
    }))
    return 0


def _per_operation(indices: list[int], latencies: list[float]) -> list[float]:
    """The median of each listed operation's timed calls."""
    calls: dict[int, list[float]] = {}
    for i, x in zip(indices, latencies):
        calls.setdefault(i, []).append(x)
    return [statistics.median(v) for v in calls.values()]


def _latency_metrics(prefix: str, latencies: list[float], note: str):
    n = len(latencies)
    lat = sorted(1e3 * x for x in latencies)
    out = {
        f"{prefix}ops_per_s": (1e3 * n / sum(lat), "1/s", note),
        f"{prefix}op_ms_p50": (_percentile(lat, 50), "ms", f"n={n}"),
        f"{prefix}op_ms_p90": (_percentile(lat, 90), "ms", f"n={n}, {n - int(0.9 * n)} beyond"),
    }
    # reported only where at least ten samples lie beyond it
    if n >= 1000:
        out[f"{prefix}op_ms_p99"] = (_percentile(lat, 99), "ms",
                                     f"n={n}, {n - int(0.99 * n)} beyond")
    return out


def _untraced(run: Run, args) -> dict[str, tuple[float, str, str]]:
    """Latency per listed operation, scaled to the nominal host speed, then
    the same figures unscaled under the ``wall.`` prefix.

    Each listed operation counts once, by the median of its timed calls, so
    the mix of operations behind a figure does not depend on how many calls
    fit in the window on a fast or slow host or program."""
    import reference

    run.calibrated = reference.Calibrated()
    n, _ = run.loop(args.seconds)
    run.complete()
    run.calibrated.flush()
    factors = run.calibrated.factors
    calls = (f"{len(run.latencies)} timed calls, {n} of them in the {args.seconds:g} s "
             "window")
    out = _latency_metrics("", _per_operation(run.indices, run.calibrated.scaled),
                           f"{calls}; at the nominal host speed")
    out["host_speed"] = (statistics.median(factors), "ratio",
                         f"median over {len(factors)} segments of nominal/measured reference "
                         f"kernel time; range {min(factors):.3f}-{max(factors):.3f}")
    out.update(_latency_metrics("wall.", _per_operation(run.indices, run.latencies),
                                "wall clock, unscaled"))
    return out


def _traced(run: Run, args) -> dict[str, tuple[float, str, str]]:
    """Untraced then traced halves of the run; the per-layer metrics."""
    from tracing import BASELINE_MS, Tracer

    half = args.seconds / 2.0
    n_plain, busy_plain = run.loop(half)
    tracer = Tracer()
    tracer.install()
    run.tracer = tracer
    run.position = 0  # the traced half replays the same operations
    try:
        t0 = time.perf_counter()
        n_traced, busy_traced = run.loop(half)
        wall = time.perf_counter() - t0
    finally:
        run.tracer = None
        tracer.uninstall()
    tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json")
    metrics = {k: (v, u, "") for k, (v, u) in tracer.metrics().items()}
    plain = n_plain / busy_plain if busy_plain else 0.0
    traced = n_traced / busy_traced if busy_traced else 0.0
    metrics["trace.untraced_ops_per_s"] = (plain, "1/s", f"{n_plain} operations")
    metrics["trace.traced_ops_per_s"] = (traced, "1/s", f"{n_traced} operations")
    metrics["trace.overhead_ops_per_s"] = (traced - plain, "1/s", "traced minus untraced")
    self_over_wall = tracer.self_sum() / wall if wall else 0.0
    metrics["trace.self_over_wall"] = (self_over_wall, "ratio",
                                       "summed self time of all spans over traced wall time")
    for name, ref_ms in BASELINE_MS.items():
        key = f"{name}.ms_p50"
        value, unit, _ = metrics[key]
        if value:
            metrics[key] = (value, unit, f"p50 per call; earlier hand-taken figure ~{ref_ms:g} ms")
    if self_over_wall > 1.0:
        run.failures.append(("trace", [f"self times sum to {self_over_wall:.3f} of wall time"]))
    return metrics


if __name__ == "__main__":
    sys.exit(main())
