"""Span tracing of fold3d's public functions, installed from outside.

``Tracer.install`` replaces each traced function wherever fold3d binds it:
in its defining module, in every fold3d module that imported it by name,
in the package namespace, and in the CLI's envelope builder table.  Callers
inside the library therefore go through the wrapper, and nothing under
``src/`` changes.

Each call while recording becomes a span ``(id, parent id, name, start,
end)``.  Spans are kept in memory (up to ``SPAN_CAP``) and written out by
``write``.  A span's self time is its duration minus the durations of its
child spans, accumulated as the children close, so it is exact even for
spans beyond the cap.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# Traced functions by layer (module).  Dotted names are methods.
TRACED = {
    "geometry": ("canonical_frame_point_line", "canonical_frame_point_plane", "plane_gap"),
    "constraints": (
        "residual",
        "stacked_residual",
        "stacked_residual_grid",
        "residual_components_grid",
        "solve_I1",
        "solve_I2",
        "solve_I4",
        "solve_I12",
    ),
    "numerics": ("newton_multistart", "grid_oracle", "real_roots_cubic", "real_roots_quadratic"),
    "operations": (
        "solve_operation",
        "solve_I5_I6",
        "solve_I5_I9",
        "solve_I6_I8_I11",
        "solve_3I6",
        "solve_generic",
    ),
    "envelopes": (
        "family_I3",
        "family_I5",
        "family_I6",
        "family_I7",
        "envelope_I3",
        "envelope_I5",
        "envelope_I6",
        "envelope_I7",
    ),
    "meshing": ("export_envelope_obj", "write_obj"),
    "scene": ("load_scene", "ResultDocument.from_solution", "ResultDocument.to_json"),
    "cli": ("main",),
}

NEWTON = "numerics.newton_multistart"
NEWTON_RESIDUAL = NEWTON + ".residual"

# Functions whose per-call latency the report compares with earlier
# hand-taken figures (ms per call on a 2-core machine).
BASELINE_MS = {
    "operations.solve_I5_I6": 1.0,
    "operations.solve_3I6": 50.0,
    "operations.solve_generic": 60.0,
    "numerics.grid_oracle": 85.0,
}

SPAN_CAP = 500_000

# Bytes the oracle allocates per lattice plane for the arrays it builds
# over the whole lattice: (theta, phi, d) parameters, unit normals (3 each),
# offsets and the summed residual (1 each), float64.
_ORACLE_BYTES_PER_PLANE = (3 + 3 + 1 + 1) * 8


def traced_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]


class Tracer:
    """Records spans of the wrapped functions while ``recording`` is set."""

    def __init__(self):
        self.recording = False
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.dropped = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [span id, summed child duration]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _call(self, name: str, fn, args, kwargs):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [sid, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            dur = t1 - t0
            if self._stack:
                self._stack[-1][1] += dur
            self.calls[name] += 1
            self.total[name] += dur
            self.self_time[name] += dur - frame[1]
            if name in BASELINE_MS:
                self.durations[name].append(dur)
            if len(self.spans) < SPAN_CAP:
                self.spans.append((sid, parent, name, t0, t1))
            else:
                self.dropped += 1

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)
        sig = inspect.signature(fn) if hook else None

        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            if hook is None:
                return self._call(name, fn, args, kwargs)
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            return hook(self, name, fn, bound)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function where fold3d binds it."""
        import fold3d.cli

        modules = [m for k, m in sys.modules.items() if k == "fold3d" or k.startswith("fold3d.")]
        wrapped_by_original = {}
        for mod_name, fns in TRACED.items():
            home = sys.modules[f"fold3d.{mod_name}"]
            for fn_name in fns:
                name = f"{mod_name}.{fn_name}"
                if "." in fn_name:
                    cls_name, meth = fn_name.split(".")
                    cls = getattr(home, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(name, raw.__func__))
                    else:
                        new = self._wrap(name, raw)
                    self._patches.append((cls, meth, raw))
                    setattr(cls, meth, new)
                    continue
                original = getattr(home, fn_name)
                wrapped = wrapped_by_original[original] = self._wrap(name, original)
                for mod in modules:
                    if getattr(mod, fn_name, None) is original:
                        self._patches.append((mod, fn_name, original))
                        setattr(mod, fn_name, wrapped)
        # the CLI dispatches envelope commands through a table of functions
        builders = fold3d.cli._ENVELOPE_BUILDERS
        self._builders = (builders, dict(builders))
        for key, pair in builders.items():
            builders[key] = tuple(wrapped_by_original.get(f, f) for f in pair)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)
        builders, originals = self._builders
        builders.update(originals)

    # -- report --------------------------------------------------------------

    def self_sum(self) -> float:
        """Summed self time of every span; equals the summed duration of the
        top-level spans when children nest inside their parents."""
        return sum(self.self_time.values())

    def metrics(self) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        for name in traced_names():
            out[f"{name}.calls"] = (self.calls.get(name, 0), "count")
            out[f"{name}.ms"] = (1e3 * self.total.get(name, 0.0), "ms")
            out[f"{name}.self_ms"] = (1e3 * self.self_time.get(name, 0.0), "ms")
        c = self.counts
        seeds, roots = c[NEWTON + ".seeds"], c[NEWTON + ".roots"]
        out[NEWTON + ".seeds"] = (seeds, "count")
        out[NEWTON + ".roots"] = (roots, "count")
        out[NEWTON + ".root_yield"] = (roots / seeds if seeds else 0.0, "ratio")
        out[NEWTON + ".residual_calls"] = (self.calls.get(NEWTON_RESIDUAL, 0), "count")
        out[NEWTON + ".residual_rows"] = (c[NEWTON + ".residual_rows"], "count")
        out[NEWTON + ".residual_ms"] = (1e3 * self.total.get(NEWTON_RESIDUAL, 0.0), "ms")
        out["constraints.stacked_residual_grid.rows"] = (
            c["constraints.stacked_residual_grid.rows"], "count")
        n_oracle = self.calls.get("numerics.grid_oracle", 0)
        planes = c["numerics.grid_oracle.lattice_planes"] / n_oracle if n_oracle else 0.0
        out["numerics.grid_oracle.lattice_planes"] = (planes, "count")
        out["numerics.grid_oracle.lattice_mb_computed"] = (
            planes * _ORACLE_BYTES_PER_PLANE / 1e6, "MB")
        n_export = self.calls.get("meshing.export_envelope_obj", 0)
        out["meshing.export_envelope_obj.bytes"] = (
            c["meshing.export_envelope_obj.bytes"] / n_export if n_export else 0.0, "B")
        for name in BASELINE_MS:
            d = self.durations.get(name)
            out[f"{name}.ms_p50"] = (1e3 * float(np.median(d)) if d else 0.0, "ms")
        return out

    def write(self, path: Path) -> None:
        names = sorted({s[2] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t_ref = min((s[3] for s in self.spans), default=0.0)
        doc = {
            "names": names,
            "columns": ["id", "parent", "name", "start_us", "end_us"],
            "spans": [
                [sid, parent, index[name], round(1e6 * (t0 - t_ref), 1), round(1e6 * (t1 - t_ref), 1)]
                for sid, parent, name, t0, t1 in self.spans
            ],
            "dropped": self.dropped,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(doc, separators=(",", ":")))
        os.replace(tmp, path)


# ---------------------------------------------------------------------------
# Per-function hooks that record counts beside the span
# ---------------------------------------------------------------------------


def _newton(tracer: Tracer, name, fn, b):
    residual = b.arguments["residual"]
    vectorized = b.arguments["vectorized"]

    def traced_residual(x):
        tracer.counts[NEWTON + ".residual_rows"] += len(x) if vectorized else 1
        return tracer._call(NEWTON_RESIDUAL, residual, (x,), {})

    b.arguments["residual"] = traced_residual
    tracer.counts[NEWTON + ".seeds"] += len(np.asarray(b.arguments["seeds"]))
    roots = tracer._call(name, fn, b.args, b.kwargs)
    tracer.counts[NEWTON + ".roots"] += len(roots)
    return roots


def _stacked_grid(tracer: Tracer, name, fn, b):
    tracer.counts[name + ".rows"] += len(b.arguments["O"])
    return tracer._call(name, fn, b.args, b.kwargs)


def _oracle(tracer: Tracer, name, fn, b):
    res, n_off = b.arguments["resolution"], b.arguments["n_offsets"]
    tracer.counts[name + ".lattice_planes"] += res * res * n_off
    return tracer._call(name, fn, b.args, b.kwargs)


def _export(tracer: Tracer, name, fn, b):
    out = tracer._call(name, fn, b.args, b.kwargs)
    tracer.counts[name + ".bytes"] += os.path.getsize(b.arguments["path"])
    return out


_HOOKS = {
    NEWTON: _newton,
    "constraints.stacked_residual_grid": _stacked_grid,
    "numerics.grid_oracle": _oracle,
    "meshing.export_envelope_obj": _export,
}
