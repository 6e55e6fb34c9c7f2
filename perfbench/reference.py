"""A reference kernel, timed alongside the operations to track host speed.

The benchmark shares a few cores of a host with other tenants.  Their load
changes this process's speed by up to ~1.7x, in phases lasting from seconds
to minutes.  No time is stolen from the VM: the cores run slower, so CPU
time moves with wall time.  The timed loop therefore runs a fixed kernel
between operations, spending about ``SHARE`` of the operation time on it,
and multiplies each latency by ``nominal / median kernel time`` over its
segment of ``SEGMENT_S`` seconds of operations.  Latencies are then
reported in milliseconds at the nominal host speed, at which the kernel
takes ``NOMINAL_MS``.

Each kernel slot runs the kernel twice and times the second call, so the
measurement does not depend on how much of the cache the operation before
it used.  The kernel is the benchmark's own code and calls no fold3d
function, so a change to the program cannot change it.  It mixes what the
solvers do per call: 3-vectors and 3x3 matrices, polynomial roots, scalar
Python arithmetic and a pass over a short array.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

NOMINAL_MS = 0.1  # kernel time at the nominal host speed
SHARE = 0.1  # kernel time per unit of timed operation time
SEGMENT_S = 1.0  # operation time that shares one speed factor
BURST_RUNS = 32  # kernel slots timed after a set-up

_A = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, 0.2], [0.1, 0.2, 1.0]])
_Z = np.array([0.0, 0.0, 1.0])
_CUBIC = np.array([1.0, -6.0, 11.0, -6.0])
_GRID = np.linspace(-1.0, 1.0, 2048)


def kernel() -> float:
    v = np.array([0.3, -0.2, 0.9])
    n = v / np.linalg.norm(v)
    w = np.cross(n, _Z)
    x = _A @ n + w
    r = np.roots(_CUBIC)
    e = np.linalg.eigh(_A)[0]
    s = 0.0
    for i in range(40):
        s += math.sqrt(i + 1.0) * (i % 7)
    g = float(np.min(np.abs(_GRID * x[0] - e[0])))
    return float(x @ e) + float(np.sum(r.real)) + s + g


def _time_slot() -> tuple[float, float]:
    """(time of the timed call, time of the whole slot)."""
    t0 = time.perf_counter()
    kernel()
    t1 = time.perf_counter()
    kernel()
    t2 = time.perf_counter()
    return t2 - t1, t2 - t0


def burst_factor() -> float:
    """Nominal over measured kernel time from a short burst, for a duration
    measured just before it outside the timed loop."""
    times = [_time_slot()[0] for _ in range(BURST_RUNS)]
    return 1e-3 * NOMINAL_MS / statistics.median(times)


class Calibrated:
    """Takes the operation latencies of a timed loop, runs kernel slots
    between them, and keeps the latencies scaled to the nominal host speed."""

    def __init__(self):
        self.scaled: list[float] = []
        self.factors: list[float] = []
        self._segment: list[float] = []
        self._segment_s = 0.0
        self._kernel_s: list[float] = []
        self._owed = 0.0

    def add(self, latency: float) -> None:
        self._segment.append(latency)
        self._segment_s += latency
        self._owed += SHARE * latency
        while self._owed > 0.0:
            self._slot()
        if self._segment_s >= SEGMENT_S:
            self.flush()

    def _slot(self) -> None:
        timed, whole = _time_slot()
        self._kernel_s.append(timed)
        self._owed -= whole

    def flush(self) -> None:
        """Scale the open segment by the kernel median measured within it."""
        if not self._segment:
            return
        if not self._kernel_s:
            self._slot()
        factor = 1e-3 * NOMINAL_MS / statistics.median(self._kernel_s)
        self.factors.append(factor)
        self.scaled.extend(x * factor for x in self._segment)
        self._segment, self._segment_s, self._kernel_s = [], 0.0, []
