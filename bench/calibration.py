"""Machine-speed calibration for the benchmark's timings.

On a shared machine the speed of one core drifts by a third or more over
minutes, as neighbours come and go; a median over passes cannot see past a
slowdown that lasts a whole run. The run therefore times a fixed routine
every ~50 ms between operations and scales each operation's duration by
``REFERENCE_NS / routine duration``. Timings then read as on a machine where
the routine takes 2.5 ms (about its median on the machine the benchmark
was written on, an Intel Xeon with two cores).

The routine imports nothing from ftplane, so no change to the package can
move it. It imitates the package's instruction mix instead: slotted and
plain frozen dataclasses in Python loops, numpy over a few thousand points,
and JSON. The closer the mix, the better its slowdown under contention
matches the workloads'.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass
from random import Random
from time import perf_counter_ns

import numpy as np

REFERENCE_NS = 2_500_000
INTERVAL_NS = 50_000_000  # operation time between two calibrations
WINDOW = 5  # calibrations in the running median


@dataclass(frozen=True, slots=True)
class _V:
    x: float
    y: float

    def __add__(self, other: "_V") -> "_V":
        return _V(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "_V") -> "_V":
        return _V(self.x - other.x, self.y - other.y)

    def __mul__(self, s: float) -> "_V":
        return _V(self.x * s, self.y * s)

    def cross(self, other: "_V") -> float:
        return self.x * other.y - self.y * other.x


@dataclass(frozen=True)
class _F:
    a: float
    b: float

    def __add__(self, other: "_F") -> "_F":
        return _F(self.a + other.a, self.b + other.b)


_SECTORS = np.linspace(0.0, 2.0 * math.pi, 17)[:-1]


def _routine() -> float:
    """Pairwise line intersections, a vectorised sector lookup over them,
    a sum of frozen-dataclass functionals and a JSON round trip."""
    rng = Random(7)
    lines = [(_V(rng.uniform(-5, 5), rng.uniform(-5, 5)),
              _V(math.cos(k * 0.37), math.sin(k * 0.37))) for k in range(32)]
    pts = []
    for i, (p1, d1) in enumerate(lines):
        for p2, d2 in lines[i + 1:]:
            den = d1.cross(d2)
            if abs(den) > 1e-12:
                pts.append(p1 + d1 * ((p2 - p1).cross(d2) / den))
    arr = np.array([[p.x, p.y] for p in pts])
    total = 0.0
    for q in pts[:4]:
        ang = np.mod(np.arctan2(arr[:, 1] - q.y, arr[:, 0] - q.x), 2.0 * math.pi)
        k = np.searchsorted(_SECTORS, ang, side="right") - 1
        total += float(np.maximum(np.cos(_SECTORS[k]) * arr[:, 0], 0.0).sum())
    acc = _F(0.0, 0.0)
    for p in pts[:200]:
        acc = acc + _F(p.x, p.y)
    doc = json.loads(json.dumps({"points": [[p.x, p.y] for p in pts[:100]]}))
    return total + acc.a + len(doc["points"])


def routine_ns() -> int:
    """Duration of one run of the calibration routine."""
    start = perf_counter_ns()
    _routine()
    return perf_counter_ns() - start


class Clock:
    """Scale factor for operation durations, refreshed every INTERVAL_NS.

    The factor uses the median of the last WINDOW routine durations, so one
    routine run disturbed by an interrupt does not skew a window.
    """

    def __init__(self):
        self.recent: list[int] = []
        self.all: list[int] = []
        self._since = INTERVAL_NS

    def scale(self, duration_ns: int) -> float:
        """Account ``duration_ns`` of operation time; return it scaled."""
        factor = REFERENCE_NS / statistics.median(self.recent)
        self._since += duration_ns
        return duration_ns * factor

    def tick(self) -> None:
        """Re-time the routine if an interval of operation time has passed."""
        if self._since >= INTERVAL_NS:
            ns = routine_ns()
            self.recent = (self.recent + [ns])[-WINDOW:]
            self.all.append(ns)
            self._since = 0
