"""Calibrated host seconds.

The sandbox this benchmark runs in shares its cores: the same
deterministic run was measured anywhere between 4.0 s and 6.3 s of wall
time within three minutes, the whole lap-time distribution shifting
together, so no amount of repeating or trimming steadies a wall-clock
figure.  What does is measuring the host alongside the run: a fixed
pure-Python kernel (heap pushes and pops, dict reads and writes, float
arithmetic — the simulator's own instruction mix) is timed every
:data:`MIN_GAP_S` of the run, and wall time is scaled by how fast the host
ran it.  On that same three-minute stretch the quartile spread of
``pkts_per_s`` fell from 31 % of the median (wall) to 4.6 % (calibrated).

A calibrated second is a second on a host that runs the kernel in
:data:`KERNEL_REF_S`.  The kernel lives here, in the benchmark, so a
change to the simulator cannot move it; the raw wall time and the measured
kernel time are reported beside every calibrated figure.
"""

from __future__ import annotations

import heapq
from time import perf_counter
from typing import List

__all__ = ["KERNEL_REF_S", "MIN_GAP_S", "kernel_seconds", "calibrated", "HostClock"]

#: Kernel time on the reference host (the sandbox's median when this
#: benchmark was sized).  Only fixes the unit; every ratio is free of it.
KERNEL_REF_S = 2.0e-3
#: Host seconds between kernel samples during a run (the kernel then costs
#: about 7 % on top of the run, and is subtracted from its wall time).
MIN_GAP_S = 0.025


def _kernel() -> float:
    heap: List = []
    table = {}
    push, pop = heapq.heappush, heapq.heappop
    x = 0.0
    for i in range(2000):
        push(heap, (((i * 7919) % 1000) * 0.001, i))
        table[i & 255] = x
        x += table.get((i * 31) & 255, 0.0) * 0.5 + 1.0
    while heap:
        pop(heap)
    return x


def kernel_seconds() -> float:
    """Host seconds one execution of the kernel takes right now."""
    start = perf_counter()
    _kernel()
    return perf_counter() - start


def calibrated(wall: float, kernel_samples: List[float]) -> float:
    """``wall`` in calibrated seconds, given kernel times measured around it."""
    return wall * KERNEL_REF_S * len(kernel_samples) / sum(kernel_samples)


class HostClock:
    """Times one region while sampling the kernel inside it.

    ``tick()`` is called from inside the region at natural boundaries and
    runs the kernel when :data:`MIN_GAP_S` has passed since the last
    sample; the time spent in the kernel is taken out of the region.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        #: Calls of :meth:`tick` (on a serial cloud: the benchmark's own events).
        self.ticks = 0
        self._inside = 0.0
        self._started = 0.0
        self._last = 0.0
        self.wall = 0.0

    def start(self) -> None:
        self.samples = [kernel_seconds()]
        self._inside = 0.0
        self._started = self._last = perf_counter()

    def tick(self) -> None:
        self.ticks += 1
        if perf_counter() - self._last >= MIN_GAP_S:
            sample = kernel_seconds()
            self.samples.append(sample)
            self._inside += sample
            self._last = perf_counter()

    def stop(self) -> float:
        """End the region; returns its wall time (kernel samples included)."""
        self.wall = perf_counter() - self._started
        self.samples.append(kernel_seconds())
        return self.wall

    def calibrated_run(self) -> float:
        return calibrated(self.wall - self._inside, self.samples)

    def kernel_mean(self) -> float:
        return sum(self.samples) / len(self.samples)
