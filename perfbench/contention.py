"""How much other load slows this process down, measured between items.

On a shared host other tenants' work slows a process by a factor that
drifts between about 1.2 and 2 over seconds to minutes, on every core and in
CPU time as much as in wall time. The drift moves whole runs: on a 2-vCPU
share of a Sapphire Rapids Xeon host, one workload's throughput varied by up
to 1.5x between consecutive runs of the same code.

A fixed reference computation, ``reference_unit`` (exact ``Fraction``
arithmetic like the library's, stdlib only), is timed in short bursts
between items. Its mean time over a stretch of the run, divided by
``REFERENCE_S``, is the slowdown the items of that stretch suffered, and an
item's latency divided by that factor is its latency at the reference speed,
which is what the timings report. ``REFERENCE_S`` is the unit's time on an
idle core of that host; the best time over a run is no steadier a yardstick,
as it moved between 1.18 and 1.36 ms from run to run.
Applied to items, the correction took the spread of one workload's pass
times at one seed from 12.5% to 3.8% (coefficient of variation, 30 passes).
"""

from __future__ import annotations

import gc
import statistics
from fractions import Fraction
from time import perf_counter

PROBE_EVERY = 0.025  # s of item time between bursts at the most
PROBE_SHARE = 0.05  # a burst lasts this share of the item time since the last one
REFERENCE_S = 1.3e-3  # reference_unit on an idle core, the speed timings are scaled to


def reference_unit() -> Fraction:
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(i, i + 7) * Fraction(3, i + 1)
    return total


def burst(seconds: float) -> list[float]:
    """Time ``reference_unit`` back to back for about ``seconds``, at least once.

    The cyclic garbage collector is off meanwhile, so that the program's heap
    cannot slow the reference down through a collection it triggers."""
    samples: list[float] = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        spent = 0.0
        while not samples or spent < seconds:
            t0 = perf_counter()
            reference_unit()
            samples.append(perf_counter() - t0)
            spent += samples[-1]
    finally:
        if enabled:
            gc.enable()
    return samples


class Probe:
    """Bursts of the reference unit after items, PROBE_SHARE of item time."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.since = 0.0  # item time since the last burst

    def after(self, item_s: float) -> None:
        self.since += item_s
        if self.since >= PROBE_EVERY:
            self.samples.extend(burst(PROBE_SHARE * self.since))
            self.since = 0.0

    def finish(self) -> list[float]:
        """A last burst for the item time not yet probed; the samples."""
        if self.since > 0.0 or not self.samples:
            self.samples.extend(burst(PROBE_SHARE * self.since))
            self.since = 0.0
        return self.samples


def slowdown(samples: list[float]) -> float:
    """The mean reference time over REFERENCE_S: about 1.0 on an idle machine."""
    return statistics.fmean(samples) / REFERENCE_S
