"""Host-speed calibration: scale timings to a reference host speed.

The benchmark's host shares its cores with other tenants. For periods
of seconds to minutes, pure-Python code there runs up to 1.6x slower,
and process CPU time slows with it, so no clock filters this out. The
benchmark therefore times a fixed calibration kernel next to the work
it measures and reports times scaled to the kernel's reference speed:

    scaled = measured * REFERENCE_S / kernel_seconds_now

The kernel (dict updates and integer arithmetic in an interpreted loop)
does not depend on the simulator, so a faster simulator still reads
faster, while a slow host period slows the kernel and the work alike.
Measured on the reference host, this cuts the spread of one item's
timings over 10-second windows from 10% to 4%.
"""

from __future__ import annotations

import time

#: Seconds the kernel takes on the reference host (a 2-vCPU x86
#: container, Python 3.11, during a quiet period).
REFERENCE_S = 0.0025

#: Kernel repetitions per calibration; the fastest one counts.
REPEATS = 3

#: Measured seconds between calibrations (a slow host period lasts
#: seconds, so this tracks it at a few percent overhead).
INTERVAL_S = 0.25


def kernel() -> int:
    """A fixed interpreter workload, independent of the simulator."""
    table = {}
    for i in range(20_000):
        key = i % 1000
        table[key] = table.get(key, 0) + i
    return len(table)


def calibrate() -> float:
    """Seconds the kernel takes right now (best of ``REPEATS``)."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best


def scale(before: float, after: float) -> float:
    """The factor for work timed between two calibrations."""
    return REFERENCE_S / ((before + after) / 2.0)
