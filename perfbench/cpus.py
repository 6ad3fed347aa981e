"""Start timed work on the CPU that is fastest right now.

On the shared hosts this benchmark runs on, each vCPU's speed switches
between levels about 1.5x apart, in phases of seconds to tens of seconds and
independently of the other vCPUs.  Moving timed work to the currently fast
vCPU every so often keeps more of a run out of the slow phase.  This changes
where work runs, never what is timed.  Child processes inherit the choice.
"""

from __future__ import annotations

import os
import time


def _spin() -> float:
    t0 = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i % 7
    return time.perf_counter() - t0


def pin_fastest_cpu(cpus) -> int:
    """Pin this process to whichever of ``cpus`` runs a short fixed loop
    fastest now, and return it."""
    if len(cpus) < 2:
        return cpus[0]
    speed = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        speed[cpu] = min(_spin() for _ in range(3))
    best = min(speed, key=speed.get)
    os.sched_setaffinity(0, {best})
    return best
