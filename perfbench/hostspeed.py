"""Host speed probe: the benchmark's unit of time.

On a shared virtual machine the CPU's speed drifts: on a 2-vCPU x86 VM
this loop took from 4.7 to 6.7 ms within one second, campaign run times
averaged over 2.5 s windows ranged over 56% within four minutes, and
campaign throughput moved by a third between two sets of ten runs made
minutes apart.  So the benchmark times this fixed loop between campaign
runs, and reports every end-to-end timing in reference seconds: wall
seconds scaled by ``REFERENCE_S / probe time``, that is, the wall time the
same work would take on a host that runs the loop in ``REFERENCE_S``.  The
loop does not use the program, so a change to the program cannot move it.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import List

#: The probe's duration on the reference host (the loop's median there).
REFERENCE_S = 0.005
#: Minimum wall time between two probes during a campaign.
EVERY_S = 0.25


def probe() -> float:
    """Seconds this host takes for the fixed loop, now."""
    started = perf_counter()
    total = 0
    for value in range(60_000):
        total += value * value % 7
    return perf_counter() - started


def speed(probes: List[float]) -> float:
    """Host speed relative to the reference host (above 1: faster)."""
    return REFERENCE_S / statistics.median(probes)
