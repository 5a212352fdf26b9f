"""Machine speed, measured next to every timed operation.

The benchmark shares its machine.  Other load slows everything the
process runs, in phases that last from under a second to longer than a
whole run, by up to about 2x on the machine the benchmark was tuned on.
Repeats and medians cannot remove a phase that covers the whole run.

So each timed call is bracketed by a fixed calibration computation that
does not touch carpool: a heap-based shortest-path sweep over a seeded
random graph in pure Python, the same kind of work as the solver's
inner loop.  A timing is reported in reference seconds,

    reported = wall * REFERENCE_S / calibration,

where calibration is the mean of the brackets just before and just
after the call.  It is the wall time the call would take on a machine
where the calibration takes REFERENCE_S.  A change to carpool moves
reported times exactly as it moves wall times; a change of machine
speed moves both the call and the calibration, and cancels.  The run
record keeps the raw wall times.
"""

from __future__ import annotations

import gc
import heapq
import math
import random
import time

# Calibration time on the tuning machine in its fast phase (2 vCPUs,
# Python 3.11): reported times read as wall seconds there.
REFERENCE_S = 1.3e-3
REPEATS = 3

_N = 1200
_rng = random.Random(20100317)
_ADJ = [[(_rng.randrange(_N), _rng.random()) for _ in range(4)]
        for _ in range(_N)]


def _sweep() -> float:
    dist = [math.inf] * _N
    dist[0] = 0.0
    heap = [(0.0, 0)]
    while heap:
        d, u = heapq.heappop(heap)
        if d != dist[u]:
            continue
        for v, w in _ADJ[u]:
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist[-1]


def calibrate() -> float:
    """Seconds one sweep takes now: the mean of REPEATS sweeps.

    A mean, not a minimum: the call being timed pays the average
    slowdown over its span, and bursts of other load shorter than a
    sweep would make the fastest sweep read the machine as idle.  The
    sweeps run after a full collection with the collector off, so their
    time does not depend on how many objects carpool keeps alive.
    """
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(REPEATS):
            _sweep()
        return (time.perf_counter() - t0) / REPEATS
    finally:
        if enabled:
            gc.enable()


def scaled(wall_s: float, before_s: float, after_s: float) -> float:
    """Wall time in reference seconds, from the calibrations around it."""
    return wall_s * REFERENCE_S * 2.0 / (before_s + after_s)
