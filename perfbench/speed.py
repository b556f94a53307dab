"""Host-speed calibration of the gated times.

On a shared host the speed of a core can move by 2x within seconds, as
neighbours load its sibling threads; a process's CPU time moves with its
wall time, so measuring CPU time instead does not help.  Each gated time
is therefore bracketed by a fixed pure-Python reference loop (dict, set
and sort work, like the server's), timed in this process just before
and just after it.  The server's CPU seconds within the sample are
scaled by ``REFERENCE_S`` over the mean of the two loop times; the rest
of the sample (sleeps, fsync, socket waits) is kept as measured.  The
result is the time the sample would take on a host where the loop takes
``REFERENCE_S``.  The loop is part of the benchmark, not of the program,
so a change to the program moves the scaled times as it moves the raw
ones.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Tuple, TypeVar

#: Nominal reference-loop time, in seconds.
REFERENCE_S = 0.06

T = TypeVar("T")


def reference_loop_s() -> float:
    """Wall seconds of one fixed run of the reference loop."""
    started = time.perf_counter()
    rng = random.Random(0)
    adjacency = {}
    for _ in range(40_000):
        a, b = rng.randrange(3000), rng.randrange(3000)
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)
    keys = sorted(adjacency)
    common = sum(len(adjacency[a] & adjacency[b]) for a, b in zip(keys, keys[1:]))
    sorted((len(adjacency[k]), k) for k in keys)
    assert common > 0
    return time.perf_counter() - started


def bracketed(measure: Callable[[], T]) -> Tuple[T, float]:
    """``measure()`` and the factor that scales its times to reference speed."""
    before = reference_loop_s()
    result = measure()
    after = reference_loop_s()
    return result, REFERENCE_S * 2.0 / (before + after)


def scaled(wall: float, cpu: float, factor: float) -> float:
    """``wall`` seconds with the ``cpu`` seconds in them scaled by ``factor``."""
    cpu = min(cpu, wall)
    return wall - cpu + cpu * factor
