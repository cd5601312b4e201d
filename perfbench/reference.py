"""A fixed pure-Python computation that measures the host, not the program.

The VM's speed drifts by tens of percent between runs.  Timing this
reference between the program's samples shows the drift, and dividing a
sample's time by the reference's time cancels most of it.  The work
imitates the program's inner loops (tuple hashing, dict probes, string
sorting) and shares no code with ``repro``, so no change to the program
can move it.
"""

from __future__ import annotations

import gc
import time

#: The reference's duration on the host the benchmark was tuned on
#: (2-core VM, CPython 3.11): calibrated timings are expressed as
#: seconds on a host that runs the reference in this long.
NOMINAL_SECONDS = 0.020

_ROWS = [(f"c{(i * 7919) % 1201}", f"c{(i * 104729) % 1193}") for i in range(12000)]


def _work() -> int:
    index: dict = {}
    for a, b in _ROWS:
        index.setdefault(a, []).append(b)
    paths = 0
    for _, b in _ROWS:
        paths += len(index.get(b, ()))
    ordered = sorted(set(_ROWS))
    return paths + len(ordered) + len(ordered[len(ordered) // 2][0])


def sample() -> float:
    """Seconds taken by one run of the reference computation.

    The collector is held off so that garbage left by the program's
    last sample does not land in the reference's time.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        gc.enable()
