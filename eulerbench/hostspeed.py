"""Host-speed calibration for the eulerlab benchmark.

On a shared host the same pure-Python work runs up to 50% slower for seconds
to minutes at a time, and process CPU time slows with it, so raw timings of
identical runs spread more than any useful bound.  The benchmark therefore
times a fixed calibration pass next to the program's work and reports each
time scaled to a host on which one pass takes `NOMINAL_S` seconds:

    reported = measured * NOMINAL_S / (calibration pass time at that moment)

The pass does the kind of work eulerlab does (tuple keys built by zip/xor,
dict updates, sorting) on data that stays in the core's own caches, and none
of eulerlab's code, so a change to the program moves the reported time and a
change in host speed mostly cancels out.  The cyclic garbage collector is off
during a pass, so the size of the program's heap does not change the pass
time.  The pass keeps off the shared cache on purpose: a pass that also read
a table from it tracked the memory-heavier euler-f2 workload no better and
over-corrected the cache-resident subgroup scan by about 15% while that cache
was contended.

Set-up (a fresh interpreter importing eulerlab) is mostly file reads,
unmarshalling and extension loading rather than bytecode, and it drifts with
the host in its own way, so it is scaled by a different reference: the time a
fresh interpreter, spawned right after, takes to import numpy, eulerlab's one
third-party dependency.  The reported set-up time is that of a host on which
this import takes `NOMINAL_IMPORT_S` seconds.
"""

from __future__ import annotations

import gc
from time import perf_counter

# A round figure near one pass's time on the 2-vCPU Xeon host the benchmark was
# tuned on (Python 3.11.7); it only sets the scale of the reported numbers.
NOMINAL_S = 0.004
NOMINAL_IMPORT_S = 0.1
REFERENCE_IMPORT = "numpy"

_VECTORS = [tuple((i >> k) & 1 for k in range(6)) for i in range(64)]


def calibration_pass():
    counts = {}
    for u in _VECTORS:
        for v in _VECTORS[::3]:
            key = tuple(a ^ b for a, b in zip(u, v))
            counts[key] = counts.get(key, 0) + 1
    table = {}
    for i in range(6000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
    return len(counts) + len(sorted(table.items()))


def calibrate():
    """Seconds one calibration pass takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        calibration_pass()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
