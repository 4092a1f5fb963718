"""Fixed reference loops: how fast this machine runs each kind of work now.

The reference machine is a shared VM whose speed drifts by up to 1.6x over
tens of seconds (a neighbour's load on the same physical core), so the same
workload reads very differently from one run to the next. The benchmark
times a reference loop next to the code it measures and rescales that code's
wall time by REFERENCE_S / (the loop's time), which cancels the drift common
to both. Pure-Python code and numpy's full-array passes drift differently,
so there is one loop of each kind, and each workload names the one that
matches its hot path, or both in turn ("mixed") when it spends about as much
time in each. The loops use nothing of dupcodes, so a change to the
package moves only the measured side.

Kept apart from run.py so that a fresh set-up interpreter can import it
without importing numpy.
"""

import time

# Each loop's time on the reference machine at its usual speed; rescaled
# timings read in seconds at that speed.
REFERENCE_S = {"python": 0.03, "numpy": 0.025, "mixed": 0.055}


def _python_loop():
    """Integer arithmetic and tuple-keyed dict stores, the mix of the
    package's scalar code."""
    total, table = 0, {}
    for i in range(100_000):
        total += i * i % 7
        table[i & 2047, i & 7] = total


def _numpy_loop():
    """Fresh 16 MB arrays, a hash, a histogram and a neighbour comparison, the
    mix of the package's full-word-space scans."""
    import numpy as np

    words = np.arange(1 << 21, dtype=np.int64)
    keys = (words * 2654435761) & 1023
    np.bincount(keys)
    int((keys[1:] == keys[:-1]).sum())


_LOOPS = {"python": (_python_loop,), "numpy": (_numpy_loop,), "mixed": (_python_loop, _numpy_loop)}


def reference_seconds(kind="python"):
    """Wall seconds of one pass of the reference loops of `kind`."""
    t0 = time.perf_counter()
    for loop in _LOOPS[kind]:
        loop()
    return time.perf_counter() - t0
