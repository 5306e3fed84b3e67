"""A fixed pure-Python loop that tracks how fast this machine runs Python right now.

On a shared machine the speed of the same code drifts by 20% and more within
seconds and between runs.  The benchmark times this loop at calibration
points next to its measurements and scales each measured time by REFERENCE_S
over the loop's time at the points around it, so that the time reads as on a
machine where the loop takes REFERENCE_S.  The loop allocates no objects the
garbage collector tracks and runs with the collector off, so the program's
heap does not change its time.  Never edit it: calibrated figures are
comparable only while it stays the same.
"""

import gc
from time import perf_counter

# About the loop's median time on the machine where the benchmark was defined
# (a shared 2-vCPU x86-64 VM at 2.1 GHz, Python 3.11.7).
REFERENCE_S = 0.010
SAMPLES = 3  # loops timed at each calibration point

_TABLE = list(range(4099))


def reference_time() -> float:
    """Seconds this call took to run the fixed loop once."""
    table = _TABLE
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        total, k = 0, 1
        for i in range(60000):
            k = (k * 7919 + i) % 4099
            total += table[k] ^ i
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def calibration_point() -> float:
    """Median time of SAMPLES loops: the machine's speed at this moment."""
    return sorted(reference_time() for _ in range(SAMPLES))[SAMPLES // 2]
