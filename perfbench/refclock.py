"""Reference seconds: wall time corrected for the speed the machine has now.

On a shared two-core machine the same single-threaded operation was seen to
take anywhere from 215 to 396 ms within 100 s, as other tenants load the
cores.  A fixed pure-Python kernel timed next to each measurement slows down
with it (the ratio of the two varied 6 %, the raw time 18 %), so every time
the benchmark reports is scaled by REFERENCE_S / (kernel time measured now).
One reference second is one wall second when the kernel takes REFERENCE_S.
"""

from __future__ import annotations

import statistics
import time

# Median kernel time on an Intel Xeon (2 vCPU, Python 3.11.7); a fixed unit.
REFERENCE_S = 0.0035


def _kernel() -> int:
    s = 0
    for i in range(40_000):
        s += i * i % 7
    return s


def calibrate() -> float:
    """Median of seven timings of the kernel, in seconds (about 25 ms)."""
    times = []
    for _ in range(7):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scale(kernel_s: float) -> float:
    """Factor that turns wall seconds measured next to kernel_s into
    reference seconds."""
    return REFERENCE_S / kernel_s
