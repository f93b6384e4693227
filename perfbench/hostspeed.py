"""Host-speed calibration taken before and after every timed body.

On a shared 2-core VM the same serial Python loop ran anywhere from 1.37 s
to 2.39 s within minutes, and one ``cli_run`` pass took 38 s in one
ten-minute stretch and 48-69 s in the next: other tenants slow the vCPUs for
minutes at a time, and that drift, not the program, dominated the spread
between runs.  So every run times a fixed pure-Python kernel back to back for
``CALIBRATION_S`` before its timed bodies and after each of them, on an
otherwise idle machine, by the kernel's own CPU time (``time.thread_time``:
a slowed core counts, waiting for one does not).  The host factor is the
median kernel time over the kernel's time on the calm reference host; a
measured time divided by it reads what the run would have taken there.

The calibration never runs beside the program, so a change to the program
cannot move it.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Sequence

#: CPU time of one :func:`kernel` call on the reference host when calm
#: (2-core Intel Xeon VM, Python 3.11).  Only a scale: calibrated times are
#: in "seconds at reference-host speed".
REFERENCE_KERNEL_S = 0.0041
CALIBRATION_S = 1.0


def kernel() -> int:
    total = 0
    for i in range(60_000):
        total += i * i % 7
    return total


def calibrate(seconds: float = CALIBRATION_S) -> List[float]:
    """CPU times of back-to-back :func:`kernel` calls over ``seconds`` of wall time."""
    samples = []
    end = time.monotonic() + seconds
    while not samples or time.monotonic() < end:
        before = time.thread_time()
        kernel()
        samples.append(time.thread_time() - before)
    return samples


def factor(samples: Sequence[float]) -> float:
    """How much slower than the calm reference host the samples ran."""
    return statistics.median(samples) / REFERENCE_KERNEL_S
