"""The machine's current speed, from a fixed pure-Python reference loop.

On a shared machine, other processes slow a run down by up to 2x, in
phases that last from seconds to minutes.  A whole run can fall into one,
so no statistic over the run's own samples removes it.  The benchmark
therefore times the reference loop right before and right after every
operation and scales the operation's time by REFERENCE_S / (the loop's time
then).  Scaled times read as seconds on this machine at full speed.  A
change to tropdiff does not touch the loop, so the scale stays the same from
one version of tropdiff to the next.
"""

from __future__ import annotations

import time
from fractions import Fraction

# Best time of reference_work() on the machine the baseline was measured on
# (2 vCPUs, Python 3.11.7): the least of about 10,000 runs.
REFERENCE_S = 0.00113


def reference_work() -> int:
    """Fraction arithmetic, tuples and a dict: the kind of work tropdiff does."""
    acc = Fraction(0)
    seen = {}
    for i in range(1, 400):
        acc += Fraction(i % 7 + 1, i)
        seen[(i, i % 5)] = acc.numerator.bit_length()
    return len(seen)


def reference_s() -> float:
    """Best of three timings of reference_work(), in seconds."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        reference_work()
        best = min(best, time.perf_counter() - start)
    return best
