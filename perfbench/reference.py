"""Machine-speed reference for the benchmark's op times.

The speed a shared virtual machine lends one process switches, for
minutes at a time. On a 2-vCPU KVM guest (Xeon, Python 3.11.7), the CPU
time of the same ``decide_int`` operations changed by up to 1.5x from one
20 s run to the next, and earlier wall-time blocks of 100 operations took
between 0.57 and 1.23 s. ``reference_seconds`` times a fixed walk: a
plain re-implementation of the shift-with-carry map of ``3x^2-2x+5`` on
integer coordinates, using no digsys code. Sampled every 0.1 s between
operations, it tracks those switches. Each operation's time is therefore
multiplied by ``NOMINAL_S / reference time``, taking the mean of the
samples just before and after it. The unscaled values are kept next to
the scaled ones.
"""

from __future__ import annotations

import time

# median reference time on the machine above in its slower phases, so that
# runs there are rarely slower than the reference speed
NOMINAL_S = 0.0025


def _walk() -> int:
    # ints only: they are not tracked by the garbage collector, so no
    # collection (which would scan the library's live heap) falls inside
    # a reference sample
    seen = {}
    a, b = 10**60 + 12345, -(10**59) - 777
    for n in range(3200):
        c = a * 3 - b * 2
        r = c % 5
        a, b = b, -((c - r) // 5)
        seen[b] = n
        if a == 0 and b == 0:
            a, b = 10**60 + n, -(10**59) - n
    return len(seen)


def reference_seconds() -> float:
    """CPU time of one walk, on the same clock as the op times."""
    start = time.thread_time()
    _walk()
    return time.thread_time() - start


def speed_factor(reference_s: float) -> float:
    """Multiply a time measured while the reference took ``reference_s``
    by this to state it at the reference speed."""
    return NOMINAL_S / reference_s
