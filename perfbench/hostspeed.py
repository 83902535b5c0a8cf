"""Host speed, so that the benchmark's times compare across runs.

On a shared host the speed of a core drifts by a fifth or more from
one minute to the next, and evenly across the interpreter's work: a
run that lands in a slow minute is slow in every operation it times,
however often it repeats them.  A fixed probe, which runs no code of
the program, measures the speed right around each timed call, and
:class:`Clock` scales the call's wall time by it to *reference-host
seconds*: the seconds the call takes when the probe takes
:data:`REFERENCE_PROBE_S`.  A faster program gives fewer reference
seconds in full measure; a slower host does not.
"""

from __future__ import annotations

import time

#: The probe's median time on the reference host, a 2-vCPU x86-64
#: virtual machine under CPython 3.11 (the host ``nproc`` and the
#: Python version are printed with every result).
REFERENCE_PROBE_S = 0.042


def probe() -> float:
    """Wall seconds of a fixed interpreter workload: dict reads and
    writes on small ints, like much of the simulator's own work."""
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(200_000):
        table[i & 1023] = table.get(i & 1023, 0) + i * 3 // 7
    return time.perf_counter() - t0


class Clock:
    """Times calls in reference-host seconds.  Each call's speed is the
    mean of the probes just before and just after it; the probe after
    one call is the probe before the next."""

    def __init__(self) -> None:
        self.last_probe = probe()
        #: Reference-host seconds per wall second during the last call.
        self.speed = 1.0

    def call(self, fn, *args):
        """(result, wall seconds, reference-host seconds) of ``fn(*args)``."""
        t0 = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - t0
        before, self.last_probe = self.last_probe, probe()
        self.speed = REFERENCE_PROBE_S / ((before + self.last_probe) / 2)
        return result, wall, wall * self.speed
