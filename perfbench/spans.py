"""A minimal span recorder used only by the benchmark's traced runs.

Spans are named, hold total seconds, and are recorded
around calls into the program's public functions (the program itself
carries no tracing).  ``covered`` marks the spans that belong to the
work the untraced end-to-end metrics time, so their sum can be set
against those metrics; work the untraced run does not time (the
re-read of the cached profiles) is recorded with ``covered`` off.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Spans:
    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self.covered = False
        #: Sum of the spans recorded while ``covered`` was on.
        self.covered_sum = 0.0
        #: Wall seconds of the covered segments (see :meth:`segment`).
        self.segment_wall = 0.0

    @contextmanager
    def span(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self.seconds[name] = self.seconds.get(name, 0.0) + dt
            if self.covered:
                self.covered_sum += dt

    @contextmanager
    def segment(self):
        """A stretch of work that the untraced run also times; its wall
        clock and the spans inside it are counted as covered."""
        self.covered = True
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.segment_wall += time.perf_counter() - t0
            self.covered = False

    def total(self, name: str) -> float:
        return self.seconds.get(name, 0.0)
