"""Thread-block trace: a set of warps plus cached summary counts."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.trace.warptrace import WarpTrace


@dataclass(frozen=True)
class BlockStats:
    """Per-thread-block summary counters the profiler extracts.

    These are exactly the quantities the paper's profiling step needs:
    thread instructions and warp instructions (Eq. 2 features 1 and 2,
    Eq. 5 denominator ``y``), and global/local memory requests (Eq. 2
    feature 3, Eq. 5 numerator ``x``).
    """

    tb_id: int
    warp_insts: int
    thread_insts: int
    mem_requests: int

    @property
    def stall_probability(self) -> float:
        """Eq. 5's per-block stall probability approximation
        ``x / y`` = memory requests / warp instructions."""
        return self.mem_requests / self.warp_insts


class BlockTrace:
    """One thread block: ``warps_per_block`` warp traces.

    The block is the paper's sampling granularity — thread blocks are
    dispatched, profiled, clustered into epochs, and skipped or simulated
    as indivisible units.
    """

    __slots__ = ("tb_id", "warps", "_stats", "__weakref__")

    def __init__(self, tb_id: int, warps: list[WarpTrace]):
        if not warps:
            raise ValueError("a thread block needs at least one warp")
        self.tb_id = tb_id
        self.warps = warps
        self._stats: BlockStats | None = None

    def __len__(self) -> int:
        return len(self.warps)

    @property
    def stats(self) -> BlockStats:
        """Summary counters (computed once, cached)."""
        if self._stats is None:
            self._stats = BlockStats(
                tb_id=self.tb_id,
                warp_insts=sum(w.warp_insts for w in self.warps),
                thread_insts=sum(w.thread_insts for w in self.warps),
                mem_requests=sum(w.mem_requests for w in self.warps),
            )
        return self._stats

    def bb_counts(self, num_bbs: int) -> np.ndarray:
        """Executed warp-instruction counts per basic block, summed over
        the block's warps."""
        total = np.zeros(num_bbs, dtype=np.int64)
        for w in self.warps:
            total += w.bb_counts(num_bbs)
        return total


__all__ = ["BlockTrace", "BlockStats"]
