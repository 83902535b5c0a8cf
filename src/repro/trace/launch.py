"""Kernel-launch trace with lazy, deterministic thread-block synthesis."""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Iterator

from repro.trace.blocktrace import BlockTrace

#: Default number of recently generated blocks kept alive.  The timing
#: simulator touches blocks roughly in dispatch order, so a small window
#: covering the maximum system occupancy is enough to make regeneration
#: rare *within* one pass; re-walking a launch wider than the window
#: (>256-block launches, or a re-simulation of the same trace) pays the
#: synthesis cost again — which is what :attr:`LaunchTrace.block_memo`
#: and the ``block_regenerations`` counter exist to make visible and,
#: for long-lived processes such as ``repro serve``, eliminate.
_BLOCK_CACHE_SIZE = 256


class LaunchTrace:
    """One kernel launch: ``num_blocks`` thread blocks, dispatched in
    thread-block-ID order by the greedy global scheduler (Section II-A).

    Thread-block traces are synthesized on demand by ``factory(tb_id)``
    and memoized in an LRU window of ``block_memo`` entries
    (:data:`_BLOCK_CACHE_SIZE` until :meth:`resize_block_memo` changes
    it).  The factory must be deterministic:
    calling it twice with the same ID yields identical traces, which is
    what lets the functional profiler and the timing simulator agree
    without storing the trace — and what makes the memo window a pure
    performance knob that can never change results.  Every block must
    have exactly ``warps_per_block`` warps, since occupancy is computed
    from that width; each factory call checks it.

    ``regenerations`` counts factory calls for blocks that had already
    been synthesized once and were evicted from the window — the
    re-synthesis thrash a too-small window causes on launches wider
    than it.  A factory may answer such a call with a block another
    launch still holds (spec-synthesized launches over the same data
    share live blocks), so a regeneration is not always a synthesis.
    :class:`~repro.sim.gpu.SimCounters` snapshots the delta per
    simulated launch.
    """

    def __init__(
        self,
        kernel_name: str,
        launch_id: int,
        num_blocks: int,
        warps_per_block: int,
        factory: Callable[[int], BlockTrace],
        num_bbs: int = 1,
    ):
        if num_blocks <= 0:
            raise ValueError("launch with no thread blocks")
        if warps_per_block <= 0:
            raise ValueError("warps_per_block must be positive")
        self.kernel_name = kernel_name
        self.launch_id = launch_id
        self.num_blocks = num_blocks
        self.warps_per_block = warps_per_block
        self.num_bbs = num_bbs
        self.block_memo = _BLOCK_CACHE_SIZE
        self._factory = factory
        self._cache: OrderedDict[int, BlockTrace] = OrderedDict()
        #: Factory calls for blocks generated before but since evicted.
        self.regenerations = 0
        #: Lazily allocated has-been-generated bitmap (1 byte/block).
        self._seen: bytearray | None = None

    def block(self, tb_id: int) -> BlockTrace:
        """Return the trace of thread block ``tb_id`` (0-based)."""
        if not 0 <= tb_id < self.num_blocks:
            raise IndexError(f"tb_id {tb_id} out of range [0, {self.num_blocks})")
        cached = self._cache.get(tb_id)
        if cached is not None:
            self._cache.move_to_end(tb_id)
            return cached
        block = self._factory(tb_id)
        if block.tb_id != tb_id:
            raise ValueError("factory returned a block with the wrong ID")
        if len(block) != self.warps_per_block:
            raise ValueError(
                f"factory returned a {len(block)}-warp block for a launch "
                f"of {self.warps_per_block}-warp blocks"
            )
        seen = self._seen
        if seen is None:
            seen = self._seen = bytearray(self.num_blocks)
        if seen[tb_id]:
            self.regenerations += 1
        else:
            seen[tb_id] = 1
        self._cache[tb_id] = block
        if len(self._cache) > self.block_memo:
            self._cache.popitem(last=False)
        return block

    def resize_block_memo(self, window: int) -> None:
        """Resize the memo window in place (a pure performance knob:
        blocks are deterministic, so results can never depend on it).
        Shrinking evicts least-recently-used entries immediately."""
        if window <= 0:
            raise ValueError("block_memo must be positive")
        self.block_memo = int(window)
        cache = self._cache
        while len(cache) > window:
            cache.popitem(last=False)

    def __getstate__(self) -> dict:
        """Pickle support: the memoization window is dropped (workers
        regenerate blocks on demand) and the regeneration bookkeeping
        restarts, so a launch pickles iff its factory does — true for
        all spec-synthesized workload launches.  ``block_memo`` itself
        survives the round trip."""
        state = self.__dict__.copy()
        state["_cache"] = OrderedDict()
        state["_seen"] = None
        state["regenerations"] = 0
        return state

    def iter_blocks(self) -> Iterator[BlockTrace]:
        """Iterate thread blocks in dispatch (ID) order."""
        for tb_id in range(self.num_blocks):
            yield self.block(tb_id)

    def __len__(self) -> int:
        return self.num_blocks

    def __repr__(self) -> str:
        return (
            f"LaunchTrace({self.kernel_name!r}, launch={self.launch_id}, "
            f"blocks={self.num_blocks}, warps_per_block={self.warps_per_block})"
        )


__all__ = ["LaunchTrace"]
