"""Footprint regression: bytes per resident synthesized thread block.

Blocks stay resident in launch memo windows and, for every block of
each resident kernel, in long-lived ``repro serve`` workers, so their
size multiplies by every block kept warm.  A block is one compact
structure of arrays (:class:`~repro.trace.blocktrace.BlockTrace`); the
ceiling below fails if per-warp objects or dense ``(W, n)`` operand
columns creep back (the dense per-warp layout took 8.5-24 KB a block on
these kernels).

Measured with ``tracemalloc``, which also sees numpy's data buffers,
over the first blocks of launch 0 walked through the launch's memo
window — the real resident cost, memo entry included.  A warm-up walk
on another kernel object fills the shared skeleton caches first, so
only per-block storage is counted.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro import get_workload

SCALE = 0.125
BLOCKS = 200
CEILING_BYTES = 6 * 1024


def bytes_per_block(name: str, blocks: int = BLOCKS) -> float:
    warm = get_workload(name, scale=SCALE).launches[0]
    count = min(blocks, warm.num_blocks)
    for tb_id in range(count):
        warm.block(tb_id)
    del warm
    launch = get_workload(name, scale=SCALE).launches[0]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for tb_id in range(count):
            launch.block(tb_id)
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return used / count


@pytest.mark.parametrize("name", ["hotspot", "mst", "lbm"])
def test_bytes_per_block_under_ceiling(name):
    per_block = bytes_per_block(name)
    assert per_block <= CEILING_BYTES, f"{name}: {per_block:.0f} B/block"
