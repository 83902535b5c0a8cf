"""Golden digest of every synthesized thread block.

One BLAKE2b digest per Table VI kernel at a small scale, over every
thread block of every launch: the block's ID, its summary stats and each
warp's dense columns (one entry per instruction, memory operands 0
outside the memory instructions), rebuilt here from the block's compact
arrays.  It pins what every reader of a trace sees, independent of how
blocks are stored, so a change to the storage layout must leave it
untouched and a change to the generator shows up here with the kernel
named.

If synthesis changes on purpose (with a ``GENERATOR_VERSION`` bump),
print the new values with::

    PYTHONPATH=src python tests/test_trace_digest.py

and commit them with the change that caused them.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import get_workload
from repro.workloads.registry import ALL_KERNELS

DIGEST_SCALE = 0.02
DIGEST_SEED = 2014

GOLDEN = {
    "bfs": "4b140bd428ef4c7560f033685a32f2da",
    "sssp": "33b7bf239d698f5b418a347a61ad860b",
    "mst": "226680f54a35a4022638216923ffc629",
    "mri": "053fc6ed0c092b79b48be82d7d0f707b",
    "spmv": "9f2156bb620ec79b72cc5a80b2ff3e6c",
    "lbm": "3b391446f8416f923113953c6b9b56f5",
    "cfd": "896fa8064d45aacbe8462928d737be81",
    "kmeans": "d4b119ed8d76d11628b270c5f25ee4e2",
    "hotspot": "b9c79089d0a83a8341325cb4718d3261",
    "stream": "05dceeb89c2eca0988ea96cbd87e1574",
    "black": "421425e4ceec4a5d068cea89e99c3a6b",
    "conv": "b3b9b90bf995f43f68bb2aa9bce3f3ac",
}


#: Dense column dtypes, in digest order.
_DENSE = (("op", np.uint8), ("active", np.uint8), ("mem_req", np.uint8),
          ("addr", np.int64), ("spread", np.int64), ("bb", np.uint16))


def dense_columns(block) -> list[dict[str, np.ndarray]]:
    """Each warp's dense columns: ``mem_req``/``addr``/``spread``
    scattered to the memory positions, 0 elsewhere."""
    shape = (len(block), len(block.op))
    full = {"op": np.broadcast_to(block.op, shape),
            "bb": np.broadcast_to(block.bb, shape),
            "active": np.broadcast_to(block.active, shape)}
    for name in ("mem_req", "addr", "spread"):
        full[name] = np.zeros(shape, dtype=getattr(block, name).dtype)
        full[name][:, block.pos] = getattr(block, name)
    return [
        {name: np.ascontiguousarray(full[name][w], dtype=dtype)
         for name, dtype in _DENSE}
        for w in range(shape[0])
    ]


def trace_digest(name: str, scale: float = DIGEST_SCALE,
                 seed: int = DIGEST_SEED) -> str:
    """BLAKE2b over every block of kernel ``name``, in dispatch order."""
    kernel = get_workload(name, scale=scale, seed=seed)
    h = hashlib.blake2b(digest_size=16)
    h.update(f"{name}:{kernel.num_launches}".encode())
    for launch in kernel.launches:
        h.update(
            f"L{launch.launch_id}:{launch.num_blocks}:"
            f"{launch.warps_per_block}:{launch.num_bbs}".encode()
        )
        for block in launch.iter_blocks():
            s = block.stats
            warps = dense_columns(block)
            h.update(
                f"B{block.tb_id}:{s.tb_id}:{s.warp_insts}:{s.thread_insts}:"
                f"{s.mem_requests}:{len(warps)}".encode()
            )
            for warp in warps:
                for name, _ in _DENSE:
                    col = warp[name]
                    h.update(col.dtype.str.encode())
                    h.update(col.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", ALL_KERNELS)
def test_trace_digest_pinned(name):
    assert trace_digest(name) == GOLDEN[name]


if __name__ == "__main__":
    for kernel_name in ALL_KERNELS:
        print(f'    "{kernel_name}": "{trace_digest(kernel_name)}",')
