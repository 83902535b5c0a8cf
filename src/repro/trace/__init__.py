"""Kernel trace representation.

A GPGPU kernel is represented hierarchically, following the CUDA
terminology the paper uses (Section II-A):

* :class:`~repro.trace.kernel.KernelTrace` — a kernel with one or more
  *kernel launches*;
* :class:`~repro.trace.launch.LaunchTrace` — one launch: an ordered
  sequence of *thread blocks*, dispatched greedily by thread-block ID;
* :class:`~repro.trace.blocktrace.BlockTrace` — one thread block: its
  *warps*, which run the same code, held as one structure of arrays (a
  shared instruction skeleton of *warp instructions*, each executing up
  to 32 *thread instructions*, plus per-warp memory operands at the
  memory instructions only).  The block is the only trace record.

Traces are generated lazily and deterministically: a
:class:`LaunchTrace` holds a factory that synthesizes any thread block's
trace on demand from a seed derived from (kernel, launch, block).  The
functional profiler and the timing simulator therefore observe
bit-identical instruction streams without ever materializing a full
multi-gigabyte trace — the moral equivalent of re-readable trace files in
a trace-driven simulator such as Macsim.
"""

from repro.trace.instruction import (
    OP_ALU,
    OP_BRANCH,
    OP_FP,
    OP_MEM_GLOBAL,
    OP_MEM_LOCAL,
    OP_MEM_SHARED,
    OP_NAMES,
    OP_SFU,
    OP_SYNC,
    STALL_CYCLES,
    WARP_WIDTH,
    is_dram_op,
    is_mem_op,
)
from repro.trace.blocktrace import BlockTrace
from repro.trace.launch import LaunchTrace
from repro.trace.kernel import KernelTrace

__all__ = [
    "OP_ALU",
    "OP_FP",
    "OP_SFU",
    "OP_MEM_GLOBAL",
    "OP_MEM_LOCAL",
    "OP_MEM_SHARED",
    "OP_BRANCH",
    "OP_SYNC",
    "OP_NAMES",
    "STALL_CYCLES",
    "WARP_WIDTH",
    "is_mem_op",
    "is_dram_op",
    "BlockTrace",
    "LaunchTrace",
    "KernelTrace",
]
