"""Warp-instruction encoding.

Instructions are stored column-wise as small-integer numpy arrays (see
:class:`repro.trace.blocktrace.BlockTrace`); this module defines the
operation classes, the per-class scoreboard stall latencies, and helper
predicates.

The latency table plays the role of "instruction latencies are modeled
according to the CUDA manual" in Table V of the paper: the value for an
operation class is the number of cycles after issue before the *same
warp* may issue its next (dependent) instruction.  Memory operations to
global/local space carry no static latency here — their stall time is
produced dynamically by the memory hierarchy (L1/L2/DRAM plus queueing),
which is exactly the variable stall latency ``M`` of the paper's model.
"""

from __future__ import annotations

import numpy as np

#: SIMD width of a warp (threads per warp).
WARP_WIDTH = 32

# Operation classes.  Values are contiguous so STALL_CYCLES can be an array.
OP_ALU = 0  #: integer / single-precision arithmetic
OP_FP = 1  #: double precision / multi-cycle FP
OP_SFU = 2  #: special function unit (transcendental)
OP_BRANCH = 3  #: control flow
OP_SYNC = 4  #: barrier / membar
OP_MEM_SHARED = 5  #: software-managed (shared) memory access
OP_MEM_GLOBAL = 6  #: global memory access (goes through L1/L2/DRAM)
OP_MEM_LOCAL = 7  #: local memory access (goes through L1/L2/DRAM)

NUM_OPS = 8

OP_NAMES = (
    "alu",
    "fp",
    "sfu",
    "branch",
    "sync",
    "mem_shared",
    "mem_global",
    "mem_local",
)

#: Scoreboard stall (cycles until the issuing warp is next ready) per
#: operation class.  Global/local memory entries are placeholders — the
#: timing simulator replaces them with hierarchy-dependent latency.
STALL_CYCLES = np.array(
    [
        8,  # OP_ALU: dependent-issue latency of simple arithmetic
        16,  # OP_FP
        24,  # OP_SFU
        4,  # OP_BRANCH
        4,  # OP_SYNC (barrier cost itself; arrival skew not modelled)
        26,  # OP_MEM_SHARED: bank-conflict-free shared access
        0,  # OP_MEM_GLOBAL: dynamic
        0,  # OP_MEM_LOCAL: dynamic
    ],
    dtype=np.int64,
)

#: Operation classes whose requests traverse the L1/L2/DRAM hierarchy.
#: These are also the classes the paper counts as "memory requests" for
#: the stall probability of Eq. 5 ("global and local memory accesses").
_DRAM_OPS = frozenset({OP_MEM_GLOBAL, OP_MEM_LOCAL})


def is_mem_op(op: int | np.ndarray):
    """True for any memory-space operation (shared, global or local)."""
    return (np.asarray(op) >= OP_MEM_SHARED) if isinstance(op, np.ndarray) else op >= OP_MEM_SHARED


def is_dram_op(op: int | np.ndarray):
    """True for operations that traverse the L1/L2/DRAM hierarchy
    (global and local accesses — the paper's "memory requests")."""
    return (np.asarray(op) >= OP_MEM_GLOBAL) if isinstance(op, np.ndarray) else op >= OP_MEM_GLOBAL


def validate_ops(op: np.ndarray) -> None:
    """Raise ``ValueError`` if ``op`` contains an unknown operation class."""
    if op.size and (op.min() < 0 or op.max() >= NUM_OPS):
        raise ValueError("unknown operation class in trace")
