"""Thread-block trace: one compact structure of arrays per block."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.trace.instruction import WARP_WIDTH, is_dram_op, validate_ops


@dataclass(frozen=True, slots=True)
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
    """One thread block of ``W`` warps running the same ``n``-instruction
    code, stored as one structure of arrays.

    The block is the paper's sampling granularity — thread blocks are
    dispatched, profiled, clustered into epochs, and skipped or simulated
    as indivisible units.

    All warps of a block share one read-only *skeleton*: ``op`` and
    ``bb`` (length ``n``) and ``pos``, the ``m`` positions of the
    global/local memory instructions (``flatnonzero(is_dram_op(op))``).
    Only the data-dependent columns vary per warp, and only where they
    carry something:

    * ``mem_req``, ``addr``, ``spread`` — ``(W, m)`` matrices over the
      memory positions (row ``w`` is warp ``w``'s operands in program
      order);
    * ``active`` — a ``(W, n)`` matrix, or a single shared ``(n,)`` row
      when no warp of the block diverges.

    Column types: ``op`` (``uint8``, see :mod:`repro.trace.instruction`),
    ``bb`` (``uint16`` static basic-block IDs, the raw material of
    basic-block vectors), ``pos`` (``int64``), ``mem_req`` (``uint8``
    transactions after coalescing: 1 when fully coalesced, up to 32 when
    fully divergent), ``addr`` (``int64`` base byte address of the first
    transaction), ``spread`` (``int64`` byte distance between an
    instruction's transactions: transaction ``j`` touches
    ``addr + j * spread``) and ``active`` (``uint8`` active threads,
    1..32).

    The constructor checks only that the columns agree in shape, so
    synthesis pays nothing more per block; :meth:`validate` checks the
    values of untrusted (hand-built) blocks.  ``stats``
    (:class:`BlockStats`) is computed once, at construction.
    """

    __slots__ = (
        "tb_id", "op", "bb", "pos", "mem_req", "addr", "spread", "active",
        "stats", "__weakref__",
    )

    def __init__(
        self,
        tb_id: int,
        op: np.ndarray,
        bb: np.ndarray,
        pos: np.ndarray,
        mem_req: np.ndarray,
        addr: np.ndarray,
        spread: np.ndarray,
        active: np.ndarray,
    ):
        n = len(op)
        shape = (mem_req.shape[0], len(pos))
        if mem_req.ndim != 2 or shape[0] < 1:
            raise ValueError("a thread block needs at least one warp")
        if (len(bb) != n or mem_req.shape != shape or addr.shape != shape
                or spread.shape != shape):
            raise ValueError("block columns disagree in shape")
        if active.shape not in ((n,), (shape[0], n)):
            raise ValueError("active column disagrees in shape")
        self.tb_id = tb_id
        self.op = op
        self.bb = bb
        self.pos = pos
        self.mem_req = mem_req
        self.addr = addr
        self.spread = spread
        self.active = active
        thread_insts = int(active.sum(dtype=np.int64))
        if active.ndim == 1:
            thread_insts *= shape[0]
        self.stats = BlockStats(
            tb_id=tb_id,
            warp_insts=shape[0] * n,
            thread_insts=thread_insts,
            mem_requests=int(mem_req.sum(dtype=np.int64)),
        )

    def __len__(self) -> int:
        """Number of warps."""
        return self.mem_req.shape[0]

    def validate(self) -> None:
        """Check the value invariants the constructor skips; raise
        ``ValueError`` on violation."""
        validate_ops(self.op)
        if len(self.op) == 0:
            raise ValueError("empty thread block trace")
        if self.active.min() < 1 or self.active.max() > WARP_WIDTH:
            raise ValueError("active thread count out of [1, 32]")
        if not np.array_equal(self.pos, np.flatnonzero(is_dram_op(self.op))):
            raise ValueError("memory positions disagree with the op column")
        if self.mem_req.size:
            if self.mem_req.min() < 1:
                raise ValueError("memory instruction with zero transactions")
            if self.mem_req.max() > WARP_WIDTH:
                raise ValueError("more than 32 transactions in one instruction")


__all__ = ["BlockTrace", "BlockStats"]
