"""Per-warp instruction trace.

A :class:`WarpTrace` is one warp's dynamic instruction stream as dense
columns, one entry per warp instruction.  Thread blocks are not stored
this way: :class:`~repro.trace.blocktrace.BlockTrace` keeps all of a
block's warps in one compact structure of arrays and builds a
:class:`WarpTrace` as a view on demand (``block.warps``).  The dense
form is what hand-built and archived traces are written in, what trace
export and content fingerprints read, and what tests inspect.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.trace.instruction import (
    OP_MEM_GLOBAL,
    WARP_WIDTH,
    is_dram_op,
    validate_ops,
)


@dataclass
class WarpTrace:
    """Dynamic instruction stream of one warp.

    All arrays have the same length ``n`` (the number of warp
    instructions).  For non-memory instructions ``mem_req`` is 0 and
    ``addr``/``spread`` are ignored: a block does not store them, so
    they read back as 0 in a view of a :class:`BlockTrace`.

    Attributes
    ----------
    op:
        Operation class per instruction (``uint8``, see
        :mod:`repro.trace.instruction`).
    active:
        Active threads per instruction, 1..32 (``uint8``).  The sum of
        this column is the warp's *thread instruction* count; its length
        is the *warp instruction* count.  The ratio captures control-flow
        divergence (Eq. 2's second feature).
    mem_req:
        Number of memory transactions the instruction issues after
        coalescing, 0 for non-memory ops (``uint8``).  A fully coalesced
        access is 1; a fully divergent one is up to 32 (Eq. 2's third
        feature counts these).
    addr:
        Base byte address of the first transaction (``int64``).
    spread:
        Byte distance between consecutive transactions of one instruction
        (``int64``); transaction ``j`` touches ``addr + j * spread``.
    bb:
        Static basic-block ID per instruction (``uint16``) — the raw
        material for basic-block vectors (Ideal-SimPoint baseline).
    """

    op: np.ndarray
    active: np.ndarray
    mem_req: np.ndarray
    addr: np.ndarray
    spread: np.ndarray
    bb: np.ndarray
    _validate: bool = field(default=True, repr=False)

    def __post_init__(self) -> None:
        self.op = np.ascontiguousarray(self.op, dtype=np.uint8)
        self.active = np.ascontiguousarray(self.active, dtype=np.uint8)
        self.mem_req = np.ascontiguousarray(self.mem_req, dtype=np.uint8)
        self.addr = np.ascontiguousarray(self.addr, dtype=np.int64)
        self.spread = np.ascontiguousarray(self.spread, dtype=np.int64)
        self.bb = np.ascontiguousarray(self.bb, dtype=np.uint16)
        if self._validate:
            self.validate()

    def validate(self) -> None:
        """Check structural invariants; raise ``ValueError`` on violation."""
        n = len(self.op)
        for name in ("active", "mem_req", "addr", "spread", "bb"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"column {name!r} length mismatch")
        validate_ops(self.op)
        if n == 0:
            raise ValueError("empty warp trace")
        if self.active.min() < 1 or self.active.max() > WARP_WIDTH:
            raise ValueError("active thread count out of [1, 32]")
        dram = is_dram_op(self.op)
        if np.any(self.mem_req[dram] < 1):
            raise ValueError("DRAM-bound instruction with zero transactions")
        if np.any(self.mem_req[~dram] != 0):
            raise ValueError("non-memory instruction with transactions")
        if np.any(self.mem_req > WARP_WIDTH):
            raise ValueError("more than 32 transactions in one instruction")

    # ------------------------------------------------------------------
    # Profile-level reductions (used by the functional profiler).
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.op)

    @property
    def warp_insts(self) -> int:
        """Number of warp instructions."""
        return len(self.op)

    @property
    def thread_insts(self) -> int:
        """Number of thread instructions (sum of active thread counts)."""
        return int(self.active.sum(dtype=np.int64))

    @property
    def mem_requests(self) -> int:
        """Total memory transactions to global/local space."""
        return int(self.mem_req.sum(dtype=np.int64))

    def bb_counts(self, num_bbs: int) -> np.ndarray:
        """Executed warp-instruction count per basic block (length
        ``num_bbs``)."""
        return np.bincount(self.bb, minlength=num_bbs).astype(np.int64)

    @classmethod
    def from_columns(
        cls,
        op: np.ndarray,
        active: np.ndarray,
        mem_req: np.ndarray,
        addr: np.ndarray,
        spread: np.ndarray,
        bb: np.ndarray,
        validate: bool = True,
    ) -> "WarpTrace":
        """Build a trace from raw columns, optionally skipping validation
        (views of a trusted :class:`BlockTrace` skip it)."""
        return cls(op, active, mem_req, addr, spread, bb, _validate=validate)


__all__ = ["WarpTrace", "OP_MEM_GLOBAL"]
