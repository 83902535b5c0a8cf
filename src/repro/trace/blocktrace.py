"""Thread-block trace: one compact structure of arrays per block."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.trace.instruction import is_dram_op
from repro.trace.warptrace import WarpTrace


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

    ``stats`` (:class:`BlockStats`) is computed once, at construction.

    Per-warp dense columns are views built on demand (:attr:`warps`);
    outside the memory positions their ``mem_req``, ``addr`` and
    ``spread`` read back as 0.
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
        if len(bb) != n or addr.shape != shape or spread.shape != shape:
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

    @classmethod
    def from_warps(cls, tb_id: int, warps: list[WarpTrace]) -> "BlockTrace":
        """Pack per-warp traces (hand-built or loaded from an archive)
        into one block.

        Raises ``ValueError`` when the warps do not share their ``op``
        and ``bb`` columns, or when a warp carries transactions outside
        the global/local memory instructions: neither fits the layout.
        """
        if not warps:
            raise ValueError("a thread block needs at least one warp")
        op = warps[0].op
        bb = warps[0].bb
        for w in warps[1:]:
            if not (w.op is op or np.array_equal(w.op, op)) or not (
                w.bb is bb or np.array_equal(w.bb, bb)
            ):
                raise ValueError("the warps of a block must share op and bb")
        pos = np.flatnonzero(is_dram_op(op))
        mem_req = np.stack([w.mem_req for w in warps])
        if np.count_nonzero(mem_req) != np.count_nonzero(mem_req[:, pos]):
            raise ValueError("transactions outside memory instructions")
        active = warps[0].active
        if not all(
            w.active is active or np.array_equal(w.active, active)
            for w in warps[1:]
        ):
            active = np.stack([w.active for w in warps])
        return cls(
            tb_id, op, bb, pos, mem_req[:, pos],
            np.stack([w.addr[pos] for w in warps]),
            np.stack([w.spread[pos] for w in warps]),
            active,
        )

    def __len__(self) -> int:
        """Number of warps."""
        return self.mem_req.shape[0]

    @property
    def warps(self) -> list[WarpTrace]:
        """Dense, read-only per-warp views of every warp, built on each
        access; ``mem_req``/``addr``/``spread`` read 0 outside the
        memory positions."""
        shape = (len(self), len(self.op))
        dense = []
        for col in (self.mem_req, self.addr, self.spread):
            full = np.zeros(shape, dtype=col.dtype)
            full[:, self.pos] = col
            full.setflags(write=False)
            dense.append(full)
        active = np.broadcast_to(self.active, shape)
        return [
            WarpTrace.from_columns(
                self.op, active[w], dense[0][w], dense[1][w], dense[2][w],
                self.bb, validate=False,
            )
            for w in range(shape[0])
        ]

    def bb_counts(self, num_bbs: int) -> np.ndarray:
        """Executed warp-instruction counts per basic block, summed over
        the block's warps."""
        counts = np.bincount(self.bb, minlength=num_bbs).astype(np.int64)
        return counts * len(self)


__all__ = ["BlockTrace", "BlockStats"]
