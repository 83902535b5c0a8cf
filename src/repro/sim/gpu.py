"""Event-driven multi-SM timing simulator.

The engine keeps one global event heap of (cycle, sm) issue slots.
Popping an event issues at least one warp instruction on that SM — from
its earliest-ready resident warp — then reschedules the SM for
``max(cycle + 1, next warp ready)``.  Cost is therefore
O(instructions x log) with idle cycles skipped by construction, per the
HPC guideline of spending time only where work happens.

Two issue loops share the same dispatch/retire/sampling machinery and
are bit-identical by construction:

* the **per-instruction loop** (``engine="reference"``): one heap
  event, one warp instruction.  Warp state is materialized as plain
  Python lists: per-skeleton ``stall``/``bb`` lists shared by the
  warps running it, and dense operand lists scattered per warp from
  the block's memory-operand matrices.  It
  is the equivalence oracle, and it also runs every launch that
  observes global order at each instruction: launches with a
  :class:`FixedUnitRecorder`.
* the **window loop** (``engine="compact"``, the default) runs every
  other launch — full runs and TBPoint's sampled runs:

  - **trace interning**: each unique block skeleton (keyed by the
    identity of its shared ``op``/``bb`` arrays) is converted to list
    form once per simulator lifetime — relaunches reuse the tables —
    and the immutable :class:`_TraceTable` is shared across every warp
    executing that code; only ``pc`` and the memory operands (one row
    of the block's operand matrices) stay per-warp;
  - **segment compaction**: per unique trace, run lengths of
    consecutive non-memory instructions carry a prefix-sum of
    issue-to-issue stall deltas, so one heap event can retire a whole
    segment wherever that is provably timing-equivalent (bounded by the
    SM's next-ready warp);
  - **windowed issue**: one global event per SM *window*; the SM's
    warp pool (a per-SM binary heap) is simulated in a tight local loop
    that defers back to the global heap only at *barrier* instructions
    (memory ops and block-retiring final instructions);
  - **lazy ``issued``**: a sampler sees the exact machine-wide issued
    count at each retirement, recomputed from the other SMs' recorded
    run-ahead tails only when a hook fires;
  - **observability**: :class:`SimCounters` tallies events, heap
    pushes, segment/interning hits and memory-batching engagement and
    is attached to the :class:`LaunchResult` (``None`` for launches the
    per-instruction loop runs).

The timing-equivalence argument lives in DESIGN.md ("Simulator hot
path"); ``tests/test_sim_compaction.py`` property-checks the two
loops against each other.

Sampling support (Section IV-B2):

* an optional :class:`~repro.sim.sampler_hooks.DispatchSampler` decides
  at dispatch time whether each thread block is simulated or skipped
  (fast-forward), and observes retirements;
* *sampling units* are tracked as the paper defines them — the interval
  between the dispatch and retirement of a *specified* thread block
  (first dispatched block at start; a new one is specified after each
  retirement) — and reported to the sampler;
* an optional :class:`FixedUnitRecorder` slices the run into
  fixed-instruction-count units with per-unit IPC and basic-block
  vectors, which is what the Random and Ideal-SimPoint baselines consume.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from heapq import heappop, heappush, heapreplace

import numpy as np

from repro.config import GPUConfig
from repro.sim.memory import make_memory
from repro.sim.sampler_hooks import DispatchSampler
from repro.trace import STALL_CYCLES, LaunchTrace
from repro.trace.blocktrace import BlockTrace

_INF = float("inf")

#: Upper bound on distinct interned traces kept per launch; launches in
#: this reproduction have a handful of unique skeletons, so the cap only
#: guards against pathological synthetic inputs.
_INTERN_CACHE_MAX = 1024


@dataclass
class SimCounters:
    """Hot-loop statistics of one ``run_launch`` call on the window loop.

    Attached to :class:`LaunchResult.counters`; useful for verifying
    that the fast paths actually engage on a given workload before
    reading anything into a benchmark number.
    """

    events_popped: int = 0
    heap_pushes: int = 0
    segment_hits: int = 0
    segment_insts: int = 0
    interning_hits: int = 0
    interning_misses: int = 0
    #: Warp memory instructions issued and the line transactions they
    #: expanded to (``mem_txns / mem_insts`` = transactions per memory
    #: instruction, the batching exposure of the launch).
    mem_insts: int = 0
    mem_txns: int = 0
    #: Memory-front-end fast-path engagement, read from the hierarchy's
    #: own counters (zeroed by the reset at the start of every run):
    #: multi-transaction batched ``load`` calls, same-line transactions
    #: resolved without cache operations, and per-level hits inside
    #: batched calls.  All zero under the reference front end (no fast
    #: path exists there).
    mem_batches: int = 0
    mem_dedup_txns: int = 0
    mem_batch_l1_hits: int = 0
    mem_batch_l2_hits: int = 0
    #: Thread blocks re-synthesized because the launch's block-memo
    #: window (``LaunchTrace.block_memo``) had already evicted them —
    #: the per-run re-synthesis thrash of >window-block launches.  Zero
    #: when the window covers the launch (e.g. the resident traces a
    #: long-lived ``repro serve`` process keeps warm).
    block_regenerations: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


class _TraceTable:
    """Immutable per-unique-trace data, shared by every warp running it.

    ``cum[k]`` is the prefix sum of issue-to-issue deltas
    ``max(stall, 1)``: within a run of non-memory instructions starting
    at ``pc`` whose first issue happens at cycle ``t``, instruction
    ``k`` issues at ``t + cum[k] - cum[pc]`` (the event-driven
    recurrence ``T_k = max(T_{k-1} + 1, done_{k-1})`` collapses to it).
    The deltas are only ever differenced between two indices of the
    same non-memory run, so the values stored at memory positions are
    irrelevant.

    ``batchable`` is False when any non-memory instruction has a static
    stall of 0 (possible only for degenerate unvalidated traces where a
    DRAM op carries ``mem_req == 0``); such tables always take the
    per-instruction path because the prefix sum would over-charge the
    zero-stall instructions.
    """

    __slots__ = (
        "n", "stall", "cum", "pos", "pos_np", "m", "batchable", "_refs",
    )

    def __init__(self, op: np.ndarray, bb: np.ndarray, pos_np: np.ndarray):
        stall_np = STALL_CYCLES[op]
        n = len(op)
        self.n = n
        self.stall = stall_np.tolist()
        self.pos_np = pos_np
        self.pos = pos_np.tolist()
        self.m = len(self.pos)
        cum = np.empty(n + 1, dtype=np.int64)
        cum[0] = 0
        np.cumsum(np.maximum(stall_np, 1), out=cum[1:])
        self.cum = cum.tolist()
        nonmem = np.ones(n, dtype=bool)
        nonmem[pos_np] = False
        self.batchable = bool((stall_np[nonmem] >= 1).all()) if n else True
        # Keep the keyed arrays alive: the interning cache keys on
        # id(op)/id(bb), which is only sound while those objects exist.
        self._refs = (op, bb)


class _WarpState:
    """Cold per-warp state of the compact engine.

    The hot loop works on mutable *pool entries* — plain lists
    ``[ready, seq, warp, pc, stall, next_mem_pc, n, mi]`` that sort by
    ``(ready, seq)`` and are reused across re-queues (no per-issue tuple
    allocation).  This object carries everything the entry does not:
    shared :class:`_TraceTable` fields aliased by pointer copy, the
    warp's memory operands at the trace's memory positions (one row of
    the block's ``(W, m)`` matrices: O(m) list conversion per dispatch),
    and the owning thread block.
    """

    __slots__ = (
        "n", "m", "stall", "cum", "pos", "batchable",
        "mreq", "maddr", "mspread", "tb",
    )

    def __init__(self, tbl: _TraceTable, mreq, maddr, mspread, tb: "_TBState"):
        self.n = tbl.n
        self.m = tbl.m
        self.stall = tbl.stall
        self.cum = tbl.cum
        self.pos = tbl.pos
        self.batchable = tbl.batchable
        self.mreq = mreq
        self.maddr = maddr
        self.mspread = mspread
        self.tb = tb


class _LegacyWarpState:
    """Per-warp state of the per-instruction loop: dense per-warp lists.

    ``stall`` (static scoreboard stall per instruction; 0 marks
    DRAM-bound memory ops whose latency the hierarchy computes
    dynamically) and ``bb`` are shared by every warp running the same
    skeleton; ``memreq``/``addr``/``spread`` are the warp's own."""

    __slots__ = ("pc", "n", "stall", "memreq", "addr", "spread", "bb", "tb")

    def __init__(self, stall, memreq, addr, spread, bb, tb: "_TBState"):
        self.stall = stall
        self.memreq = memreq
        self.addr = addr
        self.spread = spread
        self.bb = bb
        self.pc = 0
        self.n = len(stall)
        self.tb = tb


class _TBState:
    """Mutable per-thread-block state."""

    __slots__ = ("tb_id", "live")

    def __init__(self, tb_id: int, num_warps: int):
        self.tb_id = tb_id
        self.live = num_warps


@dataclass
class UnitRecord:
    """One fixed-size sampling unit of a full simulation run."""

    start_cycle: int
    end_cycle: int
    insts: int
    bbv: np.ndarray | None = None

    @property
    def cycles(self) -> int:
        return max(1, self.end_cycle - self.start_cycle)

    @property
    def ipc(self) -> float:
        """Machine-wide IPC of the unit."""
        return self.insts / self.cycles

    @property
    def cpi(self) -> float:
        return self.cycles / self.insts


class FixedUnitRecorder:
    """Slices a run into units of ``unit_insts`` machine-wide warp
    instructions, recording per-unit IPC and (optionally) the BBV.

    This reproduces the measurement the paper's baselines need: "we
    collect IPC for every sampling unit with one million instructions"
    (Random) and "we collect the BBV and IPC for every sampling unit"
    (Ideal-SimPoint).
    """

    def __init__(self, unit_insts: int, num_bbs: int, record_bbv: bool = True):
        if unit_insts < 1:
            raise ValueError("unit_insts must be positive")
        if num_bbs < 1:
            raise ValueError("num_bbs must be positive")
        self.unit_insts = unit_insts
        self.num_bbs = num_bbs
        self.record_bbv = record_bbv
        self.units: list[UnitRecord] = []
        self._start = 0
        self.cur_bbv = np.zeros(num_bbs, dtype=np.int64)

    def flush(self, now: int, insts: int) -> np.ndarray:
        """Close the current unit at cycle ``now`` with ``insts``
        instructions and open the next one.  Returns the fresh (zeroed)
        accumulator so hot loops can rebind their local BBV view from
        the return value instead of re-reading ``cur_bbv``."""
        bbv = None
        if self.record_bbv:
            bbv = self.cur_bbv
            self.cur_bbv = np.zeros(self.num_bbs, dtype=np.int64)
        self.units.append(
            UnitRecord(start_cycle=self._start, end_cycle=now, insts=insts, bbv=bbv)
        )
        self._start = now
        return self.cur_bbv

    def finalize(self, now: int, leftover: int) -> None:
        """Close a trailing partial unit, if any instructions remain."""
        if leftover > 0:
            self.flush(now, leftover)

    @property
    def ipcs(self) -> np.ndarray:
        return np.array([u.ipc for u in self.units])

    @property
    def cpis(self) -> np.ndarray:
        return np.array([u.cpi for u in self.units])

    def bbv_matrix(self, normalize: bool = True) -> np.ndarray:
        """(num_units, num_bbs) matrix of basic-block vectors; rows are
        normalized by the unit's instruction count (Eq. 1's BBV)."""
        if not self.record_bbv:
            raise ValueError("recorder was created with record_bbv=False")
        mat = np.stack([u.bbv for u in self.units]).astype(np.float64)
        if normalize:
            totals = mat.sum(axis=1, keepdims=True)
            totals[totals == 0] = 1.0
            mat /= totals
        return mat


@dataclass
class LaunchResult:
    """Timing result of one (possibly sampled) launch simulation."""

    launch_id: int
    issued_warp_insts: int
    wall_cycles: int
    per_sm_issued: list[int]
    per_sm_busy_cycles: list[int]
    skipped_warp_insts: int = 0
    extra_cycles: float = 0.0
    mem_stats: dict = field(default_factory=dict)
    counters: SimCounters | None = None

    @property
    def machine_ipc(self) -> float:
        """Measured machine-wide IPC (issued instructions / wall cycles),
        counting only simulated work."""
        return self.issued_warp_insts / max(1, self.wall_cycles)

    @property
    def per_sm_ipc_sum(self) -> float:
        """The paper's Fig. 9 overall-IPC definition:
        sum over SMs of warp_insts_k / cycles_k."""
        return sum(
            i / c for i, c in zip(self.per_sm_issued, self.per_sm_busy_cycles) if c > 0
        )

    @property
    def total_warp_insts(self) -> int:
        """Simulated plus fast-forwarded warp instructions — equals the
        launch's functional instruction count."""
        return self.issued_warp_insts + self.skipped_warp_insts

    @property
    def est_cycles(self) -> float:
        """Estimated cycles for the whole launch: measured wall cycles
        plus the predicted time of fast-forwarded regions (Table IV)."""
        return self.wall_cycles + self.extra_cycles

    @property
    def est_ipc(self) -> float:
        """Estimated machine IPC for the whole launch."""
        return self.total_warp_insts / max(1.0, self.est_cycles)

    @property
    def sampled_fraction(self) -> float:
        """Fraction of the launch's warp instructions actually simulated
        (the Fig. 10 sample-size numerator for this launch)."""
        total = self.total_warp_insts
        return self.issued_warp_insts / total if total else 0.0


class GPUSimulator:
    """Trace-driven, event-driven multi-SM GPU timing simulator.

    ``engine`` selects the hot-loop implementation: ``"compact"`` (the
    default: the window loop, with launches that carry a recorder
    delegated to the per-instruction loop) or ``"reference"`` (the
    per-instruction loop for every launch).  ``mem_front_end``
    independently selects the memory hierarchy implementation:
    ``"fast"`` (the default batched front end) or ``"reference"`` (the
    pre-fast-path oracle).  All engine x front-end combinations produce
    bit-identical :class:`LaunchResult`\\ s; the per-instruction loop
    sets ``counters`` to ``None``.
    """

    ENGINES = ("compact", "reference")

    def __init__(
        self,
        config: GPUConfig | None = None,
        engine: str = "compact",
        mem_front_end: str = "fast",
    ):
        if engine not in self.ENGINES:
            raise ValueError(f"unknown engine {engine!r}; choose from {self.ENGINES}")
        self.config = config or GPUConfig()
        self.engine = engine
        self.mem_front_end = mem_front_end
        self.mem = make_memory(self.config, mem_front_end)
        # Simulator-lifetime trace interning (compact engine): tables
        # survive across run_launch calls, so re-simulating a launch —
        # or simulating the near-identical relaunches TBPoint's
        # inter-launch homogeneity premise expects — skips conversion
        # entirely.  Keyed by (id(op), id(bb)); each entry holds the op
        # array itself (bb is held by the table), so a live entry pins
        # its arrays and the ids cannot be recycled into stale hits.
        self._intern_cache: OrderedDict = OrderedDict()

    def run_launch(
        self,
        launch: LaunchTrace,
        sampler: DispatchSampler | None = None,
        recorder: FixedUnitRecorder | None = None,
    ) -> LaunchResult:
        """Simulate one kernel launch.

        Caches, DRAM bank state and the memory counters are reset
        first, so every launch's timing is independent of simulation
        order (required for representative-launch sampling to be
        meaningful).

        Parameters
        ----------
        launch:
            The launch trace; thread blocks are dispatched greedily in
            ID order, round-robin across SMs.
        sampler:
            Optional intra-launch sampler (TBPoint's homogeneous-region
            sampling).  ``None`` simulates everything at full speed.
        recorder:
            Optional fixed-size-unit recorder (baseline measurement).
            A recorded launch runs on the per-instruction loop.
        """
        self.mem.reset()
        if self.engine == "reference" or recorder is not None:
            # A recorder observes the global order of every instruction,
            # so the per-instruction loop is the natural engine for it.
            return self._run_launch_reference(launch, sampler, recorder)
        return self._run_launch_compact(launch, sampler)

    # ------------------------------------------------------------------
    # Compact engine: interned traces + the per-SM window loop.
    # ------------------------------------------------------------------

    def _run_launch_compact(
        self,
        launch: LaunchTrace,
        sampler: DispatchSampler | None,
    ) -> LaunchResult:
        cfg = self.config
        num_sms = cfg.num_sms
        occ = cfg.sm_occupancy(launch.warps_per_block)
        num_blocks = launch.num_blocks

        # Per-SM warp pool: a binary heap of mutable entries
        # ``[ready, seq, warp, pc, stall, stop_pc, n, mi]`` reused
        # across re-queues; ``seq`` is globally unique, so comparisons
        # never reach the warp object.  ``stop_pc`` is the next pc that
        # needs special handling — the warp's next memory instruction or
        # its final instruction, whichever comes first — so the hot loop
        # pays one comparison for both cases.
        whs: list[list] = [[] for _ in range(num_sms)]
        resident = [0] * num_sms
        per_sm_issued = [0] * num_sms
        per_sm_last = [-1] * num_sms

        # Dispatch bookkeeping (mutated by closures below).
        next_tb = 0
        dispatch_free = 0  # the global scheduler issues one block at a time
        seq_counter = 0
        specified_tb = -1
        unit_t0 = 0
        unit_i0 = 0
        issued = 0

        get_block = launch.block
        regen0 = launch.regenerations
        has_sampler = sampler is not None

        # Trace interning: unique block skeletons are keyed by the
        # identity of their (op, bb) arrays — shared across blocks by the
        # workload generator's skeleton cache — and converted to table
        # form exactly once per *simulator* (the cache lives on the
        # instance, so relaunches of the same trace skip conversion).
        # Entries are (op, table) pairs: the op reference (plus the
        # bb the table holds) pins the arrays, keeping their ids valid
        # for the cache's whole lifetime.
        intern_cache = self._intern_cache
        intern_hits = 0
        intern_misses = 0

        def make_block(block: BlockTrace, tbst: _TBState) -> list[_WarpState]:
            """Build all warp states of one thread block at once.

            The block's warps share one skeleton, so they share one
            interned table, and their memory operands are already
            gathered at the memory positions: each warp's lists are one
            row of the block's ``(W, m)`` matrices.  A warp whose DRAM
            op carries no transaction (a degenerate, unvalidated trace)
            gets a private table keyed on its actual requests.
            """
            nonlocal intern_hits, intern_misses
            op = block.op
            bb = block.bb
            nw = len(block)
            key = (id(op), id(bb))
            ent = intern_cache.get(key)
            if ent is None:
                intern_misses += 1
                intern_hits += nw - 1
                tbl = _TraceTable(op, bb, block.pos)
                intern_cache[key] = (op, tbl)
                if len(intern_cache) > _INTERN_CACHE_MAX:
                    intern_cache.popitem(last=False)
            else:
                intern_hits += nw
                tbl = ent[1]
                intern_cache.move_to_end(key)
            if not tbl.m:
                return [_WarpState(tbl, (), (), (), tbst) for _ in range(nw)]
            mem_req = block.mem_req
            if mem_req.all():
                mreqs = mem_req.tolist()
                maddrs = block.addr.tolist()
                mspreads = block.spread.tolist()
                return [
                    _WarpState(tbl, mreqs[i], maddrs[i], mspreads[i], tbst)
                    for i in range(nw)
                ]
            out = []
            for i in range(nw):
                keep = np.flatnonzero(mem_req[i])
                own = tbl
                if len(keep) < tbl.m:
                    own = _TraceTable(op, bb, tbl.pos_np[keep])
                out.append(_WarpState(
                    own,
                    mem_req[i, keep].tolist(),
                    block.addr[i, keep].tolist(),
                    block.spread[i, keep].tolist(),
                    tbst,
                ))
            return out

        def dispatch_to(si: int, now: int, issued: int) -> bool:
            """Dispatch the next non-skipped thread block to SM ``si``
            (``issued``: the exact machine-wide count the sampler sees);
            return False when the launch is exhausted."""
            nonlocal next_tb, dispatch_free, seq_counter
            nonlocal specified_tb, unit_t0, unit_i0
            while next_tb < num_blocks:
                tb_id = next_tb
                next_tb += 1
                if has_sampler and not sampler.on_dispatch(tb_id, now, issued):
                    continue  # fast-forwarded; sampler did the accounting
                # The global scheduler issues one block every few cycles,
                # and each block's warps launch back to back: dispatch is
                # serialized, which also keeps warps from running
                # phase-locked (as they would if everything started at
                # cycle 0 of the initial fill).
                start = dispatch_free if dispatch_free > now else now
                dispatch_free = start + 4
                block: BlockTrace = get_block(tb_id)
                tbst = _TBState(tb_id, len(block))
                wh = whs[si]
                r0 = start
                for w in make_block(block, tbst):
                    heappush(wh, [
                        r0, seq_counter, w, 0, w.stall,
                        w.pos[0] if w.m else w.n - 1, w.n, 0,
                    ])
                    seq_counter += 1
                    r0 += 2
                resident[si] += 1
                if has_sampler and specified_tb < 0:
                    specified_tb = tb_id
                    unit_t0 = now
                    unit_i0 = issued
                    sampler.on_unit_start(now)
                return True
            return False

        def retire_tb(tb: _TBState, si: int, now: int, issued: int) -> None:
            nonlocal specified_tb
            resident[si] -= 1
            if has_sampler:
                if tb.tb_id == specified_tb:
                    specified_tb = -1
                    sampler.on_unit_complete(
                        issued - unit_i0, max(1, now - unit_t0), now, issued
                    )
                sampler.on_retire(tb.tb_id, now, issued)
            while resident[si] < occ:
                if not dispatch_to(si, now, issued):
                    break

        # Initial greedy fill: thread blocks go to SMs round-robin.
        for _slot in range(occ):
            for si in range(num_sms):
                if not dispatch_to(si, 0, 0):
                    break

        event_heap: list = [(0, si) for si in range(num_sms) if whs[si]]

        # Hot-loop local bindings.
        mem = self.mem
        mem_load = mem.load
        pop, push = heappop, heappush
        replace = heapreplace
        bisect = bisect_left
        wall = 0

        # Counter locals (folded into SimCounters at the end).
        n_events = 0
        n_pushes = 0
        n_seg_hits = 0
        n_seg_insts = 0
        n_mem = 0
        n_txn = 0

        # One global event per SM *window*, not per instruction.  Warps
        # on one SM interact with the rest of the machine only through
        # (a) memory instructions (shared L2/DRAM state and its
        # access-order-dependent timing) and (b) thread-block
        # retirement (global dispatch bookkeeping and the sampler hooks
        # that fire there).  Everything else is private to the SM, so a
        # window simulates the SM's own warp pool in a tight local loop
        # and only defers back to the global heap when one of those
        # *barrier* instructions would run at or past the next global
        # event.  The issued/busy-cycle tallies accumulate in
        # window-local variables flushed at window end instead of per
        # instruction, and the barrier threshold is constant per window
        # (the global heap only changes at defers).  Results are
        # bit-identical to the per-instruction loop.
        #
        # Lazy ``issued``: a sampler reads ``(now, issued)`` only in hooks
        # that fire at block retirement, at the cycle-0 fill and at
        # launch end, and retirements keep global (cycle, sm) order here
        # (a retiring instruction at t >= hbar defers).  The reference
        # engine's ``issued`` at a retire at (t, si) counts every
        # instruction ordered before (t, si) plus the retiring one: the
        # flushed ``issued``, plus this window's unflushed ``wi``, minus
        # the other SMs' run-ahead at or after (t, si).  Popped event
        # times are monotone, so that run-ahead can only be the part of
        # an SM's last window at or past that window's ``hbar`` — its
        # *tail*.  With a sampler attached each window records its tail
        # (runs of back-to-back issue cycles ``(a, b)`` in ``tail_runs``,
        # segments as ``(last, t0, cum, pc, idx)`` in ``tail_segs``) and
        # ``ahead`` counts the overlap at each retire; without one the
        # record threshold ``tbar`` stays infinite and nothing is
        # written.
        #
        # Pool structure: any structure that extracts strictly in
        # (ready, seq) order yields identical results, so the choice is
        # a pure performance decision.  A round structure (a sorted list
        # consumed through a cursor, plus an unsorted spill) was
        # measured against the heap on all twelve registry kernels:
        # DRAM completion jitter preempts the round head on nearly every
        # memory return, and the heap won everywhere — 0.65-0.99x of
        # the round time (DESIGN.md §8).
        tail_runs: list[list] = [[] for _ in range(num_sms)]
        tail_segs: list[list] = [[] for _ in range(num_sms)]
        tbar = _INF

        def ahead(si: int, t: int) -> int:
            """Tail instructions ordered after (t, si) in (cycle,
            sm) order.  SM si's own tail is empty here: its retires
            run at t < hbar, before any tail entry of its window."""
            n = 0
            for sj in range(num_sms):
                thr = t if sj > si else t + 1
                for a, b in reversed(tail_runs[sj]):
                    if b <= thr:
                        break
                    n += b - (a if a > thr else thr)
                for last, t0, cum, pc, idx in reversed(tail_segs[sj]):
                    if last < thr:
                        break
                    n += idx - bisect_left(cum, cum[pc] + thr - t0, pc, idx)
            return n

        while event_heap:
            n_events += 1
            t, si = pop(event_heap)
            wh = whs[si]
            if not wh:
                continue
            # Barrier threshold: constant per window (the global
            # heap only changes at defers).  A barrier at t >= hbar
            # would run at/past the next global event, so it defers
            # and lets (cycle, sm) order decide, exactly as the
            # reference heap does.
            if event_heap:
                h = event_heap[0]
                hbar = h[0] if h[1] < si else h[0] + 1
            else:
                hbar = _INF
            if has_sampler:
                tbar = hbar
                tail_runs[si].clear()
                tail_segs[si].clear()
            wi = 0
            wlast = -1
            # Tail runs: from tbar on, every cycle in [t - wi, t)
            # issued exactly one instruction, because idle skips and
            # recorded segments flush ``wi`` (an unrecorded segment
            # ends before tbar).  So runs are written only there and
            # at window end, never per instruction.
            while True:  # issue slots within this SM's window
                e = wh[0]
                r = e[0]
                if r > t:
                    # Idle skip: flush the contiguous issue streak.
                    if wi:
                        if t > tbar:
                            tail_runs[si].append((t - wi, t))
                        issued += wi
                        per_sm_issued[si] += wi
                        wlast = t - 1
                        wi = 0
                    t = r
                pc = e[3]
                if pc == e[5]:
                    # ---- stop: next memory op or trace end -------
                    w = e[2]
                    mi = e[7]
                    if mi < w.m and w.pos[mi] == pc:
                        # Memory instruction (always a barrier).
                        if t >= hbar:
                            push(event_heap, (t, si))
                            n_pushes += 1
                            break
                        mr = w.mreq[mi]
                        done = mem_load(
                            si, w.maddr[mi], w.mspread[mi], mr, t
                        )
                        n_mem += 1
                        n_txn += mr
                        mi += 1
                        e[7] = mi
                        wi += 1
                        pc += 1
                        if pc < e[6]:
                            e[3] = pc
                            e[5] = w.pos[mi] if mi < w.m else e[6] - 1
                            e[0] = done
                            # In-place root update: if the new key
                            # stays strictly below both children
                            # (seq ties are impossible — seqs are
                            # unique), heapreplace would sift the
                            # entry straight back to the root and
                            # leave the array untouched, so skip
                            # it.  With sibling warps stalled on
                            # DRAM this is the common case.
                            n2 = len(wh)
                            if n2 > 1:
                                bound = wh[1][0]
                                if n2 > 2:
                                    b2 = wh[2][0]
                                    if b2 < bound:
                                        bound = b2
                                if done >= bound:
                                    replace(wh, e)
                            t += 1
                            continue
                        pop(wh)
                        tb = w.tb
                        tb.live -= 1
                        if tb.live == 0:
                            retire_tb(
                                tb, si, t + 1,
                                issued + wi - ahead(si, t)
                                if has_sampler else issued,
                            )
                        t += 1
                        if not wh:
                            break
                        continue
                    # Final (non-memory) instruction; a barrier only
                    # when it retires the block's last live warp.
                    tb = w.tb
                    if tb.live == 1 and t >= hbar:
                        push(event_heap, (t, si))
                        n_pushes += 1
                        break
                    pop(wh)
                    wi += 1
                    tb.live -= 1
                    if tb.live == 0:
                        retire_tb(
                            tb, si, t + 1,
                            issued + wi - ahead(si, t)
                            if has_sampler else issued,
                        )
                    t += 1
                    if not wh:
                        break
                    continue
                # ---- non-memory, non-final instruction -----------
                done = t + e[4][pc]
                pc1 = pc + 1
                # Segment bound: the pool's next-ready entry after e
                # is the smaller of the root's children (e is still
                # at the root).  The same bound doubles as the
                # in-place-root test: while the updated key stays
                # strictly below both children (seq ties impossible,
                # seqs are unique), heapreplace would return the
                # entry to the root without moving anything else,
                # so the heap is left untouched.
                n2 = len(wh)
                if n2 > 1:
                    bound = wh[1][0]
                    if n2 > 2:
                        b2 = wh[2][0]
                        if b2 < bound:
                            bound = b2
                else:
                    bound = _INF
                if done < bound:
                    w = e[2]
                    if w.batchable:
                        cum = w.cum
                        limit = e[5]
                        base = cum[pc]
                        idx = pc1
                        if idx < limit:
                            idx = bisect(
                                cum, base + bound - t, idx + 1, limit
                            )
                        u = idx - pc
                        if u >= 2:
                            n_seg_hits += 1
                            n_seg_insts += u
                            done = t + cum[idx] - base
                            e[3] = idx
                            e[0] = done
                            if done >= bound:
                                replace(wh, e)
                            last = t + cum[idx - 1] - base
                            if last >= tbar:
                                tail_runs[si].append((t - wi, t))
                                tail_segs[si].append((last, t, cum, pc, idx))
                                issued += wi + u
                                per_sm_issued[si] += wi + u
                                wlast = last
                                wi = 0
                            else:
                                wi += u
                            t = last + 1
                            continue
                    e[3] = pc1
                    e[0] = done
                    wi += 1
                    t += 1
                    continue
                e[3] = pc1
                e[0] = done
                replace(wh, e)
                wi += 1
                t += 1

            if wi:
                if t > tbar:
                    tail_runs[si].append((t - wi, t))
                issued += wi
                per_sm_issued[si] += wi
                wlast = t - 1
            if wlast >= 0:
                per_sm_last[si] = wlast
                if wlast > wall:
                    wall = wlast

        wall += 1  # the last issue occupies its cycle
        if has_sampler:
            sampler.finalize(wall, issued)

        counters = SimCounters(
            events_popped=n_events,
            heap_pushes=n_pushes,
            segment_hits=n_seg_hits,
            segment_insts=n_seg_insts,
            interning_hits=intern_hits,
            interning_misses=intern_misses,
            mem_insts=n_mem,
            mem_txns=n_txn,
            mem_batches=mem.batches,
            mem_dedup_txns=mem.dedup_txns,
            mem_batch_l1_hits=mem.batch_l1_hits,
            mem_batch_l2_hits=mem.batch_l2_hits,
            block_regenerations=launch.regenerations - regen0,
        )
        return LaunchResult(
            launch_id=launch.launch_id,
            issued_warp_insts=issued,
            wall_cycles=wall,
            per_sm_issued=per_sm_issued,
            per_sm_busy_cycles=[last + 1 for last in per_sm_last],
            skipped_warp_insts=sampler.skipped_warp_insts if has_sampler else 0,
            extra_cycles=sampler.extra_cycles if has_sampler else 0.0,
            mem_stats=self.mem.stats(),
            counters=counters,
        )

    # ------------------------------------------------------------------
    # Per-instruction loop: the equivalence oracle for the window loop,
    # and the engine of recorded launches.
    # ------------------------------------------------------------------

    def _run_launch_reference(
        self,
        launch: LaunchTrace,
        sampler: DispatchSampler | None,
        recorder: FixedUnitRecorder | None,
    ) -> LaunchResult:
        cfg = self.config
        num_sms = cfg.num_sms
        occ = cfg.sm_occupancy(launch.warps_per_block)
        num_blocks = launch.num_blocks

        wheaps: list[list] = [[] for _ in range(num_sms)]
        resident = [0] * num_sms
        per_sm_issued = [0] * num_sms
        per_sm_last = [-1] * num_sms

        # Dispatch bookkeeping (mutated by closures below).
        next_tb = 0
        dispatch_free = 0  # the global scheduler issues one block at a time
        seq_counter = 0
        specified_tb = -1
        unit_t0 = 0
        unit_i0 = 0
        issued = 0

        get_block = launch.block
        has_sampler = sampler is not None

        # Per-skeleton lists, built once per launch and shared by every
        # warp running the skeleton.  Keyed like the window loop's
        # interning cache; each entry holds op and bb to pin their ids.
        skeletons: dict = {}

        def make_block(block: BlockTrace, tbst: _TBState) -> list[_LegacyWarpState]:
            """Build all warp states of one thread block, scattering each
            warp's memory operands into dense lists."""
            op = block.op
            bb = block.bb
            key = (id(op), id(bb))
            ent = skeletons.get(key)
            if ent is None:
                ent = skeletons[key] = (
                    op, bb, STALL_CYCLES[op].tolist(), bb.tolist(),
                    [0] * len(op), block.pos.tolist(),
                )
            stall, bbs, zeros, pos = ent[2:]
            out = []
            for mreq, maddr, mspread in zip(
                block.mem_req.tolist(), block.addr.tolist(),
                block.spread.tolist(),
            ):
                memreq = zeros.copy()
                addr = zeros.copy()
                spread = zeros.copy()
                for p, r, a, d in zip(pos, mreq, maddr, mspread):
                    memreq[p] = r
                    addr[p] = a
                    spread[p] = d
                out.append(
                    _LegacyWarpState(stall, memreq, addr, spread, bbs, tbst)
                )
            return out

        def dispatch_to(si: int, now: int) -> bool:
            """Dispatch the next non-skipped thread block to SM ``si``;
            return False when the launch is exhausted."""
            nonlocal next_tb, dispatch_free, seq_counter
            nonlocal specified_tb, unit_t0, unit_i0
            while next_tb < num_blocks:
                tb_id = next_tb
                next_tb += 1
                if has_sampler and not sampler.on_dispatch(tb_id, now, issued):
                    continue  # fast-forwarded; sampler did the accounting
                # The global scheduler issues one block every few cycles,
                # and each block's warps launch back to back: dispatch is
                # serialized, which also keeps warps from running
                # phase-locked (as they would if everything started at
                # cycle 0 of the initial fill).
                start = dispatch_free if dispatch_free > now else now
                dispatch_free = start + 4
                block: BlockTrace = get_block(tb_id)
                tbst = _TBState(tb_id, len(block))
                wh = wheaps[si]
                for stagger, w in enumerate(make_block(block, tbst)):
                    heappush(wh, (start + 2 * stagger, seq_counter, w))
                    seq_counter += 1
                resident[si] += 1
                if has_sampler and specified_tb < 0:
                    specified_tb = tb_id
                    unit_t0 = now
                    unit_i0 = issued
                    sampler.on_unit_start(now)
                return True
            return False

        def retire_tb(tb: _TBState, si: int, now: int) -> None:
            nonlocal specified_tb
            resident[si] -= 1
            if has_sampler:
                if tb.tb_id == specified_tb:
                    specified_tb = -1
                    sampler.on_unit_complete(
                        issued - unit_i0, max(1, now - unit_t0), now, issued
                    )
                sampler.on_retire(tb.tb_id, now, issued)
            while resident[si] < occ:
                if not dispatch_to(si, now):
                    break

        # Initial greedy fill: thread blocks go to SMs round-robin.
        for _slot in range(occ):
            for si in range(num_sms):
                if not dispatch_to(si, 0):
                    break

        event_heap: list = []
        for si in range(num_sms):
            if wheaps[si]:
                heappush(event_heap, (0, si))

        # Hot-loop local bindings.
        mem_load = self.mem.load
        pop, push = heappop, heappush
        rec = recorder
        rec_on = rec is not None
        if rec_on:
            rec_bbv = rec.cur_bbv
            rec_left = rec.unit_insts
        wall = 0

        while event_heap:
            t, si = pop(event_heap)
            wh = wheaps[si]
            if not wh:
                continue
            r, seq, w = pop(wh)
            if r > t:
                # Composition changed since this slot was scheduled.
                push(wh, (r, seq, w))
                push(event_heap, (r, si))
                continue
            pc = w.pc
            mr = w.memreq[pc]
            if mr:
                done = mem_load(si, w.addr[pc], w.spread[pc], mr, t)
            else:
                done = t + w.stall[pc]
            issued += 1
            per_sm_issued[si] += 1
            per_sm_last[si] = t
            if t > wall:
                wall = t
            if rec_on:
                rec_bbv[w.bb[pc]] += 1
                rec_left -= 1
                if rec_left == 0:
                    rec.flush(t + 1, rec.unit_insts)
                    rec_bbv = rec.cur_bbv
                    rec_left = rec.unit_insts
            pc += 1
            if pc < w.n:
                w.pc = pc
                push(wh, (done, seq, w))
            else:
                tb = w.tb
                tb.live -= 1
                if tb.live == 0:
                    retire_tb(tb, si, t + 1)
            if wh:
                nt = wh[0][0]
                tp1 = t + 1
                push(event_heap, (nt if nt > tp1 else tp1, si))

        wall += 1  # the last issue occupies its cycle
        if has_sampler:
            sampler.finalize(wall, issued)
        if rec_on:
            rec.finalize(wall, rec.unit_insts - rec_left)

        return LaunchResult(
            launch_id=launch.launch_id,
            issued_warp_insts=issued,
            wall_cycles=wall,
            per_sm_issued=per_sm_issued,
            per_sm_busy_cycles=[last + 1 for last in per_sm_last],
            skipped_warp_insts=sampler.skipped_warp_insts if has_sampler else 0,
            extra_cycles=sampler.extra_cycles if has_sampler else 0.0,
            mem_stats=self.mem.stats(),
        )


__all__ = [
    "GPUSimulator",
    "LaunchResult",
    "FixedUnitRecorder",
    "UnitRecord",
    "SimCounters",
]
