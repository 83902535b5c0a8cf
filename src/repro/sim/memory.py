"""Memory hierarchy front end: per-SM L1s -> shared L2 -> DRAM.

One warp memory *instruction* expands to ``mem_req`` line transactions
(its post-coalescing transaction count from the trace); the warp's stall
ends when the slowest transaction completes, matching the
all-lanes-must-return semantics of a SIMT load.

Two front ends share one ``load`` API and are bit-identical in timing,
cache/DRAM state and statistics:

* :class:`MemoryHierarchy` (the default) — the batched fast path: one
  ``load`` entry point for any transaction count, cache operations
  inlined against the LRU dicts with prebound ``move_to_end``/``popitem``
  (no per-transaction ``access`` method calls), a single-transaction
  L1-hit shortcut, per-instruction same-line transaction dedup, and
  DRAM misses drained through :meth:`DRAMModel.access_n` in one batch
  per instruction.  Hit/miss counters accumulate in locals and flush
  once per warp instruction.
* :class:`ReferenceMemoryHierarchy` — the pre-fast-path implementation
  (nested per-transaction ``access`` method calls), kept in-tree as
  the equivalence oracle; property tests drive random
  ``(addr, spread, num_req)`` sequences through both and assert
  identical completion times, cache contents, LRU orders, DRAM state
  and statistics (``tests/test_sim_memory_fastpath.py``).

Both front ends share :class:`~repro.sim.caches.LRUCache` storage
(``OrderedDict``; see caches.py for why the plain-dict alternative was
measured and rejected), so their cache *state* is identical by
construction — the property tests pin down the timing, statistics and
DRAM interleaving of the batched path.

Dedup soundness: after any transaction touches L1 line ``L`` (hit or
miss), ``L`` is resident and most-recently-used.  A *consecutive*
transaction of the same instruction mapping to the same ``L`` is then
necessarily an L1 hit whose ``move_to_end`` is the identity and whose
completion time is the instruction's L1 floor — so it can be resolved
by bumping the hit counter alone, with no cache operation.  Only
consecutive same-line transactions are deduplicated; a same-line
transaction arriving after an intervening different line still takes
the full path (its recency update is observable).
"""

from __future__ import annotations

from repro.config import GPUConfig
from repro.sim.caches import LRUCache
from repro.sim.dram import DRAMModel


class MemoryHierarchy:
    """L1-per-SM / shared-L2 / DRAM hierarchy (Table V geometry) —
    batched fast path.

    ``batches`` / ``dedup_txns`` / ``batch_l1_hits`` / ``batch_l2_hits``
    count fast-path engagement (multi-transaction instructions, same-line
    transactions resolved without cache operations, and per-level hits
    inside the batched path); :meth:`reset` zeroes them at the start of
    every launch and the compact engine copies them into
    :class:`~repro.sim.gpu.SimCounters` at its end, so benchmarks can
    verify the fast paths actually ran.
    """

    FRONT_END = "fast"

    __slots__ = (
        "config", "l1s", "l2", "dram", "l1_latency", "l2_latency",
        "batches", "dedup_txns", "batch_l1_hits", "batch_l2_hits",
        # Flattened hot references (see _flatten): one slot lookup each
        # instead of an attribute chain per transaction.
        "_sm", "_l1_shift", "_l1_cap",
        "_l2_lines", "_l2_move", "_l2_evict", "_l2_shift", "_l2_cap",
        "_dram_free", "_dram_rows", "_bank_mask", "_num_banks",
        "_dram_line_shift", "_row_shift", "_dram_base", "_row_miss",
        "_service", "_jitter",
    )

    def __init__(self, config: GPUConfig):
        self.config = config
        self.l1s = [
            LRUCache(config.l1_kib * 1024, config.l1_line)
            for _ in range(config.num_sms)
        ]
        self.l2 = LRUCache(config.l2_kib * 1024, config.l2_line)
        self.dram = DRAMModel(config)
        self.l1_latency = config.l1_latency
        self.l2_latency = config.l2_latency
        self.batches = 0
        self.dedup_txns = 0
        self.batch_l1_hits = 0
        self.batch_l2_hits = 0
        self._flatten()

    def _flatten(self) -> None:
        """Cache flat references to the hot per-level state.

        The container objects these point into are mutated in place by
        ``reset`` (dict ``clear``, list slice assignment), never
        rebound, so the references stay valid for the hierarchy's
        lifetime.  Statistics counters and the DRAM jitter state are
        deliberately *not* flattened — they live on the level objects
        (``LRUCache.hits`` ..., ``DRAMModel.requests`` ...) as the
        single source of truth the oracle and the property tests read.
        """
        self._sm = [
            (c._lines, c._lines.move_to_end, c._lines.popitem, c)
            for c in self.l1s
        ]
        self._l1_shift = self.l1s[0].line_shift
        self._l1_cap = self.l1s[0].num_lines
        l2 = self.l2
        self._l2_lines = l2._lines
        self._l2_move = l2._lines.move_to_end
        self._l2_evict = l2._lines.popitem
        self._l2_cap = l2.num_lines
        self._l2_shift = l2.line_shift
        dram = self.dram
        self._dram_free = dram.free_at
        self._dram_rows = dram.open_row
        self._bank_mask = dram.bank_mask
        self._num_banks = dram.num_banks
        self._dram_line_shift = dram.line_shift
        self._row_shift = dram.row_shift
        self._dram_base = dram.base_latency
        self._row_miss = dram.row_miss_penalty
        self._service = dram.service
        self._jitter = dram.jitter

    def load(self, sm_id: int, addr: int, spread: int, num_req: int, now: int) -> int:
        """Perform one warp memory instruction's ``num_req`` transactions
        starting at ``addr`` with byte ``spread`` between them; return
        the completion time of the slowest transaction (floored at the
        L1 latency, the all-lanes-return time of a fully L1-resident
        access)."""
        l1_lines, l1_move, l1_evict, l1 = self._sm[sm_id]
        line = addr >> self._l1_shift
        l1_done = now + self.l1_latency
        if num_req == 1:
            # Fully specialized single-transaction path (the dominant
            # call shape for unit-stride kernels): no batch-local
            # hoisting, no DRAM address list, straight-line level walk,
            # and the DRAM access inlined (bit-identical to
            # :meth:`DRAMModel.access`, including the jitter LCG
            # stream; the property tests hold this duplicate to the
            # oracle).  Completion times need no ``max`` with the L1
            # floor — every deeper level's latency exceeds the L1's.
            if line in l1_lines:
                l1_move(line)
                l1.hits += 1
                return l1_done
            l1_lines[line] = None
            if len(l1_lines) > self._l1_cap:
                l1_evict(False)
            l1.misses += 1
            l2_lines = self._l2_lines
            l2_line = addr >> self._l2_shift
            if l2_line in l2_lines:
                self._l2_move(l2_line)
                self.l2.hits += 1
                return now + self.l2_latency
            l2_lines[l2_line] = None
            if len(l2_lines) > self._l2_cap:
                self._l2_evict(False)
            self.l2.misses += 1
            dram = self.dram
            dline = addr >> self._dram_line_shift
            mask = self._bank_mask
            bank = dline & mask if mask else dline % self._num_banks
            free_at = self._dram_free
            free = free_at[bank]
            start = free if free > now else now
            latency = self._dram_base
            jitter = self._jitter
            if jitter:
                state = (
                    dram._jitter_state * 1103515245 + 12345
                ) & 0x7FFFFFFF
                dram._jitter_state = state
                latency += (state >> 16) % jitter
            rows = self._dram_rows
            row = addr >> self._row_shift
            if rows[bank] == row:
                dram.row_hits += 1
            else:
                latency += self._row_miss
                rows[bank] = row
            free_at[bank] = start + self._service
            dram.requests += 1
            dram.total_queue_cycles += start - now
            return start + latency + self.l1_latency
        # General batched path: multi-transaction instructions.
        # Everything is hoisted into locals once per instruction —
        # including the bound ``move_to_end`` / ``popitem`` methods, so
        # per-transaction cache operations are single C calls;
        # statistics flush once at the end; DRAM misses are collected
        # and drained in one ``access_n`` batch.
        l2 = self.l2
        l2_lines = self._l2_lines
        l2_move = self._l2_move
        l2_evict = self._l2_evict
        l2_cap = self._l2_cap
        l1_shift = self._l1_shift
        l1_cap = self._l1_cap
        l2_shift = self._l2_shift
        l2_done = now + self.l2_latency
        worst = l1_done
        a = addr
        prev_line = -1  # no real line is negative: addresses are >= 0
        l1_hits = 0
        l1_misses = 0
        l2_hits = 0
        l2_misses = 0
        dedup = 0
        dram_addrs = None
        for _ in range(num_req):
            line = a >> l1_shift
            if line == prev_line:
                # Consecutive same-line transaction: provably an L1 hit
                # at the instruction's L1 floor with an identity recency
                # update (see module docstring) — no cache operation.
                dedup += 1
                l1_hits += 1
                a += spread
                continue
            prev_line = line
            if line in l1_lines:
                l1_move(line)
                l1_hits += 1
                # done == l1_done == the floor: never raises ``worst``.
            else:
                l1_lines[line] = None
                if len(l1_lines) > l1_cap:
                    l1_evict(False)
                l1_misses += 1
                l2_line = a >> l2_shift
                if l2_line in l2_lines:
                    l2_move(l2_line)
                    l2_hits += 1
                    if l2_done > worst:
                        worst = l2_done
                else:
                    l2_lines[l2_line] = None
                    if len(l2_lines) > l2_cap:
                        l2_evict(False)
                    l2_misses += 1
                    if dram_addrs is None:
                        # Allocated at most once per *instruction*
                        # (on the first DRAM miss), not per
                        # transaction.
                        dram_addrs = [a]
                    else:
                        dram_addrs.append(a)
            a += spread
        if dram_addrs is not None:
            done = self.dram.access_n(dram_addrs, now) + self.l1_latency
            if done > worst:
                worst = done
        l1.hits += l1_hits
        l1.misses += l1_misses
        if l1_misses:
            l2.hits += l2_hits
            l2.misses += l2_misses
        self.batches += 1
        self.dedup_txns += dedup
        self.batch_l1_hits += l1_hits
        self.batch_l2_hits += l2_hits
        return worst

    def reset(self) -> None:
        """Invalidate all caches and DRAM bank state and zero every
        counter (between launches, so every launch's timing is
        independent of simulation order — a prerequisite for simulating
        only representative launches)."""
        for l1 in self.l1s:
            l1.reset()
        self.l2.reset()
        self.dram.reset()
        self.batches = 0
        self.dedup_txns = 0
        self.batch_l1_hits = 0
        self.batch_l2_hits = 0

    def stats(self) -> dict:
        """Aggregate hierarchy statistics."""
        l1_hits = sum(c.hits for c in self.l1s)
        l1_total = sum(c.accesses for c in self.l1s)
        return {
            "l1_hit_rate": l1_hits / l1_total if l1_total else 0.0,
            "l2_hit_rate": self.l2.hit_rate,
            "dram_requests": self.dram.requests,
            "dram_row_hit_rate": self.dram.row_hit_rate,
            "dram_mean_queue_delay": self.dram.mean_queue_delay,
        }


class ReferenceMemoryHierarchy:
    """The pre-fast-path front end, kept as the equivalence oracle.

    One nested ``access`` method call per level per transaction —
    exactly the implementation the fast path replaced.  Carries the
    same fast-path counters so the window loop reads either front
    end's counters the same way (they stay 0 here, which is truthful:
    no fast path ever engages).
    """

    FRONT_END = "reference"

    __slots__ = (
        "config", "l1s", "l2", "dram", "l1_latency", "l2_latency",
        "batches", "dedup_txns", "batch_l1_hits", "batch_l2_hits",
    )

    def __init__(self, config: GPUConfig):
        self.config = config
        self.l1s = [
            LRUCache(config.l1_kib * 1024, config.l1_line)
            for _ in range(config.num_sms)
        ]
        self.l2 = LRUCache(config.l2_kib * 1024, config.l2_line)
        self.dram = DRAMModel(config)
        self.l1_latency = config.l1_latency
        self.l2_latency = config.l2_latency
        self.batches = 0
        self.dedup_txns = 0
        self.batch_l1_hits = 0
        self.batch_l2_hits = 0

    def load(self, sm_id: int, addr: int, spread: int, num_req: int, now: int) -> int:
        """Per-transaction reference path: one nested ``access`` call
        per level per transaction."""
        l1 = self.l1s[sm_id]
        l2 = self.l2
        dram = self.dram
        l1_done = now + self.l1_latency
        l2_done = now + self.l2_latency
        worst = l1_done
        a = addr
        for _ in range(num_req):
            if l1.access(a):
                done = l1_done
            elif l2.access(a):
                done = l2_done
            else:
                done = dram.access(a, now) + self.l1_latency
            if done > worst:
                worst = done
            a += spread
        return worst

    reset = MemoryHierarchy.reset
    stats = MemoryHierarchy.stats


#: Front-end registry used by :class:`~repro.sim.gpu.GPUSimulator`.
MEMORY_FRONT_ENDS = {
    "fast": MemoryHierarchy,
    "reference": ReferenceMemoryHierarchy,
}


def make_memory(config: GPUConfig, front_end: str = "fast"):
    """Build a memory front end by name (``"fast"`` / ``"reference"``)."""
    try:
        cls = MEMORY_FRONT_ENDS[front_end]
    except KeyError:
        raise ValueError(
            f"unknown memory front end {front_end!r}; "
            f"choose from {tuple(MEMORY_FRONT_ENDS)}"
        ) from None
    return cls(config)


__all__ = [
    "MemoryHierarchy",
    "ReferenceMemoryHierarchy",
    "MEMORY_FRONT_ENDS",
    "make_memory",
]
