"""Equivalence proofs for the batched fast front end.

The fast front end (:class:`repro.sim.memory.MemoryHierarchy`) must be
bit-identical — timing, cache contents and LRU order, DRAM bank state,
jitter stream, statistics — to the reference front end
(:class:`repro.sim.memory.ReferenceMemoryHierarchy`), which preserves
the pre-fast-path per-transaction implementation as the oracle.  These
tests drive randomized ``(sm_id, addr, spread, num_req)`` sequences
through both and compare *all* observable state, then do the same at
the system level across the engine x front-end grid on real kernels.

This is also where the former ``load``/``load1`` duplication hazard is
pinned down: there is exactly one fast ``load`` entry point for every
transaction count, and its single-transaction specialization (including
the inlined DRAM access) is held to the oracle here.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import GPUConfig
from repro.sim.dram import DRAMModel
from repro.sim.gpu import GPUSimulator
from repro.sim.memory import (
    MEMORY_FRONT_ENDS,
    MemoryHierarchy,
    ReferenceMemoryHierarchy,
    make_memory,
)


def tiny_config(**overrides) -> GPUConfig:
    """Small caches so random streams exercise eviction constantly."""
    base = dict(
        num_sms=3,
        l1_kib=1,          # 8 lines of 128 B
        l2_kib=4,          # 32 lines
        l1_latency=10,
        l2_latency=50,
        dram_latency=100,
        dram_row_miss_penalty=40,
        dram_service=8,
        dram_channels=3,   # 3 * 4 = 12 banks: the modulo path
        dram_banks=4,
    )
    base.update(overrides)
    return GPUConfig(**base)


def hierarchy_state(mem):
    """Every observable of a front end, LRU order included."""
    return {
        "l1_lines": [c.lru_lines() for c in mem.l1s],
        "l1_stats": [(c.hits, c.misses) for c in mem.l1s],
        "l2_lines": mem.l2.lru_lines(),
        "l2_stats": (mem.l2.hits, mem.l2.misses),
        "dram": (
            list(mem.dram.free_at),
            list(mem.dram.open_row),
            mem.dram.requests,
            mem.dram.row_hits,
            mem.dram.total_queue_cycles,
            mem.dram._jitter_state,
        ),
        "stats": mem.stats(),
    }


# One warp memory instruction: transactions start at ``addr`` and walk
# ``spread`` bytes apart.  Spreads below the 128-byte line exercise the
# consecutive same-line dedup; spread 0 is the fully-converged case.
instructions = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),        # sm_id
        st.integers(min_value=0, max_value=1 << 20),  # addr
        st.sampled_from([0, 4, 64, 128, 256, 4096]),  # spread
        st.integers(min_value=1, max_value=32),       # num_req
        st.integers(min_value=0, max_value=50),       # time delta
    ),
    min_size=1,
    max_size=200,
)


#: The geometry axis of the equivalence grid: overrides on top of
#: :func:`tiny_config` that move the fast path onto different branches —
#: jitter-free DRAM (the LCG stream stays untouched), L1 and L2 lines
#: of different sizes (the two levels no longer share one line index),
#: and an L2 large enough that the stream almost never evicts from it.
GEOMETRIES = {
    "tiny": {},
    "no_jitter": {"dram_jitter": 0},
    "split_lines": {"l1_line": 64, "l2_line": 256},
    "roomy_l2": {"l2_kib": 64},
}


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
@pytest.mark.parametrize("front_end", ["fast", "reference"])
class TestFrontEndEquivalence:
    """Front-end x geometry differential battery: every registered
    front end, under every geometry, is held to the reference oracle on
    the same random instruction streams.  (``reference`` vs a second
    ``reference`` instance is the trivial row; it keeps the grid total
    and guards the oracle's own determinism.)"""

    @settings(max_examples=60, deadline=None)
    @given(seq=instructions)
    def test_matches_reference(self, front_end, geometry, seq):
        cfg = tiny_config(**GEOMETRIES[geometry])
        mem = make_memory(cfg, front_end)
        ref = ReferenceMemoryHierarchy(cfg)
        now = 0
        for sm_id, addr, spread, num_req, dt in seq:
            now += dt
            got = mem.load(sm_id, addr, spread, num_req, now)
            want = ref.load(sm_id, addr, spread, num_req, now)
            assert got == want
        assert hierarchy_state(mem) == hierarchy_state(ref)

    @settings(max_examples=30, deadline=None)
    @given(seq=instructions)
    def test_power_of_two_banks_take_mask_path(self, front_end, geometry, seq):
        # 2 * 4 = 8 banks: the DRAM model precomputes a bank mask and
        # the line-to-bank map becomes an AND; results must not change.
        cfg = tiny_config(
            **{**GEOMETRIES[geometry], "dram_channels": 2, "dram_banks": 4}
        )
        mem = make_memory(cfg, front_end)
        ref = ReferenceMemoryHierarchy(cfg)
        assert mem.dram.bank_mask == 7
        now = 0
        for sm_id, addr, spread, num_req, dt in seq:
            now += dt
            assert mem.load(sm_id, addr, spread, num_req, now) == ref.load(
                sm_id, addr, spread, num_req, now
            )
        assert hierarchy_state(mem) == hierarchy_state(ref)

    @settings(max_examples=30, deadline=None)
    @given(seq=instructions)
    def test_equivalence_survives_reset(self, front_end, geometry, seq):
        # The fast path keeps flat references into cache/DRAM state;
        # reset() must invalidate contents without stranding them.
        cfg = tiny_config(**GEOMETRIES[geometry])
        mem = make_memory(cfg, front_end)
        ref = ReferenceMemoryHierarchy(cfg)
        half = len(seq) // 2
        now = 0
        for sm_id, addr, spread, num_req, dt in seq[:half]:
            now += dt
            mem.load(sm_id, addr, spread, num_req, now)
            ref.load(sm_id, addr, spread, num_req, now)
        mem.reset()
        ref.reset()
        now = 0
        for sm_id, addr, spread, num_req, dt in seq[half:]:
            now += dt
            assert mem.load(sm_id, addr, spread, num_req, now) == ref.load(
                sm_id, addr, spread, num_req, now
            )
        assert hierarchy_state(mem) == hierarchy_state(ref)

    @settings(max_examples=40, deadline=None)
    @given(seq=instructions)
    def test_batched_load_matches_sequential_singles(self, front_end, geometry, seq):
        # Batched-vs-sequential: one n-transaction ``load`` must equal
        # the max over n single-transaction loads of the expanded
        # addresses at the same ``now``, and leave identical hierarchy
        # state — the defining decomposition of the batch semantics.
        cfg = tiny_config(**GEOMETRIES[geometry])
        mem = make_memory(cfg, front_end)
        ref = ReferenceMemoryHierarchy(cfg)
        now = 0
        for sm_id, addr, spread, num_req, dt in seq:
            now += dt
            got = mem.load(sm_id, addr, spread, num_req, now)
            want = max(
                ref.load(sm_id, addr + k * spread, 0, 1, now)
                for k in range(num_req)
            )
            assert got == want
        assert hierarchy_state(mem) == hierarchy_state(ref)

    def test_single_transaction_path_matches_batch_of_one(self, front_end, geometry):
        # The num_req == 1 specialization against the oracle, level by
        # level: DRAM miss, L2 hit (other SM), then L1 hit.
        cfg = tiny_config(**GEOMETRIES[geometry])
        mem = make_memory(cfg, front_end)
        ref = ReferenceMemoryHierarchy(cfg)
        for sm_id, now in ((0, 0), (1, 100), (0, 200)):
            assert mem.load(sm_id, 512, 0, 1, now) == ref.load(
                sm_id, 512, 0, 1, now
            )
        assert hierarchy_state(mem) == hierarchy_state(ref)


@pytest.mark.parametrize("front_end", ["fast"])
class TestBatchCounterParity:
    """The batch engagement counters (``batches`` / ``dedup_txns`` /
    ``batch_l1_hits`` / ``batch_l2_hits``) follow the fast path's
    documented semantics and are deterministic."""

    def test_dedup_counts_only_consecutive_same_line(self, front_end):
        cfg = tiny_config()
        mem = make_memory(cfg, front_end)
        ref = ReferenceMemoryHierarchy(cfg)
        # 8 transactions 4 bytes apart: all in line 0 -> 7 dedups.
        assert mem.load(0, 0, 4, 8, 0) == ref.load(0, 0, 4, 8, 0)
        assert mem.dedup_txns == 7
        # Alternating lines never deduplicate (recency updates are
        # observable), even though every line repeats.
        mem2 = make_memory(cfg, front_end)
        ref2 = ReferenceMemoryHierarchy(cfg)
        for addr in (0, 128, 0, 128):
            assert mem2.load(0, addr, 256, 2, 10) == ref2.load(
                0, addr, 256, 2, 10
            )
        assert mem2.dedup_txns == 0
        assert hierarchy_state(mem2) == hierarchy_state(ref2)

    @settings(max_examples=30, deadline=None)
    @given(seq=instructions)
    def test_counters_match_fast(self, front_end, seq):
        cfg = tiny_config()
        mem = make_memory(cfg, front_end)
        fast = MemoryHierarchy(cfg)
        now = 0
        for sm_id, addr, spread, num_req, dt in seq:
            now += dt
            assert mem.load(sm_id, addr, spread, num_req, now) == fast.load(
                sm_id, addr, spread, num_req, now
            )
        assert (
            mem.batches, mem.dedup_txns, mem.batch_l1_hits, mem.batch_l2_hits
        ) == (
            fast.batches, fast.dedup_txns,
            fast.batch_l1_hits, fast.batch_l2_hits,
        )


def test_registry():
    # The oracle grids iterate these registries; pinning them here keeps
    # a grid from silently shrinking.
    assert set(MEMORY_FRONT_ENDS) == {"fast", "reference"}
    assert set(GPUSimulator.ENGINES) == {"compact", "reference"}
    cfg = tiny_config()
    assert isinstance(make_memory(cfg), MemoryHierarchy)
    assert isinstance(
        make_memory(cfg, "reference"), ReferenceMemoryHierarchy
    )
    with pytest.raises(ValueError, match="unknown memory front end"):
        make_memory(cfg, "turbo")


class TestDRAMBatchEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        addrs=st.lists(
            st.integers(min_value=0, max_value=1 << 20), min_size=1,
            max_size=40,
        ),
        now=st.integers(min_value=0, max_value=10_000),
    )
    def test_access_n_matches_sequential_access(self, addrs, now):
        cfg = tiny_config()
        a = DRAMModel(cfg)
        b = DRAMModel(cfg)
        worst = max(a.access(addr, now) for addr in addrs)
        assert b.access_n(addrs, now) == worst
        assert list(a.free_at) == list(b.free_at)
        assert list(a.open_row) == list(b.open_row)
        assert (a.requests, a.row_hits, a.total_queue_cycles) == (
            b.requests, b.row_hits, b.total_queue_cycles
        )
        assert a._jitter_state == b._jitter_state


def _fingerprint(result):
    return (
        result.issued_warp_insts,
        result.wall_cycles,
        tuple(result.per_sm_issued),
        tuple(result.per_sm_busy_cycles),
        result.skipped_warp_insts,
        result.extra_cycles,
        tuple(sorted(result.mem_stats.items())),
    )


@pytest.mark.parametrize(
    "kernel", ["spmv", "lbm", "stream", "cfd", "kmeans", "bfs", "sssp", "mst"]
)
def test_engine_front_end_grid_bit_identical(kernel):
    """System-level closure: every engine x front-end combination
    yields the same LaunchResults on real kernels: the Table VI irregular
    spmv, bfs, sssp and mst and the regular lbm, stream, cfd and
    kmeans.  The grid is read from the registries, so a newly
    registered engine or front end joins it by construction."""
    from repro.workloads import get_workload

    launches = get_workload(kernel, scale=0.0625).launches[:2]
    prints = set()
    cfg = GPUConfig()
    for engine in GPUSimulator.ENGINES:
        for front_end in MEMORY_FRONT_ENDS:
            sim = GPUSimulator(cfg, engine=engine, mem_front_end=front_end)
            prints.add(
                tuple(_fingerprint(sim.run_launch(l)) for l in launches)
            )
    assert len(prints) == 1
