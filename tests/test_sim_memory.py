"""Tests for the memory-hierarchy front end."""

import pytest

from repro.config import GPUConfig
from repro.sim.memory import MemoryHierarchy, ReferenceMemoryHierarchy


@pytest.fixture(
    params=[MemoryHierarchy, ReferenceMemoryHierarchy],
    ids=["fast", "reference"],
)
def tiny_hierarchy(request):
    """Both front ends must satisfy the same behavioural contract
    (bit-identity between them is proven separately in
    test_sim_memory_fastpath.py)."""
    cfg = GPUConfig(
        num_sms=2,
        l1_kib=1,
        l2_kib=16,
        l1_latency=10,
        l2_latency=50,
        dram_latency=100,
        dram_row_miss_penalty=40,
        dram_service=8,
        dram_channels=2,
        dram_banks=2,
    )
    return request.param(cfg), cfg


class TestMemoryHierarchy:
    def test_miss_then_l1_hit(self, tiny_hierarchy):
        mem, cfg = tiny_hierarchy
        first = mem.load(0, addr=0, spread=0, num_req=1, now=0)
        assert first > cfg.l1_latency  # went to DRAM
        second = mem.load(0, addr=0, spread=0, num_req=1, now=1000)
        assert second == 1000 + cfg.l1_latency

    def test_l1s_are_private_l2_is_shared(self, tiny_hierarchy):
        mem, cfg = tiny_hierarchy
        mem.load(0, addr=0, spread=0, num_req=1, now=0)
        # Other SM misses its L1 but hits the shared L2.
        done = mem.load(1, addr=0, spread=0, num_req=1, now=1000)
        assert done == 1000 + cfg.l2_latency

    def test_multi_transaction_takes_slowest(self, tiny_hierarchy):
        mem, cfg = tiny_hierarchy
        mem.load(0, addr=0, spread=0, num_req=1, now=0)  # warm line 0
        # One warm line + one cold line: completion bound by the miss.
        done = mem.load(0, addr=0, spread=4096, num_req=2, now=1000)
        assert done > 1000 + cfg.l1_latency

    def test_transactions_walk_spread(self, tiny_hierarchy):
        mem, _ = tiny_hierarchy
        mem.load(0, addr=0, spread=128, num_req=4, now=0)
        # All four lines now L1-resident.
        l1 = mem.l1s[0]
        assert l1.contains(0) and l1.contains(128)
        assert l1.contains(256) and l1.contains(384)

    def test_reset_clears_everything(self, tiny_hierarchy):
        mem, cfg = tiny_hierarchy
        mem.load(0, addr=0, spread=0, num_req=1, now=0)
        mem.reset()
        stats = mem.stats()
        assert stats["dram_requests"] == 0
        done = mem.load(0, addr=0, spread=0, num_req=1, now=0)
        assert done > cfg.l2_latency  # cold again

    def test_reset_zeroes_every_counter(self, tiny_hierarchy):
        """Reset zeroes the fast-path counters and every level's own
        statistics, on both front ends."""
        mem, _ = tiny_hierarchy
        for now in (0, 1_000):
            mem.load(0, addr=0, spread=32, num_req=8, now=now)
            mem.load(1, addr=4096, spread=128, num_req=4, now=now)
        assert mem.l1s[0].hits > 0 and mem.dram.requests > 0
        mem.reset()
        counters = (
            mem.batches, mem.dedup_txns, mem.batch_l1_hits, mem.batch_l2_hits,
        )
        assert counters == (0, 0, 0, 0)
        for cache in (*mem.l1s, mem.l2):
            assert cache.accesses == 0 and cache.occupancy == 0
        assert mem.dram.requests == 0 and mem.dram.row_hits == 0

    def test_stats_keys(self, tiny_hierarchy):
        mem, _ = tiny_hierarchy
        mem.load(0, addr=0, spread=0, num_req=1, now=0)
        stats = mem.stats()
        for key in (
            "l1_hit_rate",
            "l2_hit_rate",
            "dram_requests",
            "dram_row_hit_rate",
            "dram_mean_queue_delay",
        ):
            assert key in stats

    def test_completion_never_before_l1_latency(self, tiny_hierarchy):
        mem, cfg = tiny_hierarchy
        for i in range(20):
            done = mem.load(0, addr=i * 128, spread=0, num_req=1, now=i * 7)
            assert done >= i * 7 + cfg.l1_latency
