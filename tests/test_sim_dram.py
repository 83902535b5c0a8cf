"""Tests for the DRAM model.

The contract tests run on two bank geometries: 4 banks, where the
line-to-bank map is an AND with a precomputed mask, and 6 banks, where
it is a modulo.
"""

import pytest

from repro.config import GPUConfig
from repro.sim.dram import DRAMModel

#: (dram_channels, dram_banks) per bank-map path.
BANK_GEOMETRIES = {"mask4": (2, 2), "modulo6": (3, 2)}


@pytest.fixture(params=sorted(BANK_GEOMETRIES))
def geometry(request):
    return BANK_GEOMETRIES[request.param]


def make_dram(geometry=(2, 2), **over):
    channels, banks = geometry
    cfg = GPUConfig(
        dram_channels=channels, dram_banks=banks, dram_latency=100,
        dram_row_miss_penalty=50, dram_service=10, dram_jitter=0,
    ).with_(**over)
    return DRAMModel(cfg)


def test_bank_mask_only_for_power_of_two_bank_counts():
    assert make_dram((2, 2)).bank_mask == 3
    assert make_dram((2, 4)).bank_mask == 7
    # Zero means "take the modulo path": 6 banks, and the single bank
    # whose mask would be 0 anyway.
    assert make_dram((3, 2)).bank_mask == 0
    assert make_dram((1, 1)).bank_mask == 0


class TestDRAM:
    def test_first_access_is_row_miss(self, geometry):
        d = make_dram(geometry)
        done = d.access(0, now=0)
        assert done == 150  # base + row-miss penalty
        assert d.row_hits == 0

    def test_same_row_hit(self, geometry):
        d = make_dram(geometry)
        d.access(0, now=0)
        # Same bank (line + num_banks) and same 2 KiB row: a row hit.
        done = d.access(d.num_banks * 128, now=1000)
        assert done == 1000 + 100
        assert d.row_hits == 1

    def test_adjacent_lines_interleave_across_banks(self, geometry):
        d = make_dram(geometry)
        d.access(0, now=0)
        d.access(128, now=0)  # next line -> next bank -> closed row
        assert d.row_hits == 0

    def test_row_conflict_pays_penalty(self, geometry):
        d = make_dram(geometry)
        d.access(0, now=0)
        nb = d.num_banks
        done = d.access(2048 * nb, now=1000)  # same bank, different row
        assert done == 1000 + 150

    def test_bank_queueing_delay(self, geometry):
        d = make_dram(geometry)
        d.access(0, now=0)  # occupies bank until t=10
        done = d.access(0, now=2)  # same bank: waits until 10
        assert done == 10 + 100
        assert d.total_queue_cycles == 8

    def test_different_banks_no_queueing(self, geometry):
        d = make_dram(geometry)
        d.access(0, now=0)
        done = d.access(128, now=0)  # adjacent line -> next bank
        assert done == 150
        assert d.total_queue_cycles == 0

    def test_bank_mapping_spreads_lines(self, geometry):
        d = make_dram(geometry)
        banks = {(a >> d.line_shift) % d.num_banks for a in range(0, 512, 128)}
        assert len(banks) == 4

    def test_stats(self, geometry):
        d = make_dram(geometry)
        d.access(0, 0)
        d.access(128, 0)
        assert d.requests == 2
        assert 0 <= d.row_hit_rate <= 1
        assert d.mean_queue_delay >= 0

    def test_reset(self, geometry):
        d = make_dram(geometry)
        d.access(0, 0)
        d.reset()
        assert d.requests == 0
        assert list(d.free_at) == [0] * d.num_banks
        # row closed: pays the miss penalty again
        assert d.access(0, 0) == 150

    def test_reset_zeroes_every_counter(self, geometry):
        d = make_dram(geometry)
        for i in range(8):
            d.access(0, now=0)  # row hits that queue on one bank
        assert d.row_hits > 0 and d.total_queue_cycles > 0
        d.reset()
        assert (d.requests, d.row_hits, d.total_queue_cycles) == (0, 0, 0)
        assert d.row_hit_rate == 0.0 and d.mean_queue_delay == 0.0

    def test_reset_restarts_jitter_sequence(self, geometry):
        """A reset model replays a fresh model's jitter, so a launch's
        timing does not depend on the launches simulated before it."""
        def lats(d):
            return [d.access(i * 128, now=1_000 * i) for i in range(20)]

        used = make_dram(geometry, dram_jitter=9)
        lats(used)
        used.reset()
        assert lats(used) == lats(make_dram(geometry, dram_jitter=9))

    def test_jitter_bounded_and_deterministic(self, geometry):
        d = make_dram(geometry, dram_jitter=9)
        lats = [d.access(0, now=10_000 * (i + 1)) - 10_000 * (i + 1) for i in range(50)]
        base = [l - 150 if i == 0 else l - 100 for i, l in enumerate(lats)]
        # Jitter stays within [0, 9) on top of the deterministic latency.
        d2 = make_dram(geometry, dram_jitter=9)
        lats2 = [d2.access(0, now=10_000 * (i + 1)) - 10_000 * (i + 1) for i in range(50)]
        assert lats == lats2  # deterministic
        assert max(lats) - min(lats[1:]) < 60  # bounded variation

    def test_bank_serializes_under_load(self, geometry):
        d = make_dram(geometry)
        for i in range(50):
            d.access(0, now=0)  # hammer one bank
        # Each request occupies the bank for `service` cycles.
        assert d.free_at[(0 >> d.line_shift) % d.num_banks] == 50 * 10
        assert d.total_queue_cycles == sum(10 * i for i in range(50))

