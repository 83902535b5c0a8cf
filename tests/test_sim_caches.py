"""Tests for the LRU cache model.

Every test runs at several line sizes: GPUConfig takes any power-of-two
``l1_line``/``l2_line``, and the line shift is the only place the cache
depends on it.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim.caches import LRUCache as Cache


@pytest.fixture(params=[32, 64, 128, 1024], ids=lambda b: f"line{b}")
def line(request):
    """Line size in bytes."""
    return request.param


#: ``line`` is an int, not mutable state: safe across examples.
_FIXTURE_OK = [HealthCheck.function_scoped_fixture]


class TestLRUCache:
    def test_first_access_misses_second_hits(self, line):
        c = Cache(8 * line, line)
        assert not c.access(0)
        assert c.access(0)
        assert c.access(line // 2)  # same line
        assert c.hits == 2 and c.misses == 1

    def test_distinct_lines(self, line):
        c = Cache(8 * line, line)
        c.access(0)
        assert not c.access(line)

    def test_capacity_eviction_lru_order(self, line):
        c = Cache(4 * line, line)  # 4 lines
        for i in range(4):
            c.access(i * line)
        c.access(0)  # touch line 0 -> MRU
        c.access(4 * line)  # evicts line 1 (LRU)
        assert c.access(0)  # still resident
        assert not c.access(1 * line)  # evicted

    def test_occupancy_bounded(self, line):
        c = Cache(8 * line, line)
        for i in range(100):
            c.access(i * line)
        assert c.occupancy == 8

    def test_contains_does_not_mutate(self, line):
        c = Cache(8 * line, line)
        assert not c.contains(0)
        assert c.misses == 0
        c.access(0)
        assert c.contains(0)
        assert c.hits == 0 and c.misses == 1

    def test_reset(self, line):
        c = Cache(8 * line, line)
        c.access(0)
        c.reset()
        assert c.occupancy == 0
        assert c.hits == 0 and c.misses == 0
        assert not c.access(0)

    def test_reset_frees_full_capacity(self, line):
        """After a reset the whole capacity is free again: refilling it
        with distinct lines evicts none of them."""
        c = Cache(8 * line, line)
        for i in range(20):
            c.access(i * line)
        c.reset()
        assert c.lru_lines() == []
        assert not any(c.access(i * line) for i in range(8))
        assert all(c.access(i * line) for i in range(8))
        assert c.hits == 8 and c.misses == 8

    def test_hit_rate(self, line):
        c = Cache(8 * line, line)
        assert c.hit_rate == 0.0
        c.access(0)
        c.access(0)
        assert c.hit_rate == pytest.approx(0.5)

    def test_rejects_bad_line_size(self, line):
        with pytest.raises(ValueError):
            Cache(8 * line, line + line // 2 + 1)
        with pytest.raises(ValueError):
            Cache(line // 2, line)

    @settings(max_examples=25, deadline=None, suppress_health_check=_FIXTURE_OK)
    @given(
        addrs=st.lists(st.integers(0, 1 << 20), min_size=1, max_size=300),
        lines=st.integers(1, 16),
    )
    def test_occupancy_never_exceeds_capacity(self, line, addrs, lines):
        c = Cache(lines * line, line)
        for a in addrs:
            c.access(a)
        assert c.occupancy <= lines
        assert c.hits + c.misses == len(addrs)

    @settings(max_examples=25, deadline=None, suppress_health_check=_FIXTURE_OK)
    @given(addrs=st.lists(st.integers(0, 1 << 14), min_size=1, max_size=100))
    def test_infinite_capacity_only_compulsory_misses(self, line, addrs):
        c = Cache(1 << 22, line)  # larger than the address space used
        for a in addrs:
            c.access(a)
        distinct_lines = len({a // line for a in addrs})
        assert c.misses == distinct_lines

    @settings(max_examples=40, deadline=None, suppress_health_check=_FIXTURE_OK)
    @given(
        addrs=st.lists(st.integers(0, 1 << 14), min_size=1, max_size=300),
        lines=st.integers(1, 8),
    )
    def test_matches_list_model(self, line, addrs, lines):
        # A plain list kept in LRU-to-MRU order is the textbook LRU:
        # hit/miss outcomes and the final recency order must agree.
        c = Cache(lines * line, line)
        model: list[int] = []
        for a in addrs:
            tag = a // line
            hit = tag in model
            if hit:
                model.remove(tag)
            elif len(model) == lines:
                model.pop(0)
            model.append(tag)
            assert c.access(a) == hit
        assert c.lru_lines() == model
