"""Tests for the synthetic workload generators."""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.profiler import profile_kernel, profile_launch
from repro.workloads import (
    ALL_KERNELS,
    IRREGULAR_KERNELS,
    REGULAR_KERNELS,
    TABLE_VI,
    benchmark_info,
    get_workload,
)
from repro.workloads.base import (
    LaunchSpec,
    Segment,
    build_kernel,
    kernel_seed,
    scaled,
)

TINY = 0.02  # scale for fast structure checks


class TestRegistry:
    def test_twelve_benchmarks(self):
        assert len(TABLE_VI) == 12
        assert len(ALL_KERNELS) == 12
        assert set(IRREGULAR_KERNELS) | set(REGULAR_KERNELS) == set(ALL_KERNELS)
        assert len(IRREGULAR_KERNELS) == 5

    def test_benchmark_info(self):
        info = benchmark_info("bfs")
        assert info.suite == "lonestar"
        assert info.kind == "irregular"
        with pytest.raises(KeyError):
            benchmark_info("nope")

    def test_unknown_kernel_rejected(self):
        with pytest.raises(KeyError):
            get_workload("nope")

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError):
            get_workload("bfs", scale=0)
        with pytest.raises(ValueError):
            get_workload("bfs", scale=2)

    @pytest.mark.parametrize("name", ALL_KERNELS)
    def test_every_kernel_builds_and_validates(self, name):
        kernel = get_workload(name, scale=TINY)
        info = benchmark_info(name)
        assert kernel.num_launches == info.launches
        assert kernel.kind == info.kind
        for launch in kernel.launches:
            for block in launch.iter_blocks():
                block.validate()

    @pytest.mark.parametrize("name", ALL_KERNELS)
    def test_full_scale_block_counts_match_table_vi(self, name):
        kernel = get_workload(name, scale=1.0)
        info = benchmark_info(name)
        # Rounding when distributing blocks across launches allows a
        # small deviation from the Table VI total.
        assert abs(kernel.num_blocks - info.blocks) / info.blocks < 0.06


class TestDeterminism:
    def test_same_seed_same_trace(self):
        a = get_workload("bfs", scale=TINY, seed=5)
        b = get_workload("bfs", scale=TINY, seed=5)
        ba, bb = a.launches[0].block(3), b.launches[0].block(3)
        np.testing.assert_array_equal(ba.addr, bb.addr)
        np.testing.assert_array_equal(ba.op, bb.op)

    def test_different_seed_different_trace(self):
        a = get_workload("bfs", scale=TINY, seed=5)
        b = get_workload("bfs", scale=TINY, seed=6)
        ba, bb = a.launches[0].block(3), b.launches[0].block(3)
        assert not np.array_equal(ba.addr, bb.addr)

    def test_regeneration_identical(self):
        kernel = get_workload("spmv", scale=TINY)
        launch = kernel.launches[0]
        block = launch.block(7)
        first = (block.addr.copy(), block.mem_req.copy())
        del block
        # Evict every live copy, so the block is synthesized again.
        for sibling in kernel.launches:
            sibling._cache.clear()
        second = launch.block(7)
        assert launch.regenerations == 1
        np.testing.assert_array_equal(first[0], second.addr)
        np.testing.assert_array_equal(first[1], second.mem_req)


class TestDataKey:
    def test_shared_data_key_makes_near_identical_launches(self):
        kernel = get_workload("lbm", scale=TINY)
        p0 = profile_launch(kernel.launches[0])
        p1 = profile_launch(kernel.launches[1])
        # Identical block sizes; memory requests agree except for the
        # small perturbed fraction (launch-specific boundary data).
        np.testing.assert_array_equal(p0.warp_insts, p1.warp_insts)
        assert np.mean(p0.mem_requests == p1.mem_requests) > 0.85

    def test_perturbed_blocks_differ_across_launches(self):
        spec = LaunchSpec(
            segments=(Segment(count=64, size_cov=0.3, mem_ratio=0.1),),
            warps_per_block=2,
            data_key=0,
            perturb=0.5,
        )
        kernel = build_kernel("p", "test", "regular", [spec, spec], 1)
        p0 = profile_launch(kernel.launches[0])
        p1 = profile_launch(kernel.launches[1])
        assert not np.array_equal(p0.warp_insts, p1.warp_insts)
        # but a shared fraction is identical
        assert np.mean(p0.warp_insts == p1.warp_insts) > 0.2

    def test_fresh_data_launches_differ(self):
        kernel = get_workload("bfs", scale=TINY)
        # launches of different levels have different block populations
        sizes = {l.num_blocks for l in kernel.launches}
        assert len(sizes) >= 2


def _perturbed(spec: LaunchSpec, tb_id: int) -> bool:
    cut = int(spec.perturb * 10_000)
    return ((tb_id * 2654435761) % 10_000) < cut


class TestLiveBlockSharing:
    """Launches that re-read the same data share one live block object
    per distinct block."""

    def test_siblings_share_all_but_perturbed_blocks(self):
        kernel = get_workload("stream", scale=TINY)
        first, second = kernel.launches[0], kernel.launches[1]
        spec = first._factory.spec
        assert spec.data_key is not None and spec == second._factory.spec
        shared = next(t for t in range(first.num_blocks) if not _perturbed(spec, t))
        perturbed = next(t for t in range(first.num_blocks) if _perturbed(spec, t))
        assert first.block(shared) is second.block(shared)
        assert first.block(perturbed) is not second.block(perturbed)

    def test_block_columns_read_only(self):
        spec = LaunchSpec(
            segments=(Segment(count=4, mem_ratio=0.2, active_mean=20.0),),
            warps_per_block=2,
        )
        kernel = build_kernel("r", "test", "irregular", [spec], 1)
        block = kernel.launches[0].block(0)
        for column in ("op", "bb", "mem_req", "addr", "spread", "active"):
            with pytest.raises(ValueError):
                getattr(block, column)[0] = 1

    def test_live_blocks_hold_no_reference(self):
        kernel = get_workload("stream", scale=TINY)
        ref = weakref.ref(kernel.launches[0].block(0))
        del kernel
        assert ref() is None


class TestStructure:
    def test_irregular_kernels_have_size_variation(self):
        for name in IRREGULAR_KERNELS:
            kernel = get_workload(name, scale=TINY)
            profile = profile_launch(kernel.launches[0])
            assert profile.block_size_cov > 0.1, name

    def test_regular_kernels_uniform_blocks(self):
        for name in ("lbm", "hotspot", "black"):
            kernel = get_workload(name, scale=TINY)
            profile = profile_launch(kernel.launches[0])
            assert profile.block_size_cov < 0.05, name

    def test_mst_has_outliers(self):
        kernel = get_workload("mst", scale=0.2)
        profile = profile_kernel(kernel)
        ratios = np.concatenate([p.block_size_ratio for p in profile.launches])
        assert ratios.max() > 3.0  # straggler blocks

    def test_mem_ratio_realized(self):
        spec = LaunchSpec(
            segments=(Segment(count=8, insts_per_warp=100, mem_ratio=0.2),),
            warps_per_block=2,
        )
        kernel = build_kernel("m", "test", "regular", [spec], 1)
        profile = profile_launch(kernel.launches[0])
        stall = profile.stall_probability.mean()
        # coalesce_mean=1 -> requests ~ mem insts ~ 20% of warp insts.
        assert 0.15 < stall < 0.25


class TestHelpers:
    def test_scaled(self):
        assert scaled(1000, 0.5) == 500
        assert scaled(1000, 0.001, floor=32) == 32
        assert scaled(1000, 1.0) == 1000

    def test_kernel_seed_stable_and_distinct(self):
        assert kernel_seed("a", 1) == kernel_seed("a", 1)
        assert kernel_seed("a", 1) != kernel_seed("b", 1)
        assert kernel_seed("a", 1) != kernel_seed("a", 2)

    def test_segment_validation(self):
        with pytest.raises(ValueError):
            Segment(count=0)
        with pytest.raises(ValueError):
            Segment(count=1, mem_ratio=1.5)
        with pytest.raises(ValueError):
            Segment(count=1, pattern="zigzag")
        with pytest.raises(ValueError):
            Segment(count=1, insts_per_warp=2)

    def test_launch_spec_validation(self):
        with pytest.raises(ValueError):
            LaunchSpec(segments=())
        with pytest.raises(ValueError):
            LaunchSpec(segments=(Segment(count=1),), warps_per_block=0)

    @settings(max_examples=15, deadline=None)
    @given(
        count=st.integers(1, 64),
        ipw=st.integers(8, 120),
        mem=st.floats(0.0, 0.5),
        wpb=st.integers(1, 8),
        seed=st.integers(0, 50),
    )
    def test_arbitrary_segments_validate(self, count, ipw, mem, wpb, seed):
        spec = LaunchSpec(
            segments=(
                Segment(count=count, insts_per_warp=ipw, mem_ratio=mem),
            ),
            warps_per_block=wpb,
        )
        kernel = build_kernel("h", "test", "regular", [spec], seed)
        for block in kernel.launches[0].iter_blocks():
            block.validate()
            stats = block.stats
            assert stats.warp_insts == wpb * len(block.op)
            assert stats.mem_requests == int(block.mem_req.sum())
