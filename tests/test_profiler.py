"""Tests for the functional profiler."""

import weakref

import numpy as np
import pytest

import repro.workloads.base as workload_base
from repro.profiler import profile_kernel, profile_launch
from repro.profiler.functional import KernelProfile, LaunchProfile
from repro.workloads import ALL_KERNELS, get_workload

from tests.conftest import make_manual_launch, make_uniform_kernel


class TestProfileLaunch:
    def test_counts_match_trace(self):
        launch = make_manual_launch([20, 40, 60], mem_every=4, warps_per_block=2)
        profile = profile_launch(launch)
        assert profile.num_blocks == 3
        np.testing.assert_array_equal(profile.warp_insts, [40, 80, 120])
        np.testing.assert_array_equal(profile.thread_insts, [1280, 2560, 3840])
        # mem_every=4: ceil(n/4) mem insts per warp, 1 request each.
        np.testing.assert_array_equal(profile.mem_requests, [10, 20, 30])

    def test_stall_probability(self):
        launch = make_manual_launch([40], mem_every=4)
        profile = profile_launch(launch)
        assert profile.stall_probability[0] == pytest.approx(10 / 40)

    def test_block_size_ratio_mean_one(self):
        launch = make_manual_launch([10, 20, 30])
        profile = profile_launch(launch)
        assert profile.block_size_ratio.mean() == pytest.approx(1.0)

    def test_block_size_cov_zero_for_uniform(self):
        launch = make_manual_launch([25, 25, 25, 25])
        profile = profile_launch(launch)
        assert profile.block_size_cov == pytest.approx(0.0)

    def test_block_size_cov_positive_for_varied(self):
        launch = make_manual_launch([10, 100])
        profile = profile_launch(launch)
        assert profile.block_size_cov > 0.5

    def test_profile_matches_simulated_instructions(self):
        """The profiler and the simulator must agree exactly — the
        deterministic-regeneration invariant."""
        from repro.config import GPUConfig
        from repro.sim import GPUSimulator

        kernel = make_uniform_kernel(num_launches=1)
        launch = kernel.launches[0]
        profile = profile_launch(launch)
        result = GPUSimulator(GPUConfig(num_sms=4)).run_launch(launch)
        assert result.issued_warp_insts == profile.total_warp_insts


class TestKernelProfile:
    def test_totals(self):
        kernel = make_uniform_kernel(num_launches=3)
        profile = profile_kernel(kernel)
        assert profile.num_launches == 3
        assert profile.total_warp_insts == sum(
            p.total_warp_insts for p in profile.launches
        )
        assert profile.total_thread_insts > 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            KernelProfile("k", [])

    def test_launch_profile_validation(self):
        with pytest.raises(ValueError):
            LaunchProfile(
                "k", 0, 2,
                warp_insts=np.array([1, 2]),
                thread_insts=np.array([1]),
                mem_requests=np.array([1, 2]),
            )


class TestBlockMajorWalk:
    """``profile_kernel`` walks block-major so sibling launches share
    their live blocks; the profile must not change."""

    @pytest.mark.parametrize("name", ALL_KERNELS)
    def test_matches_per_launch_profiles_on_fresh_traces(self, name):
        num_launches = get_workload(name, scale=0.02).num_launches
        # Each reference launch comes from its own trace, dropped before
        # the next, so no block is shared with anything.
        expected = [
            profile_launch(get_workload(name, scale=0.02).launches[i])
            for i in range(num_launches)
        ]
        profile = profile_kernel(get_workload(name, scale=0.02))
        assert profile.num_launches == num_launches
        for got, want in zip(profile.launches, expected):
            assert (got.launch_id, got.warps_per_block) == (
                want.launch_id, want.warps_per_block
            )
            for col in ("warp_insts", "thread_insts", "mem_requests"):
                np.testing.assert_array_equal(
                    getattr(got, col), getattr(want, col)
                )

    @pytest.mark.parametrize(
        "name, syntheses", [("stream", 314), ("hotspot", 1849)]
    )
    def test_one_synthesis_per_distinct_block(
        self, monkeypatch, name, syntheses
    ):
        calls = []
        synthesize = workload_base._synthesize_block

        def counting(*args):
            calls.append(args)
            return synthesize(*args)

        monkeypatch.setattr(workload_base, "_synthesize_block", counting)
        monkeypatch.setattr(
            workload_base, "_live_blocks", weakref.WeakValueDictionary()
        )
        profile_kernel(get_workload(name, scale=0.125))
        assert len(calls) == syntheses
