"""Tests for the scaling driver and per-launch accuracy."""

import pytest

from repro.analysis.launch_accuracy import launch_accuracy
from repro.analysis.scaling import run_scaling
from repro.baselines import run_full
from repro.config import GPUConfig
from repro.core.pipeline import run_tbpoint

from tests.conftest import make_uniform_kernel


class TestScalingDriver:
    def test_points_cover_scales(self):
        points = run_scaling("stream", scales=(0.02, 0.04), seed=7)
        assert [p.scale for p in points] == [0.02, 0.04]
        for p in points:
            assert p.error >= 0
            assert 0 < p.sample_size <= 1
            assert p.num_blocks > 0


class TestLaunchAccuracy:
    def test_simulated_launch_error_small(self):
        kernel = make_uniform_kernel(num_launches=3, blocks_per_launch=96)
        gpu = GPUConfig(num_sms=4, warps_per_sm=16)
        full = run_full(kernel, gpu)
        tbp = run_tbpoint(kernel, gpu)
        acc = launch_accuracy(tbp.estimate, full)
        assert len(acc.errors) == 3
        assert acc.mean_error < 0.15
        assert acc.mean_unsimulated_error >= 0

    def test_mismatched_lengths_rejected(self):
        kernel = make_uniform_kernel(num_launches=2, blocks_per_launch=64)
        gpu = GPUConfig(num_sms=2, warps_per_sm=8)
        full = run_full(kernel, gpu)
        tbp = run_tbpoint(kernel, gpu)
        import dataclasses

        truncated = dataclasses.replace(
            tbp.estimate, launches=tbp.estimate.launches[:1]
        )
        with pytest.raises(ValueError):
            launch_accuracy(truncated, full)
