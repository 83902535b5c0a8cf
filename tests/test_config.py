"""Tests for the configuration layer."""

import pytest

from repro.config import ExperimentConfig, GPUConfig, SamplingConfig


class TestGPUConfig:
    def test_defaults_match_table_v(self):
        cfg = GPUConfig()
        assert cfg.num_sms == 14
        assert cfg.l1_kib == 16
        assert cfg.l2_kib == 768
        assert cfg.l1_line == 128
        assert cfg.dram_channels == 6
        assert cfg.dram_banks == 16

    def test_sm_occupancy_limited_by_warps(self):
        cfg = GPUConfig(warps_per_sm=48, max_blocks_per_sm=8)
        assert cfg.sm_occupancy(16) == 3  # 48 // 16
        assert cfg.sm_occupancy(8) == 6
        assert cfg.sm_occupancy(48) == 1

    def test_sm_occupancy_limited_by_block_cap(self):
        cfg = GPUConfig(warps_per_sm=48, max_blocks_per_sm=8)
        assert cfg.sm_occupancy(4) == 8  # 48 // 4 = 12, capped at 8

    def test_sm_occupancy_at_least_one(self):
        cfg = GPUConfig(warps_per_sm=4)
        assert cfg.sm_occupancy(64) == 1

    def test_system_occupancy(self):
        cfg = GPUConfig(num_sms=14, warps_per_sm=48)
        assert cfg.system_occupancy(16) == 14 * 3

    def test_invalid_warps_per_block(self):
        with pytest.raises(ValueError):
            GPUConfig().sm_occupancy(0)

    def test_rejects_non_power_of_two_line(self):
        with pytest.raises(ValueError):
            GPUConfig(l1_line=100)

    def test_rejects_nonpositive_sms(self):
        with pytest.raises(ValueError):
            GPUConfig(num_sms=0)

    def test_with_replaces_fields(self):
        cfg = GPUConfig().with_(num_sms=7, warps_per_sm=24)
        assert cfg.num_sms == 7
        assert cfg.warps_per_sm == 24
        assert cfg.l1_kib == GPUConfig().l1_kib

    def test_frozen(self):
        with pytest.raises(Exception):
            GPUConfig().num_sms = 3


class TestSamplingConfig:
    def test_defaults_match_section_va(self):
        cfg = SamplingConfig()
        assert cfg.inter_threshold == 0.1
        assert cfg.intra_threshold == 0.2
        assert cfg.variation_factor == 0.3
        assert cfg.warm_tolerance == 0.10

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            SamplingConfig(inter_threshold=-0.1)

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            SamplingConfig(warm_tolerance=0.0)
        with pytest.raises(ValueError):
            SamplingConfig(warm_tolerance=1.0)

    def test_rejects_single_warm_unit(self):
        with pytest.raises(ValueError):
            SamplingConfig(min_warm_units=1)

    def test_with_replaces_fields(self):
        cfg = SamplingConfig().with_(intra_threshold=0.5)
        assert cfg.intra_threshold == 0.5
        assert cfg.inter_threshold == 0.1


class TestExperimentConfig:
    def test_scale_bounds(self):
        with pytest.raises(ValueError):
            ExperimentConfig(scale=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(scale=1.5)
        assert ExperimentConfig(scale=1.0).scale == 1.0

    def test_random_fraction_bounds(self):
        with pytest.raises(ValueError):
            ExperimentConfig(random_fraction=0.0)

    def test_target_units_minimum(self):
        with pytest.raises(ValueError):
            ExperimentConfig(target_units=1)
