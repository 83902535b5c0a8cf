"""Edge-case tests for the timing simulator."""

import pytest

from repro.config import GPUConfig
from repro.sim import FixedUnitRecorder, GPUSimulator

from tests.conftest import make_manual_launch, make_uniform_kernel


class TestDegenerateConfigurations:
    def test_single_sm(self):
        kernel = make_uniform_kernel(num_launches=1, blocks_per_launch=16)
        result = GPUSimulator(GPUConfig(num_sms=1)).run_launch(
            kernel.launches[0]
        )
        assert result.machine_ipc <= 1.0  # single-issue SM
        assert result.issued_warp_insts > 0

    def test_one_warp_per_sm(self):
        kernel = make_uniform_kernel(
            num_launches=1, blocks_per_launch=8, warps_per_block=1
        )
        gpu = GPUConfig(num_sms=2, warps_per_sm=1)
        result = GPUSimulator(gpu).run_launch(kernel.launches[0])
        # One warp per SM: every stall is exposed, IPC far below peak.
        assert result.machine_ipc < 2.0

    def test_fewer_blocks_than_sms(self):
        launch = make_manual_launch([20, 20])
        result = GPUSimulator(GPUConfig(num_sms=14)).run_launch(launch)
        assert result.issued_warp_insts == 40
        # Only the SMs that got blocks issue anything.
        busy = sum(1 for i in result.per_sm_issued if i)
        assert busy == 2

    def test_block_with_single_instruction_warps(self):
        launch = make_manual_launch([1, 1, 1], mem_every=0)
        result = GPUSimulator(GPUConfig(num_sms=2)).run_launch(launch)
        assert result.issued_warp_insts == 3

    def test_block_of_pure_memory_instructions(self):
        launch = make_manual_launch([12], mem_every=1)
        result = GPUSimulator(GPUConfig(num_sms=2)).run_launch(launch)
        assert result.issued_warp_insts == 12
        assert result.mem_stats["dram_requests"] > 0

    def test_huge_occupancy_cap(self):
        kernel = make_uniform_kernel(
            num_launches=1, blocks_per_launch=64, warps_per_block=1
        )
        gpu = GPUConfig(num_sms=2, warps_per_sm=64, max_blocks_per_sm=8)
        result = GPUSimulator(gpu).run_launch(kernel.launches[0])
        # Block cap (8) limits occupancy even with plenty of warp slots.
        assert result.issued_warp_insts > 0


class TestRecorderEdgeCases:
    def test_unit_larger_than_launch(self):
        launch = make_manual_launch([30])
        rec = FixedUnitRecorder(unit_insts=10_000, num_bbs=1)
        GPUSimulator(GPUConfig(num_sms=2)).run_launch(launch, recorder=rec)
        assert len(rec.units) == 1
        assert rec.units[0].insts == 30

    def test_unit_of_one_instruction(self):
        launch = make_manual_launch([5])
        rec = FixedUnitRecorder(unit_insts=1, num_bbs=1)
        GPUSimulator(GPUConfig(num_sms=2)).run_launch(launch, recorder=rec)
        assert len(rec.units) == 5
        assert all(u.insts == 1 for u in rec.units)

    def test_memory_reset_between_launches_isolated(self):
        """A cold cache at each launch start: the first access of every
        launch misses."""
        kernel = make_uniform_kernel(num_launches=2, blocks_per_launch=32)
        sim = GPUSimulator(GPUConfig(num_sms=2, warps_per_sm=8))
        sim.run_launch(kernel.launches[0])
        stats_before = sim.mem.stats()
        sim.run_launch(kernel.launches[1])
        # run_launch's memory reset zeroed the counters at the second launch.
        assert sim.mem.stats()["dram_requests"] <= stats_before["dram_requests"] * 1.2


class TestResultProperties:
    def test_est_ipc_equals_machine_ipc_without_sampler(self):
        launch = make_manual_launch([40, 40])
        result = GPUSimulator(GPUConfig(num_sms=2)).run_launch(launch)
        assert result.est_ipc == pytest.approx(
            result.machine_ipc, rel=0.02
        )
        assert result.sampled_fraction == 1.0
        assert result.est_cycles == result.wall_cycles
