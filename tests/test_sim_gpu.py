"""Tests for the event-driven GPU timing simulator."""

import numpy as np
import pytest

from repro.config import GPUConfig
from repro.profiler import profile_launch
from repro.sim import FixedUnitRecorder, GPUSimulator
from repro.sim.sampler_hooks import NullSampler
from repro.trace import LaunchTrace
from repro.trace.instruction import OP_ALU, OP_MEM_GLOBAL

from tests.conftest import make_manual_launch, make_uniform_kernel, tile_block


class TestBasicExecution:
    def test_issues_every_instruction(self, small_gpu):
        kernel = make_uniform_kernel(num_launches=1)
        launch = kernel.launches[0]
        expected = profile_launch(launch).total_warp_insts
        result = GPUSimulator(small_gpu).run_launch(launch)
        assert result.issued_warp_insts == expected
        assert result.skipped_warp_insts == 0
        assert result.total_warp_insts == expected

    def test_wall_cycles_positive_and_bounded_below(self, small_gpu):
        kernel = make_uniform_kernel(num_launches=1)
        launch = kernel.launches[0]
        result = GPUSimulator(small_gpu).run_launch(launch)
        # Issue width 1/SM: wall >= insts / num_sms.
        assert result.wall_cycles >= result.issued_warp_insts // small_gpu.num_sms
        assert 0 < result.machine_ipc <= small_gpu.num_sms

    def test_deterministic(self, small_gpu):
        kernel = make_uniform_kernel(num_launches=1)
        launch = kernel.launches[0]
        a = GPUSimulator(small_gpu).run_launch(launch)
        b = GPUSimulator(small_gpu).run_launch(launch)
        assert a.wall_cycles == b.wall_cycles
        assert a.issued_warp_insts == b.issued_warp_insts

    def test_launch_timing_independent_of_order(self, small_gpu):
        """The per-launch memory reset makes launch timing
        order-independent — the prerequisite for simulating only
        representative launches."""
        kernel = make_uniform_kernel(num_launches=2)
        sim = GPUSimulator(small_gpu)
        first = sim.run_launch(kernel.launches[1])
        sim.run_launch(kernel.launches[0])
        again = sim.run_launch(kernel.launches[1])
        assert first.wall_cycles == again.wall_cycles

    @pytest.mark.parametrize("front_end", ["fast", "reference"])
    def test_memory_counters_are_per_run(self, small_gpu, front_end):
        """The memory reset at each run zeroes the fast-path counters,
        so a rerun reports the same counts and they are the hierarchy's
        own counters, not a lifetime total.  The reference front end has
        no fast path, so its counters stay 0."""
        n = 32
        op = np.full(n, OP_ALU, dtype=np.uint8)
        op[::4] = OP_MEM_GLOBAL
        mem_req = np.where(op == OP_MEM_GLOBAL, 4, 0).astype(np.uint8)
        # Every other memory op packs its 4 transactions into one line
        # (3 dedups); the rest touch 4 lines.  Addresses repeat across
        # blocks, so later accesses hit in L1 or L2.
        spread = np.where(np.arange(n) % 8 == 0, 32, 128).astype(np.int64)

        def factory(tb_id):
            addr = (np.arange(n, dtype=np.int64) % 12) * 512 + (tb_id % 3) * 256
            return tile_block(
                tb_id, 2, op, np.full(n, 32), mem_req, addr, spread
            )

        launch = LaunchTrace("counters", 0, 12, 2, factory, 1)
        sim = GPUSimulator(small_gpu, mem_front_end=front_end)
        seen = []
        for _ in range(2):
            c = sim.run_launch(launch).counters
            mem = sim.mem
            got = (
                c.mem_batches, c.mem_dedup_txns,
                c.mem_batch_l1_hits, c.mem_batch_l2_hits,
            )
            assert got == (
                mem.batches, mem.dedup_txns,
                mem.batch_l1_hits, mem.batch_l2_hits,
            )
            seen.append(got)
        assert seen[0] == seen[1]
        if front_end == "fast":
            assert all(v > 0 for v in seen[0])
        else:
            assert seen[0] == (0, 0, 0, 0)

    def test_per_sm_stats_consistent(self, small_gpu):
        kernel = make_uniform_kernel(num_launches=1)
        result = GPUSimulator(small_gpu).run_launch(kernel.launches[0])
        assert sum(result.per_sm_issued) == result.issued_warp_insts
        assert len(result.per_sm_issued) == small_gpu.num_sms
        assert all(c <= result.wall_cycles for c in result.per_sm_busy_cycles)
        assert result.per_sm_ipc_sum > 0

    def test_single_block_launch(self, small_gpu):
        launch = make_manual_launch([40])
        result = GPUSimulator(small_gpu).run_launch(launch)
        assert result.issued_warp_insts == 40

    def test_more_parallelism_fewer_cycles(self):
        kernel = make_uniform_kernel(num_launches=1, blocks_per_launch=128)
        launch = kernel.launches[0]
        slow = GPUSimulator(GPUConfig(num_sms=2, warps_per_sm=8)).run_launch(launch)
        fast = GPUSimulator(GPUConfig(num_sms=8, warps_per_sm=32)).run_launch(launch)
        assert fast.wall_cycles < slow.wall_cycles

    def test_memory_intensity_lowers_ipc(self, small_gpu):
        lean = make_uniform_kernel(
            mem_ratio=0.02, name="lean", locality=0.5
        ).launches[0]
        heavy = make_uniform_kernel(
            mem_ratio=0.3, name="heavy", locality=0.0, coalesce_mean=6.0,
            pattern="gather",
        ).launches[0]
        sim = GPUSimulator(small_gpu)
        assert sim.run_launch(lean).machine_ipc > sim.run_launch(heavy).machine_ipc


class TestBlockRegenerationCounter:
    def test_cold_run_counts_zero(self, small_gpu):
        kernel = make_uniform_kernel(num_launches=1, blocks_per_launch=48)
        launch = kernel.launches[0]
        launch.resize_block_memo(4)
        result = GPUSimulator(small_gpu).run_launch(launch)
        assert result.counters is not None
        assert result.counters.block_regenerations == 0

    def test_repeat_run_thrashes_small_window(self, small_gpu):
        kernel = make_uniform_kernel(num_launches=1, blocks_per_launch=48)
        launch = kernel.launches[0]
        launch.resize_block_memo(4)
        sim = GPUSimulator(small_gpu)
        cold = sim.run_launch(launch)
        warm = sim.run_launch(launch)
        # Pass 2 finds every block evicted: the re-simulation thrash a
        # warm server avoids by resizing the window to the launch.
        assert warm.counters.block_regenerations == launch.num_blocks
        assert warm.wall_cycles == cold.wall_cycles  # pure perf knob

    def test_full_window_eliminates_regenerations(self, small_gpu):
        kernel = make_uniform_kernel(num_launches=1, blocks_per_launch=48)
        launch = kernel.launches[0]
        launch.resize_block_memo(launch.num_blocks)
        sim = GPUSimulator(small_gpu)
        cold = sim.run_launch(launch)
        warm = sim.run_launch(launch)
        assert warm.counters.block_regenerations == 0
        assert warm.wall_cycles == cold.wall_cycles


class TestSamplerHooks:
    def test_null_sampler_equals_no_sampler(self, small_gpu):
        kernel = make_uniform_kernel(num_launches=1)
        launch = kernel.launches[0]
        plain = GPUSimulator(small_gpu).run_launch(launch)
        hooked = GPUSimulator(small_gpu).run_launch(launch, sampler=NullSampler())
        assert hooked.issued_warp_insts == plain.issued_warp_insts
        assert hooked.wall_cycles == plain.wall_cycles

    def test_units_partition_the_launch(self, small_gpu):
        kernel = make_uniform_kernel(num_launches=1)
        launch = kernel.launches[0]
        sampler = NullSampler()
        result = GPUSimulator(small_gpu).run_launch(launch, sampler=sampler)
        assert len(sampler.units) >= 1
        # Unit instruction counts never exceed the launch total.
        assert sum(u[0] for u in sampler.units) <= result.issued_warp_insts
        assert all(c > 0 for _, c in sampler.units)

    def test_skip_everything_sampler(self, small_gpu):
        class SkipAll:
            def __init__(self, insts):
                self._insts = insts
                self.skipped_warp_insts = 0
                self.extra_cycles = 0.0

            def on_dispatch(self, tb_id, now, issued):
                self.skipped_warp_insts += self._insts[tb_id]
                self.extra_cycles += self._insts[tb_id] / 2.0
                return False

            def on_retire(self, tb_id, now, issued):
                raise AssertionError("nothing should retire")

            def on_unit_start(self, now):
                raise AssertionError("no units should start")

            def on_unit_complete(self, insts, cycles, now, issued):
                raise AssertionError("no units should complete")

            def finalize(self, now, issued):
                pass

        launch = make_manual_launch([30, 30, 30])
        sampler = SkipAll(profile_launch(launch).warp_insts)
        result = GPUSimulator(GPUConfig(num_sms=2)).run_launch(
            launch, sampler=sampler
        )
        assert result.issued_warp_insts == 0
        assert result.skipped_warp_insts == 90
        assert result.total_warp_insts == 90
        assert result.est_cycles == pytest.approx(1 + 45.0)  # wall=1 + extra


class TestFixedUnitRecorder:
    def test_units_cover_all_instructions(self, small_gpu):
        kernel = make_uniform_kernel(num_launches=1)
        launch = kernel.launches[0]
        rec = FixedUnitRecorder(unit_insts=500, num_bbs=launch.num_bbs)
        result = GPUSimulator(small_gpu).run_launch(launch, recorder=rec)
        assert sum(u.insts for u in rec.units) == result.issued_warp_insts
        # All full units have exactly unit_insts; only the last may not.
        for u in rec.units[:-1]:
            assert u.insts == 500

    def test_bbv_counts_match_unit_insts(self, small_gpu):
        kernel = make_uniform_kernel(num_launches=1)
        launch = kernel.launches[0]
        rec = FixedUnitRecorder(unit_insts=400, num_bbs=launch.num_bbs)
        GPUSimulator(small_gpu).run_launch(launch, recorder=rec)
        for u in rec.units:
            assert u.bbv.sum() == u.insts

    def test_bbv_counts_executed_basic_blocks(self, small_gpu):
        kernel = make_uniform_kernel(num_launches=1)
        launch = kernel.launches[0]
        rec = FixedUnitRecorder(unit_insts=400, num_bbs=launch.num_bbs)
        GPUSimulator(small_gpu).run_launch(launch, recorder=rec)
        # Every warp of a block runs the block's one instruction stream.
        expected = np.zeros(launch.num_bbs, dtype=np.int64)
        for tb_id in range(launch.num_blocks):
            block = launch.block(tb_id)
            expected += np.bincount(block.bb, minlength=launch.num_bbs) * len(block)
        np.testing.assert_array_equal(sum(u.bbv for u in rec.units), expected)

    def test_unit_cycles_positive_and_contiguous(self, small_gpu):
        kernel = make_uniform_kernel(num_launches=1)
        launch = kernel.launches[0]
        rec = FixedUnitRecorder(unit_insts=600, num_bbs=launch.num_bbs)
        GPUSimulator(small_gpu).run_launch(launch, recorder=rec)
        for prev, cur in zip(rec.units, rec.units[1:]):
            assert cur.start_cycle == prev.end_cycle
        assert all(u.cycles > 0 for u in rec.units)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            FixedUnitRecorder(unit_insts=0, num_bbs=1)
        with pytest.raises(ValueError):
            FixedUnitRecorder(unit_insts=10, num_bbs=0)
