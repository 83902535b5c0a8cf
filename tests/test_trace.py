"""Tests for the trace representation layer."""

import numpy as np
import pytest

from repro.trace import (
    OP_ALU,
    OP_BRANCH,
    OP_MEM_GLOBAL,
    OP_MEM_SHARED,
    STALL_CYCLES,
    WARP_WIDTH,
    BlockTrace,
    KernelTrace,
    LaunchTrace,
    WarpTrace,
    is_dram_op,
    is_mem_op,
)


def make_warp(n=8, mem_every=4):
    op = np.full(n, OP_ALU, dtype=np.uint8)
    mem_req = np.zeros(n, dtype=np.uint8)
    op[::mem_every] = OP_MEM_GLOBAL
    mem_req[::mem_every] = 2
    return WarpTrace(
        op,
        np.full(n, 16, dtype=np.uint8),
        mem_req,
        np.arange(n, dtype=np.int64) * 128,
        np.full(n, 128, dtype=np.int64),
        np.zeros(n, dtype=np.uint16),
    )


class TestInstructionPredicates:
    def test_mem_predicates_scalar(self):
        assert is_mem_op(OP_MEM_SHARED)
        assert is_mem_op(OP_MEM_GLOBAL)
        assert not is_mem_op(OP_ALU)
        assert is_dram_op(OP_MEM_GLOBAL)
        assert not is_dram_op(OP_MEM_SHARED)
        assert not is_dram_op(OP_BRANCH)

    def test_mem_predicates_array(self):
        ops = np.array([OP_ALU, OP_MEM_GLOBAL, OP_MEM_SHARED], dtype=np.uint8)
        np.testing.assert_array_equal(is_dram_op(ops), [False, True, False])

    def test_stall_table_covers_all_ops(self):
        assert len(STALL_CYCLES) == 8
        # DRAM-bound ops carry no static stall (computed dynamically).
        assert STALL_CYCLES[OP_MEM_GLOBAL] == 0


class TestWarpTrace:
    def test_counts(self):
        w = make_warp(n=8, mem_every=4)
        assert w.warp_insts == 8
        assert w.thread_insts == 8 * 16
        assert w.mem_requests == 2 * 2  # two mem insts, two transactions

    def test_bb_counts(self):
        w = make_warp()
        counts = w.bb_counts(num_bbs=3)
        assert counts[0] == len(w)
        assert counts[1:].sum() == 0

    def test_rejects_length_mismatch(self):
        w = make_warp()
        with pytest.raises(ValueError):
            WarpTrace(w.op, w.active[:-1], w.mem_req, w.addr, w.spread, w.bb)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            WarpTrace(
                np.empty(0, np.uint8),
                np.empty(0, np.uint8),
                np.empty(0, np.uint8),
                np.empty(0, np.int64),
                np.empty(0, np.int64),
                np.empty(0, np.uint16),
            )

    def test_rejects_zero_active(self):
        w = make_warp()
        active = w.active.copy()
        active[0] = 0
        with pytest.raises(ValueError):
            WarpTrace(w.op, active, w.mem_req, w.addr, w.spread, w.bb)

    def test_rejects_overwide_active(self):
        w = make_warp()
        active = w.active.copy()
        active[0] = WARP_WIDTH + 1
        with pytest.raises(ValueError):
            WarpTrace(w.op, active, w.mem_req, w.addr, w.spread, w.bb)

    def test_rejects_dram_op_without_transactions(self):
        w = make_warp()
        mem_req = w.mem_req.copy()
        mem_req[0] = 0  # position 0 is a mem op
        with pytest.raises(ValueError):
            WarpTrace(w.op, w.active, mem_req, w.addr, w.spread, w.bb)

    def test_rejects_alu_with_transactions(self):
        w = make_warp()
        mem_req = w.mem_req.copy()
        mem_req[1] = 3  # position 1 is ALU
        with pytest.raises(ValueError):
            WarpTrace(w.op, w.active, mem_req, w.addr, w.spread, w.bb)


class TestBlockTrace:
    def test_stats_aggregate_warps(self):
        block = BlockTrace.from_warps(3, [make_warp(), make_warp()])
        stats = block.stats
        assert stats.tb_id == 3
        assert stats.warp_insts == 16
        assert stats.thread_insts == 2 * 8 * 16
        assert stats.stall_probability == stats.mem_requests / stats.warp_insts

    def test_stats_cached(self):
        block = BlockTrace.from_warps(0, [make_warp()])
        assert block.stats is block.stats

    def test_requires_warps(self):
        with pytest.raises(ValueError):
            BlockTrace.from_warps(0, [])

    def test_bb_counts(self):
        block = BlockTrace.from_warps(0, [make_warp(), make_warp()])
        assert block.bb_counts(2)[0] == 16

    def test_compact_layout(self):
        block = BlockTrace.from_warps(0, [make_warp(12), make_warp(12)])
        assert len(block) == 2
        np.testing.assert_array_equal(block.pos, [0, 4, 8])
        assert block.mem_req.shape == block.addr.shape == (2, 3)
        assert block.spread.shape == (2, 3)
        # Identical active columns collapse to one shared row.
        assert block.active.shape == (12,)

    def test_divergent_warps_keep_active_matrix(self):
        a, b = make_warp(), make_warp()
        active = b.active.copy()
        active[3] = 5
        b = WarpTrace(b.op, active, b.mem_req, b.addr, b.spread, b.bb)
        block = BlockTrace.from_warps(0, [a, b])
        assert block.active.shape == (2, 8)
        assert block.stats.thread_insts == a.thread_insts + b.thread_insts
        np.testing.assert_array_equal(block.warps[1].active, active)

    def test_views_round_trip_memory_operands(self):
        a, b = make_warp(), make_warp()
        b = WarpTrace(b.op, b.active, b.mem_req * 3, b.addr + 4096,
                      b.spread, b.bb)
        block = BlockTrace.from_warps(0, [a, b])
        for orig, view in zip((a, b), block.warps):
            mem = is_dram_op(orig.op)
            for name in ("op", "active", "mem_req", "bb"):
                np.testing.assert_array_equal(
                    getattr(view, name), getattr(orig, name)
                )
            for name in ("addr", "spread"):
                col = getattr(view, name)
                np.testing.assert_array_equal(col[mem], getattr(orig, name)[mem])
                # Ignored outside memory instructions: not stored, read as 0.
                assert not col[~mem].any()
            view.validate()

    def test_rejects_warps_with_different_skeletons(self):
        with pytest.raises(ValueError):
            BlockTrace.from_warps(0, [make_warp(8), make_warp(12)])
        a, b = make_warp(), make_warp()
        bb = b.bb.copy()
        bb[2] = 1
        b = WarpTrace(b.op, b.active, b.mem_req, b.addr, b.spread, bb)
        with pytest.raises(ValueError):
            BlockTrace.from_warps(0, [a, b])

    def test_rejects_transactions_outside_memory_ops(self):
        w = make_warp()
        mem_req = w.mem_req.copy()
        mem_req[1] = 3  # position 1 is ALU
        bad = WarpTrace.from_columns(
            w.op, w.active, mem_req, w.addr, w.spread, w.bb, validate=False
        )
        with pytest.raises(ValueError):
            BlockTrace.from_warps(0, [bad])


class TestLaunchTrace:
    def _launch(self, n=10):
        return LaunchTrace(
            "k", 0, n, 1, lambda tb_id: BlockTrace.from_warps(tb_id, [make_warp()]), 1
        )

    def test_block_range_checked(self):
        launch = self._launch(5)
        with pytest.raises(IndexError):
            launch.block(5)
        with pytest.raises(IndexError):
            launch.block(-1)

    def test_blocks_cached(self):
        launch = self._launch()
        assert launch.block(2) is launch.block(2)

    def test_iteration_order(self):
        launch = self._launch(4)
        ids = [b.tb_id for b in launch.iter_blocks()]
        assert ids == [0, 1, 2, 3]

    def test_factory_id_mismatch_detected(self):
        bad = LaunchTrace(
            "k", 0, 3, 1, lambda tb_id: BlockTrace.from_warps(0, [make_warp()]), 1
        )
        with pytest.raises(ValueError):
            bad.block(1)

    def test_rejects_empty_launch(self):
        with pytest.raises(ValueError):
            LaunchTrace("k", 0, 0, 1, lambda t: None, 1)


def _picklable_factory(tb_id):
    return BlockTrace.from_warps(tb_id, [make_warp()])


class TestBlockMemo:
    def _launch(self, n=10, memo=None):
        launch = LaunchTrace(
            "k", 0, n, 1,
            lambda tb_id: BlockTrace.from_warps(tb_id, [make_warp()]), 1,
        )
        if memo is not None:
            launch.resize_block_memo(memo)
        return launch

    def test_default_window(self):
        assert self._launch().block_memo == 256

    def test_resize_window(self):
        assert self._launch(memo=4).block_memo == 4

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            self._launch().resize_block_memo(0)
        with pytest.raises(ValueError):
            self._launch().resize_block_memo(-1)

    def test_first_pass_never_counts_regenerations(self):
        launch = self._launch(n=10, memo=3)
        for b in launch.iter_blocks():
            pass
        assert launch.regenerations == 0

    def test_second_pass_regenerates_through_small_window(self):
        launch = self._launch(n=10, memo=3)
        for _ in range(2):
            for b in launch.iter_blocks():
                pass
        # Pass 2 walks 0..9 again; with a 3-wide window every block has
        # been evicted by the time it comes around.
        assert launch.regenerations == 10

    def test_full_window_eliminates_regenerations(self):
        launch = self._launch(n=10, memo=10)
        for _ in range(3):
            for b in launch.iter_blocks():
                pass
        assert launch.regenerations == 0

    def test_resize_grows_window(self):
        launch = self._launch(n=10, memo=3)
        for b in launch.iter_blocks():
            pass
        launch.resize_block_memo(10)
        assert launch.block_memo == 10
        for _ in range(2):
            for b in launch.iter_blocks():
                pass
        # Only the first re-walk regenerates (warming the larger
        # window: blocks 0-6 were evicted, 7-9 survived); once
        # resident, further passes are free.
        assert launch.regenerations == 7

    def test_resize_shrink_evicts_immediately(self):
        launch = self._launch(n=10, memo=10)
        blocks = list(launch.iter_blocks())
        launch.resize_block_memo(2)
        assert len(launch._cache) == 2
        # The two most recently used (8, 9) survive the shrink.
        assert launch.block(9) is blocks[9]
        assert launch.block(0) is not blocks[0]
        assert launch.regenerations == 1

    def test_memo_window_is_pure_perf_knob(self):
        wide = self._launch(n=8, memo=8)
        narrow = self._launch(n=8, memo=1)
        for _ in range(2):
            for a, b in zip(wide.iter_blocks(), narrow.iter_blocks()):
                assert a.tb_id == b.tb_id
                np.testing.assert_array_equal(a.warps[0].op, b.warps[0].op)
                np.testing.assert_array_equal(a.warps[0].addr, b.warps[0].addr)

    def test_pickle_resets_bookkeeping_keeps_window(self):
        import pickle

        launch = LaunchTrace("k", 0, 6, 1, _picklable_factory, 1)
        launch.resize_block_memo(2)
        for _ in range(2):
            for b in launch.iter_blocks():
                pass
        assert launch.regenerations > 0
        clone = pickle.loads(pickle.dumps(launch))
        assert clone.block_memo == 2
        assert clone.regenerations == 0
        for b in clone.iter_blocks():
            pass
        assert clone.regenerations == 0  # fresh bitmap: first pass


class TestKernelTrace:
    def test_counts(self):
        launches = [
            LaunchTrace(
                "k", i, 5, 1, lambda tb_id: BlockTrace.from_warps(tb_id, [make_warp()]), 1
            )
            for i in range(3)
        ]
        kernel = KernelTrace("k", "suite", "regular", launches)
        assert kernel.num_launches == 3
        assert kernel.num_blocks == 15

    def test_rejects_bad_kind(self):
        launch = LaunchTrace(
            "k", 0, 1, 1, lambda tb_id: BlockTrace.from_warps(tb_id, [make_warp()]), 1
        )
        with pytest.raises(ValueError):
            KernelTrace("k", "s", "weird", [launch])

    def test_rejects_noncontiguous_launch_ids(self):
        launch = LaunchTrace(
            "k", 1, 1, 1, lambda tb_id: BlockTrace.from_warps(tb_id, [make_warp()]), 1
        )
        with pytest.raises(ValueError):
            KernelTrace("k", "s", "regular", [launch])
