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
    is_dram_op,
    is_mem_op,
)

from tests.conftest import tile_block


def make_block(tb_id=0, num_warps=1, n=8, mem_every=4):
    """``num_warps`` identical warps of ``n`` instructions: a global
    memory instruction with 2 transactions every ``mem_every``, 16
    active threads throughout."""
    op = np.full(n, OP_ALU, dtype=np.uint8)
    mem_req = np.zeros(n, dtype=np.uint8)
    op[::mem_every] = OP_MEM_GLOBAL
    mem_req[::mem_every] = 2
    return tile_block(
        tb_id, num_warps, op, np.full(n, 16), mem_req,
        np.arange(n) * 128, np.full(n, 128),
    )


def rebuild(block, **columns):
    """``block`` with some of its arrays replaced (no value checks)."""
    cols = {name: getattr(block, name) for name in
            ("op", "bb", "pos", "mem_req", "addr", "spread", "active")}
    cols.update(columns)
    return BlockTrace(block.tb_id, **cols)


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


class TestBlockTrace:
    def test_counts(self):
        stats = make_block(n=8, mem_every=4).stats
        assert stats.warp_insts == 8
        assert stats.thread_insts == 8 * 16
        assert stats.mem_requests == 2 * 2  # two mem insts, two transactions

    def test_stats_aggregate_warps(self):
        block = make_block(3, num_warps=2)
        stats = block.stats
        assert stats.tb_id == 3
        assert stats.warp_insts == 16
        assert stats.thread_insts == 2 * 8 * 16
        assert stats.stall_probability == stats.mem_requests / stats.warp_insts

    def test_stats_cached(self):
        block = make_block()
        assert block.stats is block.stats

    def test_compact_layout(self):
        block = make_block(num_warps=2, n=12)
        assert len(block) == 2
        np.testing.assert_array_equal(block.pos, [0, 4, 8])
        assert block.mem_req.shape == block.addr.shape == (2, 3)
        assert block.spread.shape == (2, 3)
        # Identical warps share one active row.
        assert block.active.shape == (12,)

    def test_divergent_warps_keep_active_matrix(self):
        block = make_block(num_warps=2)
        active = np.full((2, 8), 16, dtype=np.uint8)
        active[1, 3] = 5
        block = rebuild(block, active=active)
        block.validate()
        assert block.stats.thread_insts == 2 * 8 * 16 - 11


class TestBlockValidation:
    """Shape errors are caught by the constructor; value errors by
    :meth:`BlockTrace.validate`, which synthesis never pays for."""

    def test_valid_block_passes(self):
        make_block(num_warps=3, n=12).validate()

    def test_requires_warps(self):
        block = make_block()
        with pytest.raises(ValueError):
            rebuild(block, mem_req=block.mem_req[:0], addr=block.addr[:0],
                    spread=block.spread[:0])

    def test_rejects_length_mismatch(self):
        block = make_block()
        with pytest.raises(ValueError):
            rebuild(block, bb=block.bb[:-1])
        with pytest.raises(ValueError):
            rebuild(block, active=block.active[:-1])
        with pytest.raises(ValueError):
            rebuild(block, addr=block.addr[:, :-1])

    def test_rejects_mem_req_wider_than_memory_positions(self):
        op = np.array([OP_MEM_GLOBAL, OP_ALU, OP_ALU], dtype=np.uint8)
        with pytest.raises(ValueError):
            BlockTrace(
                0, op, np.zeros(3, np.uint16), np.array([0]),
                np.ones((2, 3), np.uint8), np.zeros((2, 1), np.int64),
                np.zeros((2, 1), np.int64), np.full(3, 32, np.uint8),
            )

    def test_rejects_bad_op(self):
        block = make_block()
        op = block.op.copy()
        op[1] = 99
        with pytest.raises(ValueError, match="unknown operation"):
            rebuild(block, op=op).validate()

    def test_rejects_empty(self):
        empty = BlockTrace(
            0, np.empty(0, np.uint8), np.empty(0, np.uint16),
            np.empty(0, np.int64), np.empty((1, 0), np.uint8),
            np.empty((1, 0), np.int64), np.empty((1, 0), np.int64),
            np.empty(0, np.uint8),
        )
        with pytest.raises(ValueError, match="empty"):
            empty.validate()

    @pytest.mark.parametrize("value", [0, WARP_WIDTH + 1])
    def test_rejects_active_out_of_range(self, value):
        block = make_block(num_warps=2)
        active = np.full((2, 8), 16, dtype=np.uint8)
        active[1, 0] = value
        with pytest.raises(ValueError, match="active"):
            rebuild(block, active=active).validate()

    def test_rejects_dram_op_without_transactions(self):
        block = make_block()
        mem_req = block.mem_req.copy()
        mem_req[0, 0] = 0
        with pytest.raises(ValueError, match="zero transactions"):
            rebuild(block, mem_req=mem_req).validate()

    def test_rejects_over_32_transactions(self):
        block = make_block()
        mem_req = block.mem_req.copy()
        mem_req[0, 1] = WARP_WIDTH + 1
        with pytest.raises(ValueError, match="more than 32"):
            rebuild(block, mem_req=mem_req).validate()

    def test_rejects_transactions_outside_memory_ops(self):
        # Position 1 is an ALU instruction: listing it as a memory
        # position gives it transactions.
        block = make_block(n=8, mem_every=4)
        pos = np.array([0, 1, 4])
        ones = np.ones((1, 3), dtype=np.uint8)
        zeros = np.zeros((1, 3), dtype=np.int64)
        with pytest.raises(ValueError, match="memory positions"):
            rebuild(block, pos=pos, mem_req=ones, addr=zeros,
                    spread=zeros).validate()

    def test_rejects_memory_op_missing_from_positions(self):
        block = make_block(n=8, mem_every=4)
        with pytest.raises(ValueError, match="memory positions"):
            rebuild(block, pos=block.pos[:1], mem_req=block.mem_req[:, :1],
                    addr=block.addr[:, :1],
                    spread=block.spread[:, :1]).validate()


class TestLaunchTrace:
    def _launch(self, n=10):
        return LaunchTrace(
            "k", 0, n, 1, lambda tb_id: make_block(tb_id), 1
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
            "k", 0, 3, 1, lambda tb_id: make_block(0), 1
        )
        with pytest.raises(ValueError):
            bad.block(1)

    def test_factory_width_mismatch_detected(self):
        """Occupancy is computed from the declared width, so a wider
        block would overfill an SM."""
        bad = LaunchTrace("k", 0, 3, 2, lambda tb_id: make_block(tb_id, 8), 1)
        with pytest.raises(ValueError, match="8-warp block"):
            bad.block(0)

    def test_rejects_empty_launch(self):
        with pytest.raises(ValueError):
            LaunchTrace("k", 0, 0, 1, lambda t: None, 1)


def _picklable_factory(tb_id):
    return make_block(tb_id)


class TestBlockMemo:
    def _launch(self, n=10, memo=None):
        launch = LaunchTrace(
            "k", 0, n, 1,
            lambda tb_id: make_block(tb_id), 1,
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
                np.testing.assert_array_equal(a.op, b.op)
                np.testing.assert_array_equal(a.addr, b.addr)

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
                "k", i, 5, 1, lambda tb_id: make_block(tb_id), 1
            )
            for i in range(3)
        ]
        kernel = KernelTrace("k", "suite", "regular", launches)
        assert kernel.num_launches == 3
        assert kernel.num_blocks == 15

    def test_rejects_bad_kind(self):
        launch = LaunchTrace(
            "k", 0, 1, 1, lambda tb_id: make_block(tb_id), 1
        )
        with pytest.raises(ValueError):
            KernelTrace("k", "s", "weird", [launch])

    def test_rejects_noncontiguous_launch_ids(self):
        launch = LaunchTrace(
            "k", 1, 1, 1, lambda tb_id: make_block(tb_id), 1
        )
        with pytest.raises(ValueError):
            KernelTrace("k", "s", "regular", [launch])
