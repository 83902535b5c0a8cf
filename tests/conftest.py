"""Shared fixtures: small kernels and machine configs that keep the
timing-simulation tests fast while exercising every code path."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import GPUConfig, SamplingConfig
from repro.trace import BlockTrace, KernelTrace, LaunchTrace, is_dram_op
from repro.workloads.base import LaunchSpec, Segment, build_kernel


@pytest.fixture(autouse=True)
def _isolated_cache_root(monkeypatch, tmp_path):
    """Point the default cache root at the test's own ``tmp_path``, so no
    test (nor a subprocess it starts) writes profiles or journals to
    the user's cache."""
    monkeypatch.setenv("TBPOINT_CACHE_DIR", str(tmp_path))


@pytest.fixture
def small_gpu() -> GPUConfig:
    """A 4-SM machine: fast to simulate, still multi-SM."""
    return GPUConfig(num_sms=4, warps_per_sm=16)


@pytest.fixture
def sampling() -> SamplingConfig:
    return SamplingConfig()


def make_uniform_kernel(
    num_launches: int = 2,
    blocks_per_launch: int = 96,
    warps_per_block: int = 4,
    insts_per_warp: int = 32,
    mem_ratio: float = 0.1,
    seed: int = 7,
    name: str = "uniform",
    **segment_kwargs,
) -> KernelTrace:
    """A kernel of identical launches made of identical thread blocks."""
    spec = LaunchSpec(
        segments=(
            Segment(
                count=blocks_per_launch,
                insts_per_warp=insts_per_warp,
                mem_ratio=mem_ratio,
                **segment_kwargs,
            ),
        ),
        warps_per_block=warps_per_block,
    )
    return build_kernel(name, "test", "regular", [spec] * num_launches, seed)


def make_two_phase_kernel(
    blocks_per_segment: int = 96,
    warps_per_block: int = 4,
    seed: int = 11,
) -> KernelTrace:
    """One launch with two behaviourally distinct contiguous segments —
    the minimal input on which region identification finds two regions."""
    spec = LaunchSpec(
        segments=(
            Segment(
                count=blocks_per_segment,
                insts_per_warp=32,
                mem_ratio=0.05,
                locality=0.8,
            ),
            Segment(
                count=blocks_per_segment,
                insts_per_warp=32,
                mem_ratio=0.25,
                locality=0.2,
                coalesce_mean=4.0,
            ),
        ),
        warps_per_block=warps_per_block,
    )
    return build_kernel("twophase", "test", "irregular", [spec], seed)


@pytest.fixture
def uniform_kernel() -> KernelTrace:
    return make_uniform_kernel()


@pytest.fixture
def two_phase_kernel() -> KernelTrace:
    return make_two_phase_kernel()


def tile_block(tb_id, num_warps, op, active, mem_req, addr, spread,
               validate=True):
    """A validated block of ``num_warps`` identical warps from one
    warp's dense columns, all in basic block 0; ``mem_req``/``addr``/
    ``spread`` are kept at the memory instructions only."""
    op = np.asarray(op, dtype=np.uint8)
    pos = np.flatnonzero(is_dram_op(op))
    bb = np.zeros(len(op), dtype=np.uint16)

    def tile(col, dtype):
        return np.tile(np.asarray(col, dtype=dtype)[pos], (num_warps, 1))

    block = BlockTrace(
        tb_id, op, bb, pos, tile(mem_req, np.uint8), tile(addr, np.int64),
        tile(spread, np.int64), np.asarray(active, dtype=np.uint8),
    )
    if validate:
        block.validate()
    return block


def make_manual_launch(
    per_block_insts: list[int],
    mem_every: int = 4,
    warps_per_block: int = 1,
    name: str = "manual",
) -> LaunchTrace:
    """A launch whose block sizes are given explicitly — for tests that
    need exact control over per-block instruction counts."""
    from repro.trace.instruction import OP_ALU, OP_MEM_GLOBAL

    def factory(tb_id: int) -> BlockTrace:
        n = per_block_insts[tb_id]
        op = np.full(n, OP_ALU, dtype=np.uint8)
        mem_req = np.zeros(n, dtype=np.uint8)
        if mem_every:
            op[::mem_every] = OP_MEM_GLOBAL
            mem_req[::mem_every] = 1
        addr = np.arange(n, dtype=np.int64) * 128 + tb_id * 65536
        return tile_block(
            tb_id, warps_per_block, op, np.full(n, 32), mem_req, addr,
            np.full(n, 128),
        )

    return LaunchTrace(
        kernel_name=name,
        launch_id=0,
        num_blocks=len(per_block_insts),
        warps_per_block=warps_per_block,
        factory=factory,
        num_bbs=1,
    )
