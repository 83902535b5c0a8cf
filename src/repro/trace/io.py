"""Trace serialization: save/load launches as ``.npz`` archives.

Traces are normally synthesized on demand, but exporting a launch is
useful for offline inspection, for diffing generator versions, and for
feeding external tools.  The format is columnar: every warp's dense
columns (its ``WarpTrace`` view) are concatenated in dispatch order
with explicit warp/block boundaries, so loading is slicing plus packing
each block's warps back into a :class:`BlockTrace`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.trace.blocktrace import BlockTrace
from repro.trace.launch import LaunchTrace
from repro.trace.warptrace import WarpTrace

_FORMAT_VERSION = 1


@dataclass(frozen=True)
class ArchiveBlockFactory:
    """Block factory over a loaded archive's columnar data.

    Module-level (not a closure) so launches loaded from disk remain
    picklable and can be shipped to worker processes, exactly like
    generated launches built on ``SpecBlockFactory``.
    """

    cols: dict
    warp_start: np.ndarray
    first_warp: np.ndarray

    def __call__(self, tb_id: int) -> BlockTrace:
        warps = []
        for i in range(self.first_warp[tb_id], self.first_warp[tb_id + 1]):
            lo, hi = self.warp_start[i], self.warp_start[i + 1]
            warps.append(
                WarpTrace(
                    self.cols["op"][lo:hi],
                    self.cols["active"][lo:hi],
                    self.cols["mem_req"][lo:hi],
                    self.cols["addr"][lo:hi],
                    self.cols["spread"][lo:hi],
                    self.cols["bb"][lo:hi],
                )
            )
        return BlockTrace.from_warps(tb_id, warps)


def save_launch(launch: LaunchTrace, path: str | Path) -> None:
    """Write every thread block of ``launch`` to a compressed archive."""
    cols = {name: [] for name in ("op", "active", "mem_req", "addr", "spread", "bb")}
    warp_lengths: list[int] = []
    block_warp_counts: list[int] = []
    for block in launch.iter_blocks():
        block_warp_counts.append(len(block.warps))
        for warp in block.warps:
            warp_lengths.append(len(warp))
            for name in cols:
                cols[name].append(getattr(warp, name))
    np.savez_compressed(
        Path(path),
        format_version=np.int64(_FORMAT_VERSION),
        kernel_name=np.str_(launch.kernel_name),
        launch_id=np.int64(launch.launch_id),
        num_blocks=np.int64(launch.num_blocks),
        warps_per_block=np.int64(launch.warps_per_block),
        num_bbs=np.int64(launch.num_bbs),
        warp_lengths=np.asarray(warp_lengths, dtype=np.int64),
        block_warp_counts=np.asarray(block_warp_counts, dtype=np.int64),
        **{name: np.concatenate(arrs) for name, arrs in cols.items()},
    )


def load_launch(path: str | Path) -> LaunchTrace:
    """Load a launch saved by :func:`save_launch`.

    The returned :class:`LaunchTrace` serves blocks by slicing the
    archive's columns; it behaves identically to the generated original
    (the round-trip is exact, see the tests).
    """
    with np.load(Path(path), allow_pickle=False) as data:
        version = int(data["format_version"])
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported trace format version {version}")
        kernel_name = str(data["kernel_name"])
        launch_id = int(data["launch_id"])
        num_blocks = int(data["num_blocks"])
        warps_per_block = int(data["warps_per_block"])
        num_bbs = int(data["num_bbs"])
        warp_lengths = data["warp_lengths"]
        block_warp_counts = data["block_warp_counts"]
        cols = {
            name: data[name]
            for name in ("op", "active", "mem_req", "addr", "spread", "bb")
        }

    if len(block_warp_counts) != num_blocks:
        raise ValueError("corrupt archive: block count mismatch")

    # Precompute slice offsets: warp w of block b occupies
    # cols[...][warp_start[i] : warp_start[i + 1]] where i enumerates
    # warps in dispatch order.
    warp_start = np.concatenate([[0], np.cumsum(warp_lengths)])
    first_warp = np.concatenate([[0], np.cumsum(block_warp_counts)])

    return LaunchTrace(
        kernel_name=kernel_name,
        launch_id=launch_id,
        num_blocks=num_blocks,
        warps_per_block=warps_per_block,
        factory=ArchiveBlockFactory(cols, warp_start, first_warp),
        num_bbs=num_bbs,
    )


__all__ = ["ArchiveBlockFactory", "save_launch", "load_launch"]
