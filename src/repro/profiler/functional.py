"""Per-thread-block functional profiling.

:func:`profile_kernel` walks every thread block of every launch once and
records the three counters TBPoint needs (Sections III and IV-B1):

* warp instructions  — Eq. 2 feature 2, Eq. 5's ``y``;
* thread instructions — Eq. 2 feature 1, and the "thread block size"
  used for the thread-block-variation feature and Fig. 8;
* memory requests (global/local) — Eq. 2 feature 3, Eq. 5's ``x``.

The result is column-wise numpy arrays over thread-block ID, so epoch
construction (Eq. 4/5) is pure vectorized slicing.

The walk is block-major: thread block ``i`` of every launch, then block
``i + 1``.  Launches that re-read the same data share their live blocks
(:mod:`repro.workloads.base`), so a sibling launch asks for block ``i``
while the first launch's memo window still holds it and gets the same
object instead of a fresh synthesis.  Walked launch-major, a launch
wider than the window would have evicted the block before the next
launch asked for it.  :func:`profile_launch` is the same walk over one
launch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.trace import KernelTrace, LaunchTrace

#: Version of the functional-profiling algorithm.  Part of the on-disk
#: profile-cache key: bump it whenever the counters or their definitions
#: change so stale cached profiles are invalidated.
PROFILER_VERSION = 1


@dataclass
class LaunchProfile:
    """Profile of one kernel launch: per-thread-block counters.

    All arrays are indexed by thread-block ID (dispatch order).
    """

    kernel_name: str
    launch_id: int
    warps_per_block: int
    warp_insts: np.ndarray  # int64[num_blocks]
    thread_insts: np.ndarray  # int64[num_blocks]
    mem_requests: np.ndarray  # int64[num_blocks]

    def __post_init__(self) -> None:
        n = len(self.warp_insts)
        if not (len(self.thread_insts) == len(self.mem_requests) == n):
            raise ValueError("profile column length mismatch")
        if n == 0:
            raise ValueError("empty launch profile")

    @property
    def num_blocks(self) -> int:
        return len(self.warp_insts)

    @property
    def total_warp_insts(self) -> int:
        return int(self.warp_insts.sum())

    @property
    def total_thread_insts(self) -> int:
        return int(self.thread_insts.sum())

    @property
    def total_mem_requests(self) -> int:
        return int(self.mem_requests.sum())

    @property
    def stall_probability(self) -> np.ndarray:
        """Eq. 5 per-block stall probability ``x / y`` (memory requests
        per warp instruction)."""
        return self.mem_requests / self.warp_insts

    @property
    def block_size_cov(self) -> float:
        """Coefficient of variation of thread-block sizes (Eq. 2's
        thread-block-variation feature; size = thread instructions)."""
        mean = self.thread_insts.mean()
        if mean == 0:
            return 0.0
        return float(self.thread_insts.std() / mean)

    @property
    def block_size_ratio(self) -> np.ndarray:
        """Thread-block size normalized by the launch average — the
        quantity plotted in Fig. 8."""
        return self.thread_insts / self.thread_insts.mean()


def _profile_launches(launches: list[LaunchTrace]) -> list[LaunchProfile]:
    """Profile several launches in one block-major walk."""
    walks = [
        (launch, np.empty((3, launch.num_blocks), dtype=np.int64))
        for launch in launches
    ]
    for tb_id in range(max(launch.num_blocks for launch in launches)):
        for launch, counts in walks:
            if tb_id < launch.num_blocks:
                stats = launch.block(tb_id).stats
                counts[0, tb_id] = stats.warp_insts
                counts[1, tb_id] = stats.thread_insts
                counts[2, tb_id] = stats.mem_requests
    return [
        LaunchProfile(
            kernel_name=launch.kernel_name,
            launch_id=launch.launch_id,
            warps_per_block=launch.warps_per_block,
            warp_insts=counts[0],
            thread_insts=counts[1],
            mem_requests=counts[2],
        )
        for launch, counts in walks
    ]


def profile_launch(launch: LaunchTrace) -> LaunchProfile:
    """Functionally profile one launch (walks every thread block once)."""
    return _profile_launches([launch])[0]


@dataclass
class KernelProfile:
    """Profile of a whole kernel: one :class:`LaunchProfile` per launch.

    This is the one-time profiling artifact: everything TBPoint computes
    afterwards (inter-launch feature vectors, epochs, homogeneous
    regions) derives from it without touching the traces again.
    """

    kernel_name: str
    launches: list[LaunchProfile] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.launches:
            raise ValueError("kernel profile with no launches")

    @property
    def num_launches(self) -> int:
        return len(self.launches)

    @property
    def total_warp_insts(self) -> int:
        return sum(p.total_warp_insts for p in self.launches)

    @property
    def total_thread_insts(self) -> int:
        return sum(p.total_thread_insts for p in self.launches)


def profile_kernel(kernel: KernelTrace) -> KernelProfile:
    """Functionally profile every launch of a kernel (the paper's
    one-time GPUOcelot pass), block-major across launches."""
    return KernelProfile(
        kernel_name=kernel.name,
        launches=_profile_launches(kernel.launches),
    )


__all__ = [
    "LaunchProfile",
    "KernelProfile",
    "profile_launch",
    "profile_kernel",
    "PROFILER_VERSION",
]
