"""Functional profiling (the GPUOcelot substitute).

The paper profiles each kernel once with GPUOcelot, collecting
architecture-independent per-thread-block counters: thread instructions,
warp instructions, and global/local memory requests.  Our profiler walks
the synthetic traces and extracts exactly those counters.  Profiling is
one-time per kernel/input (hardware independent); only the epoch-level
clustering must be redone when the simulated occupancy changes
(Section V-C).
"""

from repro.profiler.functional import (
    KernelProfile,
    LaunchProfile,
    profile_kernel,
    profile_launch,
)

__all__ = [
    "LaunchProfile",
    "KernelProfile",
    "profile_launch",
    "profile_kernel",
]
