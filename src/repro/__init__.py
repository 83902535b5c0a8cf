"""TBPoint: profiling-based sampling for GPGPU kernel simulation.

A full reproduction of *TBPoint: Reducing Simulation Time for
Large-Scale GPGPU Kernels* (Huang, Nai, Kim, Lee — IPDPS 2014),
including every substrate the paper depends on: synthetic GPGPU
workloads (Table VI), a functional profiler (the GPUOcelot role), a
cycle-approximate multi-SM timing simulator (the Macsim role), the
clustering machinery, the Markov-chain/Monte-Carlo model of Section
IV-A, and the Random / Ideal-SimPoint baselines.

Quickstart::

    from repro import get_workload, run_tbpoint
    from repro.baselines import run_full

    kernel = get_workload("hotspot", scale=0.5)
    full = run_full(kernel)
    tbp = run_tbpoint(kernel)
    err = abs(tbp.overall_ipc - full.overall_ipc) / full.overall_ipc
    print(f"error {err:.2%} at sample size {tbp.sample_size:.2%}")
"""

from repro.config import (
    DEFAULT_GPU,
    DEFAULT_SAMPLING,
    ExperimentConfig,
    GPUConfig,
    SamplingConfig,
)
from repro.core import run_tbpoint, TBPointResult
from repro.exec import ExecutionConfig, ProfileCache
from repro.baselines import (
    estimate_random,
    estimate_simpoint,
    run_full,
)
from repro.profiler import profile_kernel, profile_launch
from repro.sim import GPUSimulator
from repro.workloads import ALL_KERNELS, TABLE_VI, get_workload

__version__ = "1.0.0"

__all__ = [
    "GPUConfig",
    "SamplingConfig",
    "ExperimentConfig",
    "DEFAULT_GPU",
    "DEFAULT_SAMPLING",
    "run_tbpoint",
    "TBPointResult",
    "ExecutionConfig",
    "ProfileCache",
    "run_full",
    "estimate_random",
    "estimate_simpoint",
    "profile_kernel",
    "profile_launch",
    "GPUSimulator",
    "get_workload",
    "ALL_KERNELS",
    "TABLE_VI",
    "__version__",
]
