"""Configuration objects for the TBPoint reproduction.

Three configuration layers:

* :class:`GPUConfig` — the simulated machine (Table V of the paper,
  NVIDIA-Fermi-like).  Everything the timing simulator needs: number of
  SMs, warps per SM, cache geometry, DRAM geometry and latencies.
* :class:`SamplingConfig` — the TBPoint sampling parameters (Section V-A):
  hierarchical-clustering distance thresholds for inter- and intra-launch
  sampling, the variation factor used for outlier-epoch detection, and the
  warming-period IPC tolerance.
* :class:`ExperimentConfig` — knobs for experiment drivers (workload scale,
  RNG seed, baseline sampling-unit sizing).

All objects are frozen dataclasses so that a configuration can be used as
part of a cache key and cannot be mutated mid-experiment.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass


@dataclass(frozen=True)
class GPUConfig:
    """Simulated GPU configuration (Table V, Fermi-like defaults).

    Attributes
    ----------
    num_sms:
        Number of streaming multiprocessors ("Number of cores: 14").
    warps_per_sm:
        Maximum resident warps on one SM.  Together with
        ``warps_per_block`` this bounds the SM occupancy (concurrent
        thread blocks per SM).
    max_blocks_per_sm:
        Architectural cap on concurrent thread blocks per SM (8 on Fermi).
    l1_kib / l1_line:
        Per-SM L1 data cache capacity (KiB) and line size (bytes).
    l2_kib / l2_line:
        Shared L2 capacity (KiB) and line size (bytes).
    l1_latency / l2_latency / dram_latency:
        Load-to-use latencies in cycles for an L1 hit, L2 hit and DRAM
        row-buffer hit respectively (before queueing delays).
    dram_row_miss_penalty:
        Extra cycles for a DRAM row-buffer miss (precharge + activate).
    dram_channels / dram_banks:
        DRAM geometry; requests queue per (channel, bank).
    dram_service:
        Data-burst occupancy of a bank per transaction, in cycles; this is
        what creates queueing delay (the variable part of the paper's
        stall-latency random variable ``M``).
    dram_jitter:
        Span of the deterministic per-access latency jitter in cycles
        (each access adds 0..dram_jitter-1).  Models refresh/command
        interference; keeps uniform workloads from running phase-locked.
        0 disables jitter (useful for exact-arithmetic tests).

    The machine is fixed where the paper fixes it: each SM issues one
    warp instruction per cycle (Table V), and among ready warps the
    earliest-dispatched one issues first (greedy-then-oldest).
    """

    num_sms: int = 14
    warps_per_sm: int = 48
    max_blocks_per_sm: int = 8
    l1_kib: int = 16
    l1_line: int = 128
    l2_kib: int = 768
    l2_line: int = 128
    l1_latency: int = 28
    l2_latency: int = 120
    dram_latency: int = 220
    dram_row_miss_penalty: int = 110
    dram_channels: int = 6
    dram_banks: int = 16
    dram_service: int = 16
    dram_row_bytes: int = 2048
    dram_jitter: int = 9

    def __post_init__(self) -> None:
        if self.num_sms <= 0:
            raise ValueError("num_sms must be positive")
        if self.warps_per_sm <= 0:
            raise ValueError("warps_per_sm must be positive")
        for name in ("l1_line", "l2_line"):
            line = getattr(self, name)
            if line & (line - 1):
                raise ValueError(f"{name} must be a power of two")

    def sm_occupancy(self, warps_per_block: int) -> int:
        """Concurrent thread blocks on one SM for a kernel with
        ``warps_per_block`` warps per thread block (Fig. 1 "SM occupancy")."""
        if warps_per_block <= 0:
            raise ValueError("warps_per_block must be positive")
        by_warps = self.warps_per_sm // warps_per_block
        return max(1, min(self.max_blocks_per_sm, by_warps))

    def system_occupancy(self, warps_per_block: int) -> int:
        """Maximum concurrent thread blocks machine-wide (Fig. 1
        "system occupancy"); this is also the epoch size of Eq. 4."""
        return self.num_sms * self.sm_occupancy(warps_per_block)

    def with_(self, **changes) -> "GPUConfig":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class SamplingConfig:
    """TBPoint sampling parameters (Section V-A).

    Attributes
    ----------
    inter_threshold:
        Distance threshold sigma for hierarchical clustering of
        inter-launch feature vectors (paper: 0.1).
    intra_threshold:
        Distance threshold sigma for hierarchical clustering of epoch
        intra-feature vectors (paper: 0.2).
    variation_factor:
        Epochs whose variation factor (Eq. 5) exceeds this are treated as
        containing outlier thread blocks and get singleton clusters
        (paper: 0.3).
    warm_tolerance:
        Relative IPC difference between consecutive sampling units below
        which cache state is considered stable and fast-forwarding begins
        (paper: 10%).
    min_warm_units:
        Minimum number of completed sampling units before fast-forwarding
        may start (>= 2 because the warming test compares two units; the
        default of 3 keeps the launch's cold-start ramp — which lives in
        the first unit — out of the comparison).
    min_region_epochs:
        Homogeneous regions shorter than this many epochs are not worth
        sampling and are simulated as usual.
    """

    inter_threshold: float = 0.1
    intra_threshold: float = 0.2
    variation_factor: float = 0.3
    warm_tolerance: float = 0.10
    min_warm_units: int = 3
    min_region_epochs: int = 2

    def __post_init__(self) -> None:
        if self.inter_threshold < 0 or self.intra_threshold < 0:
            raise ValueError("clustering thresholds must be non-negative")
        if not 0 < self.warm_tolerance < 1:
            raise ValueError("warm_tolerance must be in (0, 1)")
        if self.min_warm_units < 2:
            raise ValueError("min_warm_units must be >= 2")

    def with_(self, **changes) -> "SamplingConfig":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs for experiment drivers and baselines.

    Attributes
    ----------
    scale:
        Workload scale factor in (0, 1]; 1.0 reproduces the paper-scale
        thread-block counts of Table VI.  Benches default to a reduced
        scale so the whole evaluation runs in minutes.
    seed:
        Master RNG seed; every stochastic step (workload generation,
        random-sampling baseline, k-means initialization, Monte Carlo)
        derives its stream from this.
    random_fraction:
        Fraction of sampling units simulated by the Random baseline
        (paper: 10%).
    target_units:
        Number of fixed-size sampling units the Full run is divided into
        for the Random and Ideal-SimPoint baselines.  The paper uses
        one-million-instruction units; we size units as
        ``total_insts / target_units`` so scaled-down workloads keep a
        comparable unit count.
    simpoint_max_k:
        Upper bound on k explored by the BIC search of Ideal-SimPoint.
    """

    scale: float = 0.125
    seed: int = 2014
    random_fraction: float = 0.10
    target_units: int = 100
    simpoint_max_k: int = 30

    def __post_init__(self) -> None:
        if not 0 < self.scale <= 1:
            raise ValueError("scale must be in (0, 1]")
        if not 0 < self.random_fraction <= 1:
            raise ValueError("random_fraction must be in (0, 1]")
        if self.target_units < 2:
            raise ValueError("target_units must be >= 2")

    def with_(self, **changes) -> "ExperimentConfig":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **changes)


#: Default machine used throughout the evaluation (Table V).
DEFAULT_GPU = GPUConfig()

#: Default sampling parameters (Section V-A).
DEFAULT_SAMPLING = SamplingConfig()
