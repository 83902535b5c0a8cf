"""Per-figure experiment drivers.

Each public ``run_*`` function regenerates the data behind one of the
paper's tables or figures; the benches under ``benchmarks/`` are thin
wrappers that time these drivers and print their rows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.baselines import (
    BaselineEstimate,
    estimate_random,
    estimate_simpoint,
    run_full,
)
from repro.config import ExperimentConfig, GPUConfig, SamplingConfig
from repro.core.estimates import geometric_mean, sampling_error
from repro.core.pipeline import TBPointResult, run_tbpoint
from repro.exec.cache import cached_profile
from repro.exec.engine import DEFAULT_EXECUTION, ExecutionConfig
from repro.exec.journal import run_sweep
from repro.model.montecarlo import IPCVariation, ipc_variation
from repro.profiler.functional import KernelProfile
from repro.workloads import ALL_KERNELS, benchmark_info, get_workload

#: Minimum sampling-unit size (warp instructions): keeps units from
#: collapsing to a handful of cycles on tiny scaled-down workloads.
MIN_UNIT_INSTS = 2_000


@dataclass
class KernelComparison:
    """Fig. 9 / Fig. 10 data for one kernel: the four techniques."""

    kernel: str
    kind: str
    full_ipc: float
    tbpoint: TBPointResult
    simpoint: BaselineEstimate
    random: BaselineEstimate
    total_warp_insts: int

    @property
    def tbpoint_error(self) -> float:
        return sampling_error(self.tbpoint.overall_ipc, self.full_ipc)

    @property
    def simpoint_error(self) -> float:
        return sampling_error(self.simpoint.overall_ipc, self.full_ipc)

    @property
    def random_error(self) -> float:
        return sampling_error(self.random.overall_ipc, self.full_ipc)

    @property
    def tbpoint_sample_size(self) -> float:
        return self.tbpoint.sample_size

    @property
    def simpoint_sample_size(self) -> float:
        return self.simpoint.sample_size

    @property
    def random_sample_size(self) -> float:
        return self.random.sample_size

    @property
    def skip_breakdown(self) -> tuple[float, float]:
        """(inter, intra) relative skipped-instruction shares (Fig. 11)."""
        return self.tbpoint.skip_breakdown()


@dataclass
class ComparisonSummary:
    """The full Fig. 9 + Fig. 10 sweep with headline geomeans."""

    comparisons: list[KernelComparison] = field(default_factory=list)
    #: How the per-kernel sweep executed: ``run_sweep``'s meta, i.e. the
    #: ``parallel_map`` record (``path``/``workers``/``items`` and the
    #: fault counters) plus ``resumed``.  ``items`` counts only kernels
    #: computed this invocation — on ``--resume`` it excludes the
    #: journaled ones, which is how the chaos tests check resumption.
    exec_meta: dict = field(default_factory=dict)

    def geomean_errors(self) -> dict[str, float]:
        return {
            "tbpoint": geometric_mean(c.tbpoint_error for c in self.comparisons),
            "ideal-simpoint": geometric_mean(
                c.simpoint_error for c in self.comparisons
            ),
            "random": geometric_mean(c.random_error for c in self.comparisons),
        }

    def geomean_sample_sizes(self) -> dict[str, float]:
        return {
            "tbpoint": geometric_mean(
                c.tbpoint_sample_size for c in self.comparisons
            ),
            "ideal-simpoint": geometric_mean(
                c.simpoint_sample_size for c in self.comparisons
            ),
            "random": geometric_mean(
                c.random_sample_size for c in self.comparisons
            ),
        }


def _unit_size(total_warp_insts: int, target_units: int) -> int:
    return max(MIN_UNIT_INSTS, total_warp_insts // target_units)


def run_kernel_comparison(
    name: str,
    experiment: ExperimentConfig | None = None,
    gpu: GPUConfig | None = None,
    sampling: SamplingConfig | None = None,
    profile: KernelProfile | None = None,
    exec_config: ExecutionConfig | None = None,
) -> KernelComparison:
    """Run Full, TBPoint, Ideal-SimPoint and Random on one kernel."""
    experiment = experiment or ExperimentConfig()
    gpu = gpu or GPUConfig()
    sampling = sampling or SamplingConfig()
    exec_config = exec_config or DEFAULT_EXECUTION

    kernel = get_workload(name, scale=experiment.scale, seed=experiment.seed)
    if profile is None:
        profile = cached_profile(kernel, exec_config)

    unit_insts = _unit_size(profile.total_warp_insts, experiment.target_units)
    full = run_full(kernel, gpu, unit_insts=unit_insts, exec_config=exec_config)
    tbp = run_tbpoint(
        kernel, gpu, sampling, profile=profile, exec_config=exec_config
    )
    rng = np.random.default_rng(experiment.seed)
    simpoint = estimate_simpoint(full, max_k=experiment.simpoint_max_k, rng=rng)
    random_est = estimate_random(
        full, fraction=experiment.random_fraction, rng=rng
    )
    return KernelComparison(
        kernel=name,
        kind=benchmark_info(name).kind,
        full_ipc=full.overall_ipc,
        tbpoint=tbp,
        simpoint=simpoint,
        random=random_est,
        total_warp_insts=full.total_warp_insts,
    )


def _comparison_task(task, exec_config: ExecutionConfig) -> KernelComparison:
    """Picklable per-kernel worker for the Fig. 9/10 sweep."""
    name, experiment, gpu, sampling = task
    return run_kernel_comparison(
        name, experiment, gpu, sampling, exec_config=exec_config
    )


def run_fig9_fig10(
    kernels: tuple[str, ...] = ALL_KERNELS,
    experiment: ExperimentConfig | None = None,
    gpu: GPUConfig | None = None,
    sampling: SamplingConfig | None = None,
    exec_config: ExecutionConfig | None = None,
) -> ComparisonSummary:
    """The headline evaluation: all kernels x all techniques.

    With ``exec_config.jobs > 1`` and at least two kernels to compute,
    the per-kernel comparisons fan out across worker processes (each
    worker runs its kernel serially, so pools never nest); a single
    kernel fans out its launches instead.  Results are merged in kernel
    order, identical to the serial sweep.

    With the profile cache on, each completed kernel is checkpointed to
    the sweep journal the moment it finishes, and ``exec_config.resume``
    recovers journaled kernels from a killed earlier run instead of
    recomputing them (CLI ``--resume``); see :func:`run_sweep`.
    """
    experiment = experiment or ExperimentConfig()
    gpu = gpu or GPUConfig()
    sampling = sampling or SamplingConfig()
    summary = ComparisonSummary()
    by_name = run_sweep(
        "fig9_fig10", (tuple(kernels), experiment, gpu, sampling),
        {name: (name, experiment, gpu, sampling) for name in kernels},
        _comparison_task, exec_config or DEFAULT_EXECUTION,
        meta=summary.exec_meta,
    )
    summary.comparisons.extend(by_name[name] for name in kernels)
    return summary


# ----------------------------------------------------------------------
# Fig. 11: inter/intra skipped-instruction breakdown
# ----------------------------------------------------------------------
def _breakdown_task(task, exec_config: ExecutionConfig) -> TBPointResult:
    """Picklable per-kernel worker for the Fig. 11 sweep."""
    name, experiment, gpu, sampling = task
    kernel = get_workload(name, scale=experiment.scale, seed=experiment.seed)
    return run_tbpoint(kernel, gpu, sampling, exec_config=exec_config)


def run_breakdown(
    kernels: tuple[str, ...] = ALL_KERNELS,
    experiment: ExperimentConfig | None = None,
    gpu: GPUConfig | None = None,
    sampling: SamplingConfig | None = None,
    exec_config: ExecutionConfig | None = None,
    meta: dict | None = None,
) -> list[TBPointResult]:
    """TBPoint runs for Fig. 11's skipped-instruction breakdown, one
    result per kernel in input order.  Journals, resumes and fills
    ``meta`` like every sweep (:func:`run_sweep`)."""
    experiment = experiment or ExperimentConfig()
    gpu = gpu or GPUConfig()
    sampling = sampling or SamplingConfig()
    by_name = run_sweep(
        "breakdown", (tuple(kernels), experiment, gpu, sampling),
        {name: (name, experiment, gpu, sampling) for name in kernels},
        _breakdown_task, exec_config or DEFAULT_EXECUTION, meta=meta,
    )
    return [by_name[name] for name in kernels]


# ----------------------------------------------------------------------
# Sensitivity to hardware configuration (Figs. 12-13)
# ----------------------------------------------------------------------
@dataclass
class SensitivityPoint:
    """TBPoint error and sample size for one (warps/SM, #SMs) config."""

    kernel: str
    warps_per_sm: int
    num_sms: int
    error: float
    sample_size: float

    @property
    def label(self) -> str:
        """Fig. 12 legend style: W<warps>S<SMs>."""
        return f"W{self.warps_per_sm}S{self.num_sms}"


#: The hardware configurations swept in Figs. 12-13 (W warps per SM,
#: S SMs) — occupancy varies 4x across the sweep.
SENSITIVITY_CONFIGS: tuple[tuple[int, int], ...] = (
    (24, 7),
    (48, 7),
    (24, 14),
    (48, 14),
)


def _sensitivity_task(task, exec_config: ExecutionConfig) -> list[SensitivityPoint]:
    """Picklable per-kernel worker: all hardware configs of one kernel
    against one shared (cached) functional profile."""
    name, configs, experiment, sampling = task
    kernel = get_workload(name, scale=experiment.scale, seed=experiment.seed)
    profile = cached_profile(kernel, exec_config)  # one-time profiling
    points: list[SensitivityPoint] = []
    for warps, sms in configs:
        gpu = GPUConfig().with_(warps_per_sm=warps, num_sms=sms)
        full = run_full(kernel, gpu, exec_config=exec_config)
        tbp = run_tbpoint(
            kernel, gpu, sampling, profile=profile, exec_config=exec_config
        )
        points.append(
            SensitivityPoint(
                kernel=name,
                warps_per_sm=warps,
                num_sms=sms,
                error=sampling_error(tbp.overall_ipc, full.overall_ipc),
                sample_size=tbp.sample_size,
            )
        )
    return points


def run_sensitivity(
    kernels: tuple[str, ...],
    configs: tuple[tuple[int, int], ...] = SENSITIVITY_CONFIGS,
    experiment: ExperimentConfig | None = None,
    sampling: SamplingConfig | None = None,
    exec_config: ExecutionConfig | None = None,
    meta: dict | None = None,
) -> list[SensitivityPoint]:
    """Run TBPoint against a full reference for each hardware config.

    Per Section V-C, the functional profile is computed once per kernel
    and reused across configurations; only the epoch clustering (inside
    ``run_tbpoint``) is redone, because the system occupancy changes.
    With ``exec_config.jobs > 1`` kernels fan out across worker
    processes; points are returned in (kernel, config) input order
    either way.  Each completed kernel (all its hardware configs) is
    one sweep task: journaled with the cache on, skipped on
    ``exec_config.resume`` (CLI ``--resume``), counted in ``meta``
    (:func:`run_sweep`).
    """
    experiment = experiment or ExperimentConfig()
    sampling = sampling or SamplingConfig()
    by_name = run_sweep(
        "sensitivity", (tuple(kernels), tuple(configs), experiment, sampling),
        {name: (name, configs, experiment, sampling) for name in kernels},
        _sensitivity_task, exec_config or DEFAULT_EXECUTION, meta=meta,
    )
    return [point for name in kernels for point in by_name[name]]


# ----------------------------------------------------------------------
# Fig. 5: the Markov / Monte-Carlo model study
# ----------------------------------------------------------------------
#: The (p, M, N) configurations shown in Fig. 5's legend.
FIG5_CONFIGS: tuple[tuple[float, float, int], ...] = (
    (0.05, 100, 4),
    (0.05, 400, 4),
    (0.1, 100, 4),
    (0.1, 400, 4),
    (0.2, 200, 4),
    (0.05, 100, 8),
    (0.1, 400, 8),
    (0.2, 200, 8),
)


def run_fig5_model(
    configs: tuple[tuple[float, float, int], ...] = FIG5_CONFIGS,
    num_samples: int = 10_000,
    seed: int = 2014,
) -> list[IPCVariation]:
    """Monte-Carlo IPC-variation study for each (p, M, N) curve."""
    rng = np.random.default_rng(seed)
    return [
        ipc_variation(p, m, n, num_samples=num_samples, rng=rng)
        for (p, m, n) in configs
    ]


# ----------------------------------------------------------------------
# Table I: GPU time vs projected simulation time
# ----------------------------------------------------------------------
#: Table I's native GPU execution times (ms, NVIDIA Quadro 6000), from
#: Burtscher et al. via the paper.
TABLE1_GPU_MS: tuple[tuple[str, float], ...] = (
    ("NB", 28557),
    ("SP", 18779),
    ("SSSP", 7067),
    ("PTA", 4485),
    ("TSP", 4456),
    ("DMR", 3391),
    ("MM", 881),
)

#: Assumed effective GPU throughput in warp instructions per second used
#: to convert Table I's wall-clock times into instruction counts
#: (14 SMs x 1.15 GHz x ~0.35 sustained IPC).
GPU_WARP_INSTS_PER_SEC = 5.6e9


@dataclass
class Table1Row:
    benchmark: str
    gpu_ms: float
    projected_sim_seconds: float
    slowdown: float

    @property
    def human_sim_time(self) -> str:
        s = self.projected_sim_seconds
        if s >= 86_400 * 14:
            return f"{s / (86_400 * 7):.2f} weeks"
        if s >= 86_400:
            return f"{s / 86_400:.2f} days"
        return f"{s / 3_600:.2f} hours"


def measure_simulator_throughput(
    kernel_name: str = "hotspot",
    scale: float = 0.5,
    seed: int = 2014,
    gpu: GPUConfig | None = None,
) -> float:
    """Measure this machine's simulator throughput (warp insts/sec) by
    timing a full run of a calibration kernel."""
    kernel = get_workload(kernel_name, scale=scale, seed=seed)
    gpu = gpu or GPUConfig()
    start = time.perf_counter()
    full = run_full(kernel, gpu)
    elapsed = time.perf_counter() - start
    return full.total_warp_insts / elapsed


def run_table1(sim_insts_per_sec: float | None = None) -> list[Table1Row]:
    """Project Table I: simulation times for the paper's GPU timings at
    this machine's measured simulator throughput."""
    if sim_insts_per_sec is None:
        sim_insts_per_sec = measure_simulator_throughput()
    slowdown = GPU_WARP_INSTS_PER_SEC / sim_insts_per_sec
    rows = []
    for name, gpu_ms in TABLE1_GPU_MS:
        insts = gpu_ms / 1_000 * GPU_WARP_INSTS_PER_SEC
        rows.append(
            Table1Row(
                benchmark=name,
                gpu_ms=gpu_ms,
                projected_sim_seconds=insts / sim_insts_per_sec,
                slowdown=slowdown,
            )
        )
    return rows


__all__ = [
    "KernelComparison",
    "ComparisonSummary",
    "run_kernel_comparison",
    "run_fig9_fig10",
    "run_breakdown",
    "SensitivityPoint",
    "SENSITIVITY_CONFIGS",
    "run_sensitivity",
    "FIG5_CONFIGS",
    "run_fig5_model",
    "TABLE1_GPU_MS",
    "Table1Row",
    "measure_simulator_throughput",
    "run_table1",
    "MIN_UNIT_INSTS",
]
