"""The end-to-end TBPoint pipeline.

``run_tbpoint`` executes the whole flow of Figs. 2-3 for one kernel:

1. one-time functional profiling (or reuse of a supplied profile);
2. inter-launch sampling: Eq. 2 features -> hierarchical clustering ->
   representative launches;
3. for each representative launch: Eq. 4 epochs -> Eq. 5 intra-feature
   vectors -> homogeneous-region identification -> timing simulation
   with homogeneous-region sampling;
4. composition of the kernel-level IPC estimate (Table IV).

Both sampling levels can be disabled independently (they are orthogonal,
as the paper notes under Table IV), which the ablation benches use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import GPUConfig, SamplingConfig
from repro.core.epochs import build_epochs
from repro.core.estimates import KernelEstimate, compose_kernel_estimate
from repro.core.interlaunch import InterLaunchPlan, plan_inter_launch, trivial_plan
from repro.core.intralaunch import RegionSampler
from repro.core.regions import RegionTable, identify_regions
from repro.exec.cache import cached_profile
from repro.exec.engine import DEFAULT_EXECUTION, ExecutionConfig, parallel_map
from repro.profiler.functional import KernelProfile, LaunchProfile
from repro.sim.gpu import LaunchResult
from repro.sim.worker import get_simulator, init_worker
from repro.trace import KernelTrace
from repro.trace.launch import LaunchTrace


@dataclass
class TBPointResult:
    """Everything a TBPoint run produces for one kernel."""

    kernel_name: str
    estimate: KernelEstimate
    plan: InterLaunchPlan
    region_tables: dict[int, RegionTable] = field(default_factory=dict)
    rep_results: dict[int, LaunchResult] = field(default_factory=dict)
    samplers: dict[int, RegionSampler] = field(default_factory=dict)
    #: How the representative-launch fan-out actually executed
    #: (``path``/``workers``/``items``/``reason``, from ``parallel_map``).
    exec_meta: dict = field(default_factory=dict)

    @property
    def overall_ipc(self) -> float:
        return self.estimate.overall_ipc

    @property
    def sample_size(self) -> float:
        return self.estimate.sample_size

    @property
    def intra_skipped_insts(self) -> int:
        """Warp instructions skipped by fast-forwarding within the
        simulated launches (Fig. 11's intra-launch share)."""
        return sum(r.skipped_warp_insts for r in self.rep_results.values())

    @property
    def inter_skipped_insts(self) -> int:
        """Warp instructions of launches never simulated (Fig. 11's
        inter-launch share)."""
        return sum(
            l.warp_insts for l in self.estimate.launches if not l.simulated
        )

    def skip_breakdown(self) -> tuple[float, float]:
        """Relative (inter, intra) shares of all skipped instructions —
        one Fig. 11 bar.  (0, 0) if nothing was skipped."""
        inter = self.inter_skipped_insts
        intra = self.intra_skipped_insts
        total = inter + intra
        if total == 0:
            return (0.0, 0.0)
        return (inter / total, intra / total)


def simulate_representative(
    task: tuple[LaunchTrace, LaunchProfile, GPUConfig, SamplingConfig, bool],
) -> tuple[RegionTable | None, RegionSampler | None, LaunchResult]:
    """Simulate one representative launch (steps 3 of Figs. 2-3): build
    the epoch table, identify homogeneous regions, run the timing
    simulation with region sampling.

    ``task`` is ``(launch, launch_profile, gpu, sampling, use_intra)``.
    This is the unit of work :func:`run_tbpoint` maps with
    ``parallel_map``, in a pool worker or in this process alike; it runs
    on the process's warm simulator (:mod:`repro.sim.worker`).  Launch
    timing depends only on the task, never on simulation order (the
    memory hierarchy is reset per launch), which is why parallel and
    serial runs are bit-identical.
    """
    launch, launch_profile, gpu, sampling, use_intra = task
    table: RegionTable | None = None
    sampler: RegionSampler | None = None
    if use_intra:
        occupancy = gpu.system_occupancy(launch.warps_per_block)
        epochs = build_epochs(launch_profile, occupancy)
        table = identify_regions(epochs, sampling)
        sampler = RegionSampler(
            region_of=table.region_of,
            block_warp_insts=launch_profile.warp_insts,
            config=sampling,
            occupancy=occupancy,
            cluster_of_region={r.region_id: r.cluster for r in table.regions},
        )
    result = get_simulator(gpu).run_launch(launch, sampler=sampler)
    return table, sampler, result


def run_tbpoint(
    kernel: KernelTrace,
    gpu: GPUConfig | None = None,
    sampling: SamplingConfig | None = None,
    *,
    profile: KernelProfile | None = None,
    use_inter: bool = True,
    use_intra: bool = True,
    feature_mask: tuple[bool, bool, bool, bool] | None = None,
    extra_features: np.ndarray | None = None,
    exec_config: ExecutionConfig | None = None,
) -> TBPointResult:
    """Run TBPoint on one kernel and return the composed estimate.

    Parameters
    ----------
    kernel:
        The kernel trace (all launches).
    gpu / sampling:
        Machine and sampling configurations (defaults: Table V and the
        paper's thresholds).  The simulator for ``gpu`` is the
        process's warm one (:mod:`repro.sim.worker`), never an argument:
        timing depends on the machine alone.
    profile:
        Reuse of the one-time functional profile (hardware independent —
        valid across GPU configurations, per Section V-C).
    use_inter / use_intra:
        Enable/disable the two orthogonal sampling levels.
    feature_mask / extra_features:
        Forwarded to :func:`plan_inter_launch` for ablation studies and
        the BBV-feature extension.
    exec_config:
        Batch execution: worker count for fanning representative-launch
        simulations across processes, and whether to consult the
        persistent profile cache when ``profile`` is not supplied.
        ``None`` keeps the library default (serial, no cache).  Serial
        or pooled, the launches go through ``parallel_map`` with the
        same retry budget and ``exec_meta`` record.  The merge is
        deterministic — results are keyed by launch ID and collected in
        plan order — so any ``jobs`` value yields bit-identical
        estimates.
    """
    gpu = gpu or GPUConfig()
    sampling = sampling or SamplingConfig()
    exec_config = exec_config or DEFAULT_EXECUTION
    if profile is None:
        profile = cached_profile(kernel, exec_config)

    if use_inter:
        plan = plan_inter_launch(
            profile, sampling, include=feature_mask, extra_features=extra_features
        )
    else:
        plan = trivial_plan(profile)

    region_tables: dict[int, RegionTable] = {}
    rep_results: dict[int, LaunchResult] = {}
    samplers: dict[int, RegionSampler] = {}
    sim_launches = plan.simulated_launches
    tasks = [
        (kernel.launches[lid], profile.launches[lid], gpu, sampling, use_intra)
        for lid in sim_launches
    ]
    exec_meta: dict = {}
    outcomes = parallel_map(
        simulate_representative, tasks, exec_config.effective_jobs,
        meta=exec_meta, config=exec_config,
        initializer=init_worker, initargs=(gpu,),
    )
    for launch_id, (table, sampler, result) in zip(sim_launches, outcomes):
        if table is not None:
            region_tables[launch_id] = table
        if sampler is not None:
            samplers[launch_id] = sampler
        rep_results[launch_id] = result

    estimate = compose_kernel_estimate(profile, plan, rep_results)
    return TBPointResult(
        kernel_name=kernel.name,
        estimate=estimate,
        plan=plan,
        region_tables=region_tables,
        rep_results=rep_results,
        samplers=samplers,
        exec_meta=exec_meta,
    )


__all__ = ["TBPointResult", "run_tbpoint", "simulate_representative"]
