"""Scale-sensitivity study (beyond the paper).

EXPERIMENTS.md attributes the reduced-scale TBPoint sample sizes to
warm-up overhead that amortizes at paper scale.  This driver makes that
claim checkable: it runs TBPoint (against a full reference) on one
kernel across workload scales and reports how error and sample size move
as launches grow toward Table VI size.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines import run_full
from repro.config import GPUConfig, SamplingConfig
from repro.core.estimates import sampling_error
from repro.core.pipeline import run_tbpoint
from repro.exec.cache import cached_profile
from repro.exec.engine import DEFAULT_EXECUTION, ExecutionConfig, parallel_map
from repro.exec.journal import open_sweep_journal
from repro.workloads import get_workload


@dataclass(frozen=True)
class ScalePoint:
    """TBPoint accuracy/cost at one workload scale."""

    kernel: str
    scale: float
    num_blocks: int
    total_warp_insts: int
    full_ipc: float
    tbpoint_ipc: float
    error: float
    sample_size: float


def _scale_task(task) -> ScalePoint:
    """Picklable per-scale worker (each scale is an independent trace)."""
    kernel_name, scale, seed, gpu, sampling, exec_config = task
    kernel = get_workload(kernel_name, scale=scale, seed=seed)
    profile = cached_profile(kernel, exec_config)
    full = run_full(kernel, gpu, exec_config=exec_config)
    tbp = run_tbpoint(
        kernel, gpu, sampling, profile=profile, exec_config=exec_config
    )
    return ScalePoint(
        kernel=kernel_name,
        scale=scale,
        num_blocks=kernel.num_blocks,
        total_warp_insts=profile.total_warp_insts,
        full_ipc=full.overall_ipc,
        tbpoint_ipc=tbp.overall_ipc,
        error=sampling_error(tbp.overall_ipc, full.overall_ipc),
        sample_size=tbp.sample_size,
    )


def run_scaling(
    kernel_name: str,
    scales: tuple[float, ...] = (0.0625, 0.125, 0.25, 0.5),
    seed: int = 2014,
    gpu: GPUConfig | None = None,
    sampling: SamplingConfig | None = None,
    exec_config: ExecutionConfig | None = None,
) -> list[ScalePoint]:
    """Measure TBPoint error and sample size across workload scales.

    Each scale gets its own full-simulation reference, so the cost grows
    linearly with the largest scale; keep the list modest for big
    kernels.  With ``exec_config.jobs > 1`` and at least two scales to
    compute, the scales fan out across worker processes (each one
    serial inside); points come back in input-scale order regardless.
    With ``exec_config.journal`` each completed scale point is
    checkpointed, and ``exec_config.resume`` skips journaled scales
    (CLI ``--resume``).
    """
    gpu = gpu or GPUConfig()
    sampling = sampling or SamplingConfig()
    exec_config = exec_config or DEFAULT_EXECUTION
    journal, done = open_sweep_journal(
        "scaling", (kernel_name, tuple(scales), seed, gpu, sampling),
        exec_config,
    )
    todo = [scale for scale in scales if repr(scale) not in done]
    inner = exec_config.for_tasks(len(todo))
    tasks = [
        (kernel_name, scale, seed, gpu, sampling, inner) for scale in todo
    ]
    on_result = None
    if journal is not None:
        on_result = lambda i, point: journal.record(repr(todo[i]), point)  # noqa: E731
    fresh = parallel_map(
        _scale_task, tasks, exec_config.effective_jobs,
        config=exec_config, on_result=on_result,
    )
    by_scale = {**done, **{repr(s): p for s, p in zip(todo, fresh)}}
    return [by_scale[repr(scale)] for scale in scales]


__all__ = ["ScalePoint", "run_scaling"]
