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
from repro.exec.engine import DEFAULT_EXECUTION, ExecutionConfig
from repro.exec.journal import run_sweep
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


def _scale_task(task, exec_config: ExecutionConfig) -> ScalePoint:
    """Picklable per-scale worker (each scale is an independent trace)."""
    kernel_name, scale, seed, gpu, sampling = task
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
    meta: dict | None = None,
) -> list[ScalePoint]:
    """Measure TBPoint error and sample size across workload scales.

    Each scale gets its own full-simulation reference, so the cost grows
    linearly with the largest scale; keep the list modest for big
    kernels.  With ``exec_config.jobs > 1`` and at least two scales to
    compute, the scales fan out across worker processes (each one
    serial inside); points come back in input-scale order regardless.
    Each scale point is one sweep task, keyed ``repr(scale)``: journaled
    with the cache on, skipped on ``exec_config.resume`` (CLI
    ``--resume``), counted in ``meta`` (:func:`run_sweep`).
    """
    gpu = gpu or GPUConfig()
    sampling = sampling or SamplingConfig()
    by_scale = run_sweep(
        "scaling", (kernel_name, tuple(scales), seed, gpu, sampling),
        {repr(s): (kernel_name, s, seed, gpu, sampling) for s in scales},
        _scale_task, exec_config or DEFAULT_EXECUTION, meta=meta,
    )
    return [by_scale[repr(scale)] for scale in scales]


__all__ = ["ScalePoint", "run_scaling"]
