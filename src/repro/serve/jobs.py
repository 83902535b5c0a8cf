"""Warm-state job execution inside one serve worker process.

Every compute request runs in a supervised worker process
(:mod:`repro.serve.supervisor`), and each worker owns one
:class:`JobRunner`: its warm stores plus the request body.  A worker
runs one job at a time, so the runner needs no locks.

The bit-identity contract rides on this: whatever worker a request
lands on — first attempt or a retry after a crash or hang — it
executes *this* code against warm stores that are pure caches, so
every served payload equals
:func:`repro.serve.payloads.direct_payload` for the same request.

Heartbeats: :meth:`JobRunner.run` accepts an optional ``heartbeat``
callback and invokes it at the job's coarse phase boundaries (request
accepted, kernel resident, profile resolved).  Workers wire it to a
pipe send so the supervisor sees per-request progress.  The callback
must be observation-free — it never influences results (the
simulation hot loop itself is one Python call, so phase boundaries are
the finest honest granularity).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.config import GPUConfig, SamplingConfig
from repro.exec.cache import ProfileCache, kernel_cache_key
from repro.exec.engine import ExecutionConfig
from repro.profiler.functional import KernelProfile, profile_kernel
from repro.serve.payloads import RequestError, result_payload, tbpoint_payload
from repro.sim.worker import get_simulator, init_worker, is_warm
from repro.trace import KernelTrace
from repro.workloads import get_workload


@dataclass
class JobMeta:
    """Per-job observations made in the worker process and applied to
    the daemon's counters on the event loop — counters themselves are
    only ever mutated there."""

    kind: str
    engine_warm: bool = False
    kernel_warm: bool = False
    block_regenerations: int = 0
    profile_source: str | None = None

    def as_dict(self) -> dict:
        """JSON/pipe-safe form (what a worker sends back to the
        supervisor alongside the payload)."""
        return asdict(self)


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty sorted sample list (the
    daemon's queue-wait report)."""
    idx = min(len(samples) - 1, max(0, round(q * (len(samples) - 1))))
    return samples[idx]


class JobRunner:
    """Warm stores + the compute body for one worker process.

    Stores (each a pure cache, see DESIGN.md §13):

    * one engine, the process's warm simulator
      (:mod:`repro.sim.worker`) for the default
      :class:`~repro.config.GPUConfig`, built on first use — the
      runner starts from an empty registry, so a forked worker never
      runs on a simulator inherited from the daemon;
    * resident kernel traces per (kernel, scale, seed) with each
      launch's block-memo window enlarged to its full block count, so
      warm traces never re-synthesize a block;
    * functional profiles: in-memory mirror over the persistent
      on-disk :class:`~repro.exec.cache.ProfileCache`.
    """

    def __init__(self, cache_dir: str | None = None):
        init_worker()
        self._kernels: dict[tuple, KernelTrace] = {}
        self._profiles: dict[str, KernelProfile] = {}
        self._profile_cache = ProfileCache(cache_dir)

    # ------------------------------------------------------------------
    # Warm-state registries
    # ------------------------------------------------------------------
    def get_kernel(self, norm: dict) -> tuple[KernelTrace, bool]:
        """The resident kernel trace for (kernel, scale, seed) and
        whether it was already warm."""
        key = (norm["kernel"], norm["scale"], norm["seed"])
        kernel = self._kernels.get(key)
        if kernel is not None:
            return kernel, True
        kernel = get_workload(norm["kernel"], scale=norm["scale"], seed=norm["seed"])
        for launch in kernel.launches:
            launch.resize_block_memo(launch.num_blocks)
        self._kernels[key] = kernel
        return kernel, False

    def get_profile(self, kernel: KernelTrace) -> tuple[KernelProfile, str]:
        key = kernel_cache_key(kernel)
        prof = self._profiles.get(key)
        if prof is not None:
            return prof, "memory"
        prof = self._profile_cache.get(key, kernel.name)
        source = "disk"
        if prof is None:
            prof = profile_kernel(kernel)
            self._profile_cache.put(key, prof)
            source = "computed"
        self._profiles[key] = prof
        return prof, source

    # ------------------------------------------------------------------
    # The compute body
    # ------------------------------------------------------------------
    def run(self, norm: dict, heartbeat=None) -> tuple[dict, JobMeta]:
        """Execute one normalized compute request: warm state in, pure
        simulation, JSON payload out.  ``heartbeat`` (if given) is
        called at phase boundaries — progress signal only, never
        results."""
        if heartbeat is not None:
            heartbeat()
        kernel, kernel_warm = self.get_kernel(norm)
        gpu = GPUConfig()
        meta = JobMeta(
            kind=norm["kind"], engine_warm=is_warm(gpu), kernel_warm=kernel_warm
        )
        if heartbeat is not None:
            heartbeat()
        if norm["kind"] == "simulate":
            if not 0 <= norm["launch"] < len(kernel.launches):
                raise RequestError(
                    f"launch {norm['launch']} out of range: "
                    f"{norm['kernel']} has {len(kernel.launches)} "
                    f"launches at scale {norm['scale']:g}"
                )
            launch = kernel.launches[norm["launch"]]
            regen0 = launch.regenerations
            result = get_simulator(gpu).run_launch(launch)
            meta.block_regenerations = launch.regenerations - regen0
            return result_payload(result), meta
        profile, source = self.get_profile(kernel)
        meta.profile_source = source
        if heartbeat is not None:
            heartbeat()
        regen0 = sum(l.regenerations for l in kernel.launches)
        from repro.core.pipeline import run_tbpoint

        # retries=0: the supervisor retries a failed job (DESIGN.md
        # §14); retrying inside the job too would multiply the budget.
        tbp = run_tbpoint(
            kernel,
            gpu,
            SamplingConfig(),
            profile=profile,
            exec_config=ExecutionConfig(jobs=1, use_cache=False, retries=0),
        )
        meta.block_regenerations = (
            sum(l.regenerations for l in kernel.launches) - regen0
        )
        return tbpoint_payload(tbp), meta


__all__ = ["JobMeta", "JobRunner", "percentile"]
