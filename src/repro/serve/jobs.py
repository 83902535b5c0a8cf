"""Warm-state job execution shared by every serve compute path.

PR 8 ran every compute request on the daemon's thread pool via a
private ``_run_job`` closure over the :class:`~repro.serve.server.Server`
object.  PR 9 adds a second place the same job must run — long-lived
supervised *worker processes* (:mod:`repro.serve.supervisor`) — so the
warm stores and the request body are factored out here as
:class:`JobRunner`:

* the daemon owns one ``JobRunner`` for its in-process thread path
  (and for degraded mode when the worker pool is down);
* each worker process owns its own ``JobRunner`` — same stores, same
  compute body, no locks contended (a worker runs one job at a time,
  but the locks make the runner safe under the daemon's thread pool).

The bit-identity contract rides on this sharing: whatever path a
request takes — thread, worker, worker-after-crash-retry, degraded
fallback — it executes *this* code against warm stores that are pure
caches, so every eventually-served payload equals
:func:`repro.serve.payloads.direct_payload` for the same request.

Heartbeats: :meth:`JobRunner.run` accepts an optional ``heartbeat``
callback and invokes it at the job's coarse phase boundaries (request
accepted, kernel resident, profile resolved).  Worker processes wire it
to a pipe send so the supervisor sees per-request progress; the thread
path passes nothing.  The callback must be observation-free — it never
influences results (the simulation hot loop itself is one Python call,
so phase boundaries are the finest honest granularity).
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass

from repro.config import GPUConfig, SamplingConfig
from repro.exec.cache import ProfileCache, kernel_cache_key
from repro.exec.engine import ExecutionConfig
from repro.profiler.functional import KernelProfile, profile_kernel
from repro.serve.payloads import RequestError, result_payload, tbpoint_payload
from repro.sim.gpu import GPUSimulator
from repro.trace import KernelTrace
from repro.workloads import get_workload


@dataclass
class JobMeta:
    """Per-job observations made where the job ran (executor thread or
    worker process) and applied to the daemon's counters on the event
    loop — counters themselves are only ever mutated there."""

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
    """Nearest-rank percentile of a non-empty sorted sample list (used
    by both the server's queue-wait report and the supervisor's)."""
    idx = min(len(samples) - 1, max(0, round(q * (len(samples) - 1))))
    return samples[idx]


class JobRunner:
    """Warm stores + the compute body for one serve execution domain.

    Stores (each a pure cache keyed exactly like PR 8's in-server
    registries, see DESIGN.md §13):

    * idle engines, all the system simulator on the default
      :class:`~repro.config.GPUConfig`;
    * resident kernel traces per (kernel, scale, seed) with block-memo
      windows enlarged to ``block_memo`` (0 = each launch's full block
      count) and a per-kernel serialization lock (the memo window is
      shared mutable state);
    * functional profiles: in-memory mirror over the persistent
      on-disk :class:`~repro.exec.cache.ProfileCache`.
    """

    def __init__(self, block_memo: int = 0, cache_dir: str | None = None):
        self.block_memo = block_memo
        self._idle_engines: list[GPUSimulator] = []
        self._engines_lock = threading.Lock()
        self._engines_built: list[str] = []
        self._kernels: dict[tuple, KernelTrace] = {}
        self._kernel_locks: dict[tuple, threading.Lock] = {}
        self._kernels_lock = threading.Lock()
        self._profiles: dict[str, KernelProfile] = {}
        self._profiles_lock = threading.Lock()
        self._profile_cache = ProfileCache(cache_dir)

    # ------------------------------------------------------------------
    # Warm-state registries
    # ------------------------------------------------------------------
    def get_kernel(self, norm: dict) -> tuple[KernelTrace, threading.Lock, bool]:
        """The resident kernel trace for (kernel, scale, seed), its
        serialization lock, and whether it was already warm."""
        key = (norm["kernel"], norm["scale"], norm["seed"])
        with self._kernels_lock:
            kernel = self._kernels.get(key)
            if kernel is not None:
                return kernel, self._kernel_locks[key], True
        # Build outside the registry lock: synthesis is pure, and a
        # rare double build just loses the race below.
        kernel = get_workload(norm["kernel"], scale=norm["scale"], seed=norm["seed"])
        for launch in kernel.launches:
            launch.resize_block_memo(self.block_memo or launch.num_blocks)
        with self._kernels_lock:
            existing = self._kernels.get(key)
            if existing is not None:
                return existing, self._kernel_locks[key], True
            self._kernels[key] = kernel
            lock = self._kernel_locks[key] = threading.Lock()
        return kernel, lock, False

    def checkout_engine(self) -> tuple[GPUSimulator, bool]:
        """An idle system simulator (compact engine, ``fast`` front end,
        default config) and whether it was warm."""
        with self._engines_lock:
            if self._idle_engines:
                return self._idle_engines.pop(), True
        sim = GPUSimulator(GPUConfig())
        with self._engines_lock:
            self._engines_built.append(f"{sim.engine}/{sim.mem_front_end}")
        return sim, False

    def checkin_engine(self, sim: GPUSimulator) -> None:
        with self._engines_lock:
            self._idle_engines.append(sim)

    def get_profile(self, kernel: KernelTrace) -> tuple[KernelProfile, str]:
        key = kernel_cache_key(kernel)
        with self._profiles_lock:
            prof = self._profiles.get(key)
        if prof is not None:
            return prof, "memory"
        prof = self._profile_cache.get(key, kernel.name)
        source = "disk"
        if prof is None:
            prof = profile_kernel(kernel)
            self._profile_cache.put(key, prof)
            source = "computed"
        with self._profiles_lock:
            self._profiles.setdefault(key, prof)
        return prof, source

    # ------------------------------------------------------------------
    # Introspection (the daemon's stats payload)
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        with self._engines_lock:
            idle_engines = len(self._idle_engines)
            engines_built = list(self._engines_built)
        with self._kernels_lock:
            kernels = sorted(
                f"{name}@{scale:g}/{seed}"
                for name, scale, seed in self._kernels
            )
        with self._profiles_lock:
            profiles = len(self._profiles)
        return {
            "engines_built": engines_built,
            "idle_engines": idle_engines,
            "resident_kernels": kernels,
            "resident_profiles": profiles,
        }

    # ------------------------------------------------------------------
    # The compute body
    # ------------------------------------------------------------------
    def run(self, norm: dict, heartbeat=None) -> tuple[dict, JobMeta]:
        """Execute one normalized compute request: warm state in, pure
        simulation, JSON payload out.  Serializes on the kernel's
        resident lock (shared block-memo window).  ``heartbeat`` (if
        given) is called at phase boundaries — progress signal only,
        never results."""
        if heartbeat is not None:
            heartbeat()
        kernel, kernel_lock, kernel_warm = self.get_kernel(norm)
        meta = JobMeta(kind=norm["kind"], kernel_warm=kernel_warm)
        sim, warm = self.checkout_engine()
        meta.engine_warm = warm
        if heartbeat is not None:
            heartbeat()
        try:
            with kernel_lock:
                if norm["kind"] == "simulate":
                    if not 0 <= norm["launch"] < len(kernel.launches):
                        raise RequestError(
                            f"launch {norm['launch']} out of range: "
                            f"{norm['kernel']} has {len(kernel.launches)} "
                            f"launches at scale {norm['scale']:g}"
                        )
                    launch = kernel.launches[norm["launch"]]
                    regen0 = launch.regenerations
                    result = sim.run_launch(launch)
                    meta.block_regenerations = launch.regenerations - regen0
                    return result_payload(result), meta
                profile, source = self.get_profile(kernel)
                meta.profile_source = source
                if heartbeat is not None:
                    heartbeat()
                regen0 = sum(l.regenerations for l in kernel.launches)
                from repro.core.pipeline import run_tbpoint

                tbp = run_tbpoint(
                    kernel,
                    sim.config,
                    SamplingConfig(),
                    profile=profile,
                    simulator=sim,
                    exec_config=ExecutionConfig(jobs=1, use_cache=False),
                )
                meta.block_regenerations = (
                    sum(l.regenerations for l in kernel.launches) - regen0
                )
                return tbpoint_payload(tbp), meta
        finally:
            self.checkin_engine(sim)


__all__ = ["JobMeta", "JobRunner", "percentile"]
