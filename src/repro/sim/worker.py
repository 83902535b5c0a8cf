"""Warm per-worker simulator state for launch-level parallel simulation.

When :func:`~repro.exec.engine.parallel_map` fans representative-launch
(or full-run) simulations across worker processes, each task needs a
:class:`~repro.sim.gpu.GPUSimulator`.  Building one per task would
throw away the simulator-lifetime trace interning cache (DESIGN.md §7)
that makes re-simulating the near-identical relaunches of one kernel
cheap — exactly the case launch fan-out handles.  Instead the pool is
spawned with :func:`init_worker` as its initializer, which builds one
simulator per worker process; tasks then fetch it with
:func:`get_simulator`, which reuses the warm instance whenever the
requested config matches and transparently rebuilds it otherwise (e.g.
a respawned pool serving a different sweep point, or the in-parent
serial fallback of a degraded task).

Warm simulators always run the system path (compact engine, ``fast``
memory front end); the oracles are built directly by the tests that
use them, so the *identity under which a warm simulator may be
reused* is its :class:`~repro.config.GPUConfig` alone — a frozen
(hashable, eq-by-value) dataclass.  This registry keys simulators by it
and can never reuse across a config change.  The ``repro serve`` daemon
does not use it: it holds one default-config simulator of its own
(:meth:`~repro.serve.jobs.JobRunner.get_engine`).

Correctness does not depend on reuse: ``run_launch`` resets the memory
hierarchy per launch and the interning cache is an id-pinned pure
cache, so a warm simulator is bit-identical to a fresh one (the
parallel-vs-serial property tests cover this path).  The module global
is per-process state — never pickled, never shared.

The registry holds :data:`MAX_WARM_SIMULATORS` entries, FIFO-evicted,
so a process that meets a few configs in turn — the parent, when
``parallel_map`` runs tasks of successive sweep points in-process (its
serial path, or the last attempt of a degraded task) — does not rebuild
at every switch.  Sweep fan-out workers see one config and one resident
simulator.
"""

from __future__ import annotations

from repro.config import GPUConfig
from repro.sim.gpu import GPUSimulator

#: Warm simulators kept per process before the oldest is evicted.
#: Small on purpose: each holds engine state plus interning tables, and
#: one process rarely serves more than a few distinct configs.
MAX_WARM_SIMULATORS = 4

#: The process-local warm registry, keyed by config
#: (insertion-ordered dict → FIFO eviction).
_SIMS: dict[GPUConfig, GPUSimulator] = {}


def init_worker(gpu: GPUConfig) -> None:
    """Process-pool initializer: build this worker's simulator once.

    Runs at worker spawn (including pool respawns after a broken
    pool).  Only *primes* state — results never depend on it.
    """
    _SIMS.clear()
    get_simulator(gpu)


def get_simulator(gpu: GPUConfig) -> GPUSimulator:
    """The process-local simulator for this config.

    Returns the resident instance for the config when one exists
    (built by :func:`init_worker` or a previous task) and builds —
    and registers — a replacement otherwise, evicting the oldest
    resident past :data:`MAX_WARM_SIMULATORS`.
    """
    sim = _SIMS.get(gpu)
    if sim is None:
        sim = GPUSimulator(gpu)
        while len(_SIMS) >= MAX_WARM_SIMULATORS:
            _SIMS.pop(next(iter(_SIMS)))
        _SIMS[gpu] = sim
    return sim


def warm_simulator_count() -> int:
    """How many simulators this process keeps resident (tests and
    worker stats)."""
    return len(_SIMS)


__all__ = [
    "MAX_WARM_SIMULATORS",
    "init_worker",
    "get_simulator",
    "warm_simulator_count",
]
