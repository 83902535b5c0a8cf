"""The process's one warm simulator: where every run gets its simulator.

``run_tbpoint``, ``run_full``, the sweeps and the ``repro serve``
workers never build a :class:`~repro.sim.gpu.GPUSimulator` themselves;
their launch tasks call :func:`get_simulator` with the machine they
simulate.  The process keeps at most one simulator, for the last
:class:`~repro.config.GPUConfig` asked, so the simulator-lifetime trace
interning cache (DESIGN.md §7) carries over from one launch, one run and
one request to the next as long as the machine stays the same — in
pool workers and in a serial run alike.  Asking for another machine
replaces it.

Pools are spawned with :func:`init_worker` as their initializer, which
builds the worker's simulator once at spawn (and again at a respawn
after a broken pool).  A forked child inherits its parent's registry, so
:func:`init_worker` first empties it: a worker never runs on a
simulator built before the fork.

Warm simulators always run the system path (compact engine, ``fast``
memory front end); the oracles are built directly by the tests that
use them, so the *identity under which a warm simulator may be
reused* is its :class:`~repro.config.GPUConfig` alone — a frozen
(hashable, eq-by-value) dataclass.

Correctness does not depend on reuse: ``run_launch`` resets the memory
hierarchy per launch and the interning cache is an id-pinned pure
cache, so a warm simulator is bit-identical to a fresh one (the
parallel-vs-serial property tests cover this path).  The registry is
per-process state — never pickled, never shared — and is mutated in
place, never rebound.
"""

from __future__ import annotations

from repro.config import GPUConfig
from repro.sim.gpu import GPUSimulator

#: The process-local registry: at most one entry, the simulator for
#: the last config asked.
_SIMS: dict[GPUConfig, GPUSimulator] = {}


def init_worker(gpu: GPUConfig | None = None) -> None:
    """Start this process from an empty registry and, given ``gpu``,
    build that machine's simulator now.

    The process-pool initializer (run at worker spawn, including pool
    respawns), and the way a serve worker or a cold oracle drops a
    simulator it inherited.  Only *primes* state — results never
    depend on it.
    """
    _SIMS.clear()
    if gpu is not None:
        get_simulator(gpu)


def get_simulator(gpu: GPUConfig) -> GPUSimulator:
    """The process's simulator for this config: the resident one when
    it models ``gpu``, otherwise a new one that replaces it."""
    sim = _SIMS.get(gpu)
    if sim is None:
        _SIMS.clear()
        sim = _SIMS[gpu] = GPUSimulator(gpu)
    return sim


def is_warm(gpu: GPUConfig) -> bool:
    """Whether :func:`get_simulator` would return an existing simulator
    for ``gpu`` (the serve worker's ``engine_warm`` observation)."""
    return gpu in _SIMS


__all__ = ["init_worker", "get_simulator", "is_warm"]
