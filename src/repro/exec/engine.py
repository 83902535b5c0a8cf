"""Deterministic, fault-tolerant parallel fan-out over a process pool.

The batch execution engine parallelizes the two embarrassingly parallel
axes of the evaluation:

* *launches* — representative-launch simulations within one
  :func:`~repro.core.pipeline.run_tbpoint` call (and the per-launch
  full-simulation reference), which are independent because the memory
  hierarchy is reset at every launch;
* *kernels* — whole-kernel experiments within a sweep
  (``run_fig9_fig10``, ``run_sensitivity``, ``run_scaling``), which are
  independent by construction.

Determinism contract: :func:`parallel_map` returns results in the exact
order of its input items, every worker computes with the same pure
functions and inputs as the serial path, and nothing about scheduling
leaks into results — so parallel and serial runs produce bit-identical
estimates (property-tested in ``tests/test_exec_parallel.py``).

Fault-tolerance contract (DESIGN.md §9, chaos-tested in
``tests/test_exec_faults.py``): the contract above additionally holds
*under partial failure*.  The pool path runs on the repo's one
supervised worker pool (:mod:`repro.exec.pool`): every task is
submitted up front, a failed attempt (task exception, worker death,
missed per-task deadline) is charged to that task alone and retried on
the next free worker up to ``retries`` times, and a task that exhausts
its pool budget degrades to one final in-parent attempt.  Because tasks
are pure functions of their inputs, re-running an attempt can only
reproduce the result the clean run would have produced — retries are
invisible in results and visible only in the execution record
(``meta``).
"""

from __future__ import annotations

import pickle
from concurrent.futures import as_completed
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

from repro.exec.faults import FaultPlan
from repro.exec.pool import (
    JobLost,
    SupervisorConfig,
    WorkerSupervisor,
    default_jobs,
)

T = TypeVar("T")
R = TypeVar("R")


@dataclass(frozen=True)
class ExecutionConfig:
    """How a pipeline/sweep invocation executes.

    Attributes
    ----------
    jobs:
        Worker-process count; 0 means :func:`default_jobs` (all CPUs),
        1 forces fully serial in-process execution.
    use_cache:
        Consult/populate the persistent on-disk profile cache.
    cache_dir:
        Override the cache directory (default: ``$TBPOINT_CACHE_DIR`` or
        ``~/.cache/tbpoint``).  Sweep journals move with it, to
        ``<cache_dir>/journals``.
    task_timeout:
        Seconds one task attempt may run once a worker has taken it
        before it is declared hung; that worker is killed and respawned
        and the task retried.  ``None`` (default) never times out.
    retries:
        Extra pool attempts a failed task gets beyond its first (so a
        task runs at most ``1 + retries`` times in workers) before
        degrading to one final in-parent serial attempt.
    fault_plan:
        Deterministic fault-injection script (tests only); rides into
        workers and fires at scripted ``(task index, attempt)`` pairs.
    journal:
        Record each completed sweep task in the persistent checkpoint
        journal so a killed sweep can be resumed.
    resume:
        Load the sweep's journal and skip tasks it already records
        instead of starting the journal afresh.
    """

    jobs: int = 1
    use_cache: bool = True
    cache_dir: str | None = None
    task_timeout: float | None = None
    retries: int = 2
    fault_plan: FaultPlan | None = None
    journal: bool = False
    resume: bool = False

    def __post_init__(self) -> None:
        if self.jobs < 0:
            raise ValueError("jobs must be >= 0 (0 = all CPUs)")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError("task_timeout must be positive (or None)")

    @property
    def effective_jobs(self) -> int:
        """The worker count actually used.

        An *explicit* ``jobs`` request is honoured exactly: containers
        and cgroup CPU quotas routinely make ``os.cpu_count()`` under-
        report the truly available parallelism, and silently rewriting
        ``--jobs 4`` down to the apparent CPU count is how every run on
        such a host fell back to serial with the misleading reason
        ``"jobs=1, N launch(es)"`` (the BENCH_exec.json gating bug this
        replaced).  Only the *automatic* request (``jobs == 0``) is
        sized to the machine via :func:`default_jobs` — that is the
        case where the engine, not the user, picks the count, and
        oversubscribing by default would just add pool overhead (the
        0.67x "speedup" an earlier BENCH_exec.json recorded)."""
        return self.jobs if self.jobs > 0 else default_jobs()

    def for_tasks(self, tasks: int) -> "ExecutionConfig":
        """The config each of ``tasks`` items mapped by
        :func:`parallel_map` under this config runs with.  When the map
        fans out (:func:`_fans_out`), every task runs serially inside so
        pools never nest; otherwise the one worker count goes to the
        tasks' own launch fan-out.  Fault injection and journaling stay
        at the level that owns the task indices — the outer map — so
        both are stripped either way."""
        jobs = 1 if _fans_out(self.effective_jobs, tasks) else self.jobs
        return self.with_(jobs=jobs, fault_plan=None, journal=False, resume=False)

    def with_(self, **changes) -> "ExecutionConfig":
        import dataclasses

        return dataclasses.replace(self, **changes)


#: Execution used when no configuration is supplied: serial, cache off.
#: Keeps the library functions pure-by-default; opting into persistence
#: and parallelism is explicit (the CLI does, with cache on and all CPUs).
DEFAULT_EXECUTION = ExecutionConfig(jobs=1, use_cache=False)


def _fans_out(jobs: int, items: int) -> bool:
    """The one fan-out rule: a map of ``items`` tasks uses a process
    pool when more than one worker is asked for and there are at least
    two tasks.  Every caller maps whole launches or whole kernels, each
    of which dwarfs a worker's spawn cost."""
    return jobs > 1 and items >= 2


def _is_picklable(obj) -> bool:
    try:
        pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        return True
    except Exception:
        return False


def _attempt(fn: Callable[[T], R], item: T, plan, index: int, attempt: int) -> R:
    """One in-parent attempt: fire any scripted faults for this
    ``(task, attempt)`` coordinate, then the task body.  Worker-crash
    faults are parent-PID-guarded, so they cannot fire here — which
    mirrors reality: the parent does not die of a worker's OOM."""
    if plan is not None:
        plan.fire(index, attempt)
    return fn(item)


def _init_meta(meta: dict, items: int) -> dict:
    meta.update(
        path="serial",
        workers=1,
        items=items,
        reason=None,
        attempts=0,
        retries=0,
        pool_respawns=0,
        timed_out=[],
        serial_fallback=[],
    )
    return meta


def _finalize_meta(meta: dict) -> None:
    meta["retries"] = meta["attempts"] - meta["items"]


def _serial_run(
    fn: Callable[[T], R],
    items: list[T],
    config: ExecutionConfig,
    meta: dict,
    on_result: Callable[[int, R], None] | None,
) -> list[R]:
    """The in-process path.  Still honours the retry budget and the
    fault plan — the engine's behaviour under faults must not depend on
    whether a pool was available."""
    results: list[R] = []
    for index, item in enumerate(items):
        attempt = 0
        while True:
            meta["attempts"] += 1
            try:
                value = _attempt(fn, item, config.fault_plan, index, attempt)
                break
            except KeyboardInterrupt:
                raise
            except Exception:
                if attempt >= config.retries:
                    raise
                attempt += 1
        results.append(value)
        if on_result is not None:
            on_result(index, value)
    _finalize_meta(meta)
    return results


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    jobs: int,
    meta: dict | None = None,
    config: ExecutionConfig | None = None,
    on_result: Callable[[int, R], None] | None = None,
    initializer: Callable[..., None] | None = None,
    initargs: tuple = (),
) -> list[R]:
    """Map ``fn`` over ``items``, fanning out across processes.

    Results are returned in input order regardless of completion order,
    which is what makes parallel merges deterministic.  Degrades to a
    plain serial map whenever parallelism cannot help — ``jobs`` ≤ 1
    (an explicit jobs request is otherwise honoured exactly, even past
    the apparent CPU count: see ``ExecutionConfig.effective_jobs``) or
    fewer than two items (:func:`_fans_out`) — or cannot work
    (``fn``/first item not picklable; pool spawn failure).  Serial and
    parallel paths are bit-identical, so the degrade is invisible in
    results.

    ``initializer``/``initargs`` run once in every worker process at
    spawn (including respawns), letting tasks reuse expensive
    per-worker state — e.g. a warm simulator with interned trace tables
    (``repro.sim.worker``).  The initializer must only *prime* state
    that tasks would otherwise build themselves; results must not
    depend on it (the serial path never runs it).

    The pool path submits every task to a
    :class:`~repro.exec.pool.WorkerSupervisor` and collects results in
    completion order.  The pool retries a failed attempt (task
    exception, worker death, a per-task deadline of
    ``config.task_timeout`` counted from when a worker takes the task)
    on the next free worker, up to ``config.retries`` extra attempts;
    a task that exhausts that budget, cannot be pickled, or is stranded
    by a degraded pool runs one final attempt in this process.  The
    pool is stopped — every worker killed and reaped — before this
    returns or raises, ``KeyboardInterrupt`` included.

    When ``meta`` is a dict it is filled in place with the execution
    record: ``path`` ("serial" or "parallel"), ``workers``, ``items``,
    ``reason`` for taking the serial path (``None`` when parallel), and
    the fault-handling counters ``attempts`` (total task attempts,
    including first tries), ``retries`` (attempts beyond each task's
    first), ``pool_respawns``, ``timed_out`` / ``serial_fallback``
    (sorted task indices).

    ``on_result(index, result)`` — when given — is invoked in *this*
    process as each task completes (in completion order, not input
    order); sweep drivers use it to checkpoint finished tasks to the
    journal the moment they are durable.
    """
    items = list(items)
    config = config or DEFAULT_EXECUTION
    if meta is None:
        meta = {}
    _init_meta(meta, len(items))
    if not _fans_out(jobs, len(items)):
        meta["reason"] = f"jobs={jobs}, {len(items)} item(s)"
        return _serial_run(fn, items, config, meta, on_result)
    if not (_is_picklable(fn) and _is_picklable(items[0])):
        # Probe the function and the first item only; a stray
        # unpicklable item later fails its own job at dispatch and
        # falls back to serial for that task alone.
        meta["reason"] = "fn or first item not picklable"
        return _serial_run(fn, items, config, meta, on_result)
    workers = min(jobs, len(items))
    pool_config = SupervisorConfig(
        workers=workers,
        retries=config.retries,
        hang_timeout=config.task_timeout,
        max_backlog=0,
        fault_plan=config.fault_plan,
    )
    try:
        pool = WorkerSupervisor(fn, pool_config, initializer, initargs)
        pool.start()
    except (OSError, RuntimeError):
        # Process pools may be unavailable (sandboxes, nested daemons);
        # the serial path is always correct, only slower.
        meta["reason"] = "process pool unavailable"
        return _serial_run(fn, items, config, meta, on_result)
    meta.update(path="parallel", workers=workers)
    results: list = [None] * len(items)
    serial_fallback: list[int] = []
    try:
        # Job numbers follow submission order, so the pool's fault
        # coordinates are the task indices.
        futures = {pool.submit(item): index for index, item in enumerate(items)}
        for future in as_completed(futures):
            index = futures[future]
            try:
                value = future.result()
            except JobLost as exc:
                serial_fallback.append(index)
                meta["attempts"] += 1
                value = _attempt(
                    fn, items[index], config.fault_plan, index, exc.attempts
                )
            results[index] = value
            if on_result is not None:
                on_result(index, value)
    finally:
        pool.stop()
    meta.update(
        attempts=meta["attempts"] + pool.counters.attempts,
        pool_respawns=pool.counters.respawns,
        timed_out=pool.timed_out(),
        serial_fallback=sorted(serial_fallback),
    )
    _finalize_meta(meta)
    return results


__all__ = [
    "ExecutionConfig",
    "DEFAULT_EXECUTION",
    "default_jobs",
    "parallel_map",
]
