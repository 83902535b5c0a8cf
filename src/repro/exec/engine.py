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
*under partial failure*.  Tasks are submitted individually and
supervised; a failed attempt (task exception, per-task timeout, worker
death breaking the pool) is retried with exponential backoff up to
``retries`` times, a task that exhausts its pool budget degrades to one
final in-parent serial attempt, and a broken pool is respawned with
only unfinished tasks requeued.  Because tasks are pure functions of
their inputs, re-running an attempt can only reproduce the result the
clean run would have produced — retries are invisible in results and
visible only in the execution record (``meta``).
"""

from __future__ import annotations

import os
import pickle
import random
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable, Sequence, TypeVar

from repro.exec.faults import FaultPlan

T = TypeVar("T")
R = TypeVar("R")

#: Exponential backoff never waits longer than this between attempts.
BACKOFF_CAP = 2.0


def default_jobs() -> int:
    """The default worker count: every available CPU."""
    return os.cpu_count() or 1


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
        Seconds one task attempt may run in a worker before it is
        declared hung; the pool is respawned and the task retried.
        ``None`` (default) never times out.
    retries:
        Extra pool attempts a failed task gets beyond its first (so a
        task runs at most ``1 + retries`` times in workers) before
        degrading to one final in-parent serial attempt.
    backoff:
        Base backoff delay in seconds; attempt *k*'s retry waits
        ``backoff * 2**(k-1)`` (capped at :data:`BACKOFF_CAP`) plus up
        to 25% deterministic jitter.  0 disables waiting.
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
    backoff: float = 0.05
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
        if self.backoff < 0:
            raise ValueError("backoff must be >= 0")

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


def _is_pickle_error(exc: BaseException) -> bool:
    """Did this attempt fail to *serialize* rather than to compute?
    Such failures are permanent for the pool path (retrying re-pickles
    the same object) but trivially computable in-process."""
    if isinstance(exc, pickle.PicklingError):
        return True
    return "pickle" in f"{type(exc).__name__}: {exc}".lower()


def _invoke_task(fn, index: int, attempt: int, plan, item):
    """What actually runs in a worker: fire any scripted faults for this
    ``(task, attempt)`` coordinate, then the task body."""
    if plan is not None:
        plan.fire(index, attempt)
    return fn(item)


def _backoff_delay(base: float, consumed: int, index: int) -> float:
    """Backoff before re-running a task whose ``consumed``-th attempt
    just failed: exponential in the attempt number, capped, with up to
    25% deterministic per-(task, attempt) jitter so a batch of failed
    tasks does not retry in lockstep."""
    if base <= 0:
        return 0.0
    delay = min(base * (2 ** max(0, consumed - 1)), BACKOFF_CAP)
    jitter = random.Random(f"backoff:{index}:{consumed}").random()
    return delay * (1.0 + 0.25 * jitter)


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
    fault plan (whose worker-crash faults are parent-PID-guarded, so
    they are skipped here by design) — the engine's behaviour under
    faults must not depend on whether a pool was available."""
    plan = config.fault_plan
    results: list[R] = []
    for index, item in enumerate(items):
        attempt = 0
        while True:
            meta["attempts"] += 1
            try:
                if plan is not None:
                    plan.fire(index, attempt)
                value = fn(item)
                break
            except KeyboardInterrupt:
                raise
            except Exception:
                if attempt >= config.retries:
                    raise
                time.sleep(_backoff_delay(config.backoff, attempt + 1, index))
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
    spawn (including respawns after a broken pool), letting tasks reuse
    expensive per-worker state — e.g. a warm simulator with interned
    trace tables (``repro.sim.worker``).  The initializer must only
    *prime* state that tasks would otherwise build themselves; results
    must not depend on it (the serial path never runs it).

    The pool path supervises every task individually (``submit``-based):
    task exceptions, per-task timeouts (``config.task_timeout``) and
    worker deaths (``BrokenProcessPool``) are retried with exponential
    backoff up to ``config.retries`` extra attempts, a broken pool is
    respawned with only unfinished tasks requeued, and a task that
    exhausts its pool budget (or cannot be pickled) runs one final
    serial attempt in this process.  ``KeyboardInterrupt`` shuts the
    pool down immediately (``cancel_futures``) instead of waiting for
    in-flight tasks.

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
        # unpicklable item later is caught per task at submit time and
        # falls back to serial for that task alone.
        meta["reason"] = "fn or first item not picklable"
        return _serial_run(fn, items, config, meta, on_result)
    workers = min(jobs, len(items))
    try:
        pool = ProcessPoolExecutor(
            max_workers=workers, initializer=initializer, initargs=initargs
        )
    except (OSError, RuntimeError):
        # Process pools may be unavailable (sandboxes, nested daemons);
        # the serial path is always correct, only slower.
        meta["reason"] = "process pool unavailable"
        return _serial_run(fn, items, config, meta, on_result)
    meta.update(path="parallel", workers=workers)
    return _pool_run(
        fn, items, pool, workers, config, meta, on_result,
        initializer, initargs,
    )


class _PoolLost(Exception):
    """Internal: the pool broke and could not be respawned; finish the
    remaining tasks serially."""


def _pool_run(
    fn: Callable[[T], R],
    items: list[T],
    pool: ProcessPoolExecutor,
    workers: int,
    config: ExecutionConfig,
    meta: dict,
    on_result: Callable[[int, R], None] | None,
    initializer: Callable[..., None] | None = None,
    initargs: tuple = (),
) -> list[R]:
    n = len(items)
    plan = config.fault_plan
    timeout = config.task_timeout
    max_pool_attempts = 1 + config.retries

    results: list = [None] * n
    completed = [False] * n
    attempts = [0] * n  # pool attempts consumed per task
    timed_out: set[int] = set()
    serial_fb: set[int] = set()

    queue: deque[int] = deque(range(n))
    retry_heap: list[tuple[float, int]] = []  # (ready time, task index)
    inflight: dict[Future, int] = {}
    deadlines: dict[Future, float] = {}

    def finish(index: int, value) -> None:
        results[index] = value
        completed[index] = True
        if on_result is not None:
            on_result(index, value)

    def submit(index: int) -> None:
        attempt = attempts[index]
        fut = pool.submit(_invoke_task, fn, index, attempt, plan, items[index])
        attempts[index] += 1
        meta["attempts"] += 1
        inflight[fut] = index
        if timeout is not None:
            deadlines[fut] = time.monotonic() + timeout

    def run_serial_fallback(index: int) -> None:
        """The last resort for a task the pool cannot finish: one
        in-parent attempt.  Worker-crash faults are PID-guarded and so
        cannot fire here — which mirrors reality: the parent does not
        die of a worker's OOM.  A genuine exception here propagates."""
        serial_fb.add(index)
        attempt = attempts[index]
        attempts[index] += 1
        meta["attempts"] += 1
        if plan is not None:
            plan.fire(index, attempt)
        finish(index, fn(items[index]))

    def after_failure(index: int) -> None:
        """A pool attempt of ``index`` failed (already charged at
        submit): requeue with backoff, or degrade to serial once the
        pool budget is spent."""
        if attempts[index] >= max_pool_attempts:
            run_serial_fallback(index)
        else:
            delay = _backoff_delay(config.backoff, attempts[index], index)
            heappush(retry_heap, (time.monotonic() + delay, index))

    def respawn_pool() -> None:
        """Replace a broken/poisoned pool.  Every in-flight future is
        drained first: already-completed work is salvaged, everything
        else goes back through the retry policy."""
        nonlocal pool
        meta["pool_respawns"] += 1
        pool.shutdown(wait=False, cancel_futures=True)
        for fut, index in list(inflight.items()):
            if completed[index]:
                continue
            exc = None
            if fut.done() and not fut.cancelled():
                exc = fut.exception()
                if exc is None:
                    finish(index, fut.result())
                    continue
            if fut.cancelled():
                # Never started: refund the attempt charged at submit.
                attempts[index] -= 1
                meta["attempts"] -= 1
                queue.append(index)
            else:
                after_failure(index)
        inflight.clear()
        deadlines.clear()
        try:
            pool = ProcessPoolExecutor(
                max_workers=workers,
                initializer=initializer,
                initargs=initargs,
            )
        except (OSError, RuntimeError):
            raise _PoolLost from None

    try:
        while queue or retry_heap or inflight:
            now = time.monotonic()
            while retry_heap and retry_heap[0][0] <= now:
                _, index = heappop(retry_heap)
                queue.append(index)
            while queue:
                submit(queue.popleft())

            wait_for: float | None = None
            if deadlines:
                wait_for = max(0.0, min(deadlines.values()) - time.monotonic())
            if retry_heap:
                ready = max(0.0, retry_heap[0][0] - time.monotonic())
                wait_for = ready if wait_for is None else min(wait_for, ready)
            if not inflight:
                if wait_for:
                    time.sleep(wait_for)
                continue

            done, _ = wait(
                list(inflight), timeout=wait_for, return_when=FIRST_COMPLETED
            )
            pool_broke = False
            for fut in done:
                index = inflight.pop(fut)
                deadlines.pop(fut, None)
                exc = fut.exception()
                if exc is None:
                    finish(index, fut.result())
                elif isinstance(exc, BrokenProcessPool):
                    pool_broke = True
                    after_failure(index)
                elif _is_pickle_error(exc):
                    # Permanent for the pool; trivially computable here.
                    run_serial_fallback(index)
                else:
                    after_failure(index)
            if pool_broke:
                respawn_pool()
                continue

            if timeout is not None and inflight:
                now = time.monotonic()
                expired = [
                    fut
                    for fut, dl in deadlines.items()
                    if dl <= now and not fut.done()
                ]
                if expired:
                    # The hung worker cannot be reclaimed individually;
                    # abandon the whole pool and requeue the rest.
                    for fut in expired:
                        timed_out.add(inflight[fut])
                    respawn_pool()
    except _PoolLost:
        # No pool can be spawned any more: finish everything still
        # outstanding serially, in index order.
        for index in range(n):
            if not completed[index]:
                run_serial_fallback(index)
    except BaseException:
        # KeyboardInterrupt and fatal task errors alike: never hang
        # waiting for in-flight work; completed tasks were already
        # journaled via on_result.
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    pool.shutdown(wait=False)
    meta["timed_out"] = sorted(timed_out)
    meta["serial_fallback"] = sorted(serial_fb)
    _finalize_meta(meta)
    return results


__all__ = [
    "ExecutionConfig",
    "DEFAULT_EXECUTION",
    "BACKOFF_CAP",
    "default_jobs",
    "parallel_map",
]
