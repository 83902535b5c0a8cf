"""The repo's one supervised worker-process pool.

Launches and kernels are this reproduction's only parallel axis, and
both callers that fan out over it run on this pool:
:func:`~repro.exec.engine.parallel_map` (launch fan-out and the
``headline``/``sensitivity``/``scaling`` sweeps) and the ``repro serve``
daemon (:mod:`repro.serve.server`).  A :class:`WorkerSupervisor` owns
``workers`` **long-lived processes**, each running one task function
after a per-process ``initializer`` (the sweeps prime the worker's warm
simulator with :func:`repro.sim.worker.init_worker`; serve builds a
worker-side :class:`~repro.serve.jobs.JobRunner`), fed one job at a
time over a duplex pipe.  One monitor thread multiplexes every pipe and
process sentinel; :meth:`WorkerSupervisor.submit` returns a
``concurrent.futures.Future``.

Supervision contract (DESIGN.md §9 and §14, chaos-tested in
``tests/test_exec_faults.py`` and ``tests/test_serve_supervisor.py``):

* **Failures are charged to one job.**  A task exception, a worker
  death (process sentinel / pipe EOF) or a missed deadline fails only
  the job that worker was running; the job is retried on the next free
  worker, up to ``retries`` extra attempts, and a dead or killed worker
  is respawned.  A job that uses every attempt fails with
  :class:`WorkerJobFailed` carrying the last worker error.  A
  :class:`JobRejected` raised by the task is the job's own fault: it
  fails the job at once, with no retry and no respawn.
* **Deadlines start when a worker takes the job.**  A busy worker must
  heartbeat within ``hang_timeout`` seconds: the worker sends one when
  it accepts a job, and a task may send more with :func:`heartbeat`
  (serve's ``JobRunner`` does at its phase boundaries).  Past the
  deadline the worker is killed and the job retried.  Time a job spends
  queued never counts against it.
* **Unpicklable jobs stay contained.**  A job whose item cannot be
  pickled for dispatch fails alone, with :class:`WorkerJobFailed`; the
  worker it was meant for stays free.
* **Backpressure** — admission is bounded by ``max_backlog`` (pending
  + busy); past it the submitted future fails with :class:`Overloaded`
  carrying a ``retry_after`` hint derived from the observed job-duration
  EWMA.
* **Degradation** — ``degrade_after`` consecutive respawns without a
  completed job flips the pool into degraded mode for good: every
  queued and future job fails fast with :class:`WorkersUnavailable`.

Jobs are numbered in submission order, and a worker fires
``fault_plan.fire(job number, attempt)`` right after its job-accepted
heartbeat, so a chaos test can script "the worker running job 0 dies on
its first attempt; job 1 hangs on its second" at exact coordinates —
the same ``(index, attempt)`` scheme for a sweep's tasks and a daemon's
requests.  The pool is at-least-once: a worker may die after computing
but before its answer is read, and the retry recomputes the same pure
function.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from multiprocessing.connection import Connection, wait as connection_wait
from multiprocessing.reduction import ForkingPickler
from typing import Any, Callable

from repro.exec.faults import FaultPlan

#: Heartbeat deadline applied to a worker that has not yet reported
#: ready (fork/spawn + initializer must finish within this).
SPAWN_TIMEOUT = 120.0

#: Queue-wait samples kept for :meth:`WorkerSupervisor.queue_stats`.
QUEUE_WAIT_WINDOW = 10_000


def default_jobs() -> int:
    """The default worker count: every available CPU."""
    return os.cpu_count() or 1


class JobRejected(Exception):
    """Raised by a task for a fault of the job itself (serve: a bad
    request).  Fails the job at once: never retried, never a respawn."""


class JobLost(Exception):
    """The pool gave up on a job: no worker will produce its result.
    ``attempts`` counts the worker attempts the job had consumed."""

    def __init__(self, message: str, attempts: int = 0):
        super().__init__(message)
        self.attempts = attempts


class WorkerJobFailed(JobLost):
    """A job exhausted its worker retry budget, or could not be sent to
    a worker; the last failure is the message."""


class WorkersUnavailable(JobLost):
    """The pool is degraded or stopped; no job will run on it again."""


class Overloaded(Exception):
    """Backlog full: the job is shed, not queued.  ``retry_after`` is
    the supervisor's back-off hint in seconds."""

    def __init__(self, message: str, retry_after: float):
        super().__init__(message)
        self.retry_after = retry_after


def _default_mp_context() -> str:
    """``fork`` where available (Linux): worker spawn latency sits on
    the respawn path and fork inherits the parent's imported modules;
    ``spawn`` elsewhere."""
    return (
        "fork"
        if "fork" in multiprocessing.get_all_start_methods()
        else "spawn"
    )


@dataclass(frozen=True)
class SupervisorConfig:
    """How the worker pool runs.  ``parallel_map`` builds one from its
    :class:`~repro.exec.engine.ExecutionConfig`; ``ServeConfig``
    extends it with the daemon's own settings.

    Attributes
    ----------
    workers:
        Long-lived worker processes (>= 1; default: every CPU).
    retries:
        Extra attempts a job gets after a worker crash/hang/exception
        before it fails with :class:`WorkerJobFailed`.
    hang_timeout:
        Seconds a busy worker may go without a heartbeat before it is
        declared hung, killed and its job retried.  ``None`` disables
        hang detection.
    max_backlog:
        Bound on pending + in-flight jobs; past it a submitted job
        fails with :class:`Overloaded`.  0 disables shedding.
    degrade_after:
        Consecutive worker respawns (no job completed in between) that
        flip the pool into degraded mode.
    fault_plan:
        Deterministic chaos script fired inside workers at
        ``(job number, attempt)`` coordinates (tests only).
    """

    workers: int = field(default_factory=default_jobs)
    retries: int = 2
    hang_timeout: float | None = None
    max_backlog: int = 32
    degrade_after: int = 4
    fault_plan: FaultPlan | None = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.hang_timeout is not None and self.hang_timeout <= 0:
            raise ValueError("hang_timeout must be positive (or None)")
        if self.max_backlog < 0:
            raise ValueError("max_backlog must be >= 0 (0 = unbounded)")
        if self.degrade_after < 1:
            raise ValueError("degrade_after must be >= 1")


# ----------------------------------------------------------------------
# Worker process side
# ----------------------------------------------------------------------
#: The running job's heartbeat channel in a worker process: one
#: ``(conn, job number)`` entry while a job runs, empty otherwise (and
#: always empty outside a pool worker).  Mutated in place, never rebound.
_BEAT: list[tuple[Connection, int]] = []


def heartbeat() -> None:
    """Tell the supervisor the running job is alive, pushing its
    deadline back by ``hang_timeout``.  A no-op outside a pool worker,
    so a task may call it unconditionally; it never influences results."""
    for conn, job_id in _BEAT:
        conn.send(("hb", job_id))


def _worker_main(
    conn: Connection,
    fn: Callable[[Any], Any],
    initializer: Callable[..., None] | None,
    initargs: tuple,
    fault_plan: FaultPlan | None,
) -> None:
    """One worker process: run the initializer, then serve jobs from the
    pipe until ``stop``/EOF.  Messages out: ``("ready", pid)``,
    ``("hb", job)`` heartbeats, then exactly one of
    ``("done", job, value)`` / ``("reject", job, msg)`` (a
    :class:`JobRejected` — never retried) / ``("fail", job, msg)`` (any
    other exception — retried)."""
    try:
        if initializer is not None:
            initializer(*initargs)
        conn.send(("ready", os.getpid()))
        while True:
            msg = conn.recv()
            if msg[0] == "stop":
                break
            _, job_id, item, attempt = msg
            _BEAT[:] = [(conn, job_id)]
            heartbeat()  # job accepted: the first heartbeat
            try:
                if fault_plan is not None:
                    fault_plan.fire(job_id, attempt)
                conn.send(("done", job_id, fn(item)))
            except JobRejected as exc:
                conn.send(("reject", job_id, str(exc)))
            except Exception as exc:  # noqa: BLE001 — reported, retried
                conn.send(("fail", job_id, f"{type(exc).__name__}: {exc}"))
            _BEAT.clear()
    except (EOFError, BrokenPipeError, OSError, KeyboardInterrupt):
        pass  # supervisor went away; nothing to report to


# ----------------------------------------------------------------------
# Supervisor side
# ----------------------------------------------------------------------
@dataclass
class _Job:
    """One submitted job on its way through the pool."""

    job_id: int
    item: Any
    future: Future
    attempts: int = 0  # dispatches consumed (1 + retries allowed)
    enqueued_at: float = 0.0
    last_error: str = ""


class _Worker:
    """Parent-side handle for one worker process."""

    __slots__ = ("process", "conn", "job", "ready", "deadline")

    def __init__(self, process, conn: Connection, spawn_deadline: float):
        self.process = process
        self.conn = conn
        self.job: _Job | None = None
        self.ready = False
        #: Current supervision deadline: spawn deadline until ready,
        #: then heartbeat deadline while busy, else None.
        self.deadline: float | None = spawn_deadline


@dataclass
class SupervisorCounters:
    """Supervision events (mirrored into ``parallel_map``'s
    ``exec_meta`` and the daemon's stats payload under ``workers``)."""

    attempts: int = 0  # jobs handed to a worker, retries included
    jobs_completed: int = 0
    retries: int = 0
    respawns: int = 0
    hangs: int = 0
    crashes: int = 0
    rejects: int = 0
    failures: int = 0  # jobs that exhausted the budget or could not be sent


class WorkerSupervisor:
    """The pool: spawn, feed, watch, respawn, degrade.  One monitor
    thread owns every worker; :meth:`submit` may be called from any
    thread and communicates through a lock + wake pipe."""

    def __init__(
        self,
        fn: Callable[[Any], Any],
        config: SupervisorConfig,
        initializer: Callable[..., None] | None = None,
        initargs: tuple = (),
    ):
        self.config = config
        self.counters = SupervisorCounters()
        self._fn = fn
        self._initializer = initializer
        self._initargs = initargs
        self._ctx = multiprocessing.get_context(_default_mp_context())
        self._lock = threading.Lock()
        self._pending: deque[_Job] = deque()
        self._workers: list[_Worker] = []
        self._next_job_id = 0
        self._timed_out: set[int] = set()
        self._stopping = False
        self._degraded = False
        self._degrade_reason: str | None = None
        self._consecutive_respawns = 0
        self._avg_job_s: float | None = None
        self._queue_waits: deque = deque(maxlen=QUEUE_WAIT_WINDOW)
        self._wake_r, self._wake_w = self._ctx.Pipe(duplex=False)
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the workers and the monitor thread.  Returns
        immediately — jobs submitted before workers report ready just
        queue until one does.  If a spawn fails, the workers already
        started are reaped before the error propagates."""
        try:
            with self._lock:
                for _ in range(self.config.workers):
                    self._workers.append(self._spawn())
            thread = threading.Thread(
                target=self._monitor, name="repro-pool-supervisor", daemon=True
            )
            thread.start()
        except BaseException:
            self.stop()
            raise
        self._thread = thread

    def stop(self, timeout: float = 30.0) -> None:
        """Stop the pool.  Jobs still queued or in flight fail with
        :class:`WorkersUnavailable`; workers are asked to exit, then
        killed and reaped, so no worker outlives this call."""
        with self._lock:
            self._stopping = True
        self._wake()
        if self._thread is not None:
            self._thread.join(timeout)
        with self._lock:
            self._fail_all_locked("supervisor stopped")
            workers, self._workers = self._workers, []
        for w in workers:
            if w.process.is_alive():
                w.process.kill()
            w.process.join(5.0)
            w.conn.close()
        if self._thread is None or not self._thread.is_alive():
            # No monitor waits on the wake pipe any more.
            self._wake_r.close()
            self._wake_w.close()

    def timed_out(self) -> list[int]:
        """Numbers of the jobs that missed a deadline, sorted."""
        with self._lock:
            return sorted(self._timed_out)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, item: Any) -> Future:
        """Queue one job; returns a ``concurrent.futures.Future``
        resolving to the task's value.  Never raises: past
        ``max_backlog`` the future fails with :class:`Overloaded`, on a
        degraded or stopped pool with :class:`WorkersUnavailable`."""
        future: Future = Future()
        with self._lock:
            if self._degraded or self._stopping:
                reason = (
                    f"worker pool degraded: {self._degrade_reason}"
                    if self._degraded else "supervisor stopping"
                )
                future.set_exception(WorkersUnavailable(reason))
                return future
            load = len(self._pending) + sum(
                1 for w in self._workers if w.job is not None
            )
            if self.config.max_backlog and load >= self.config.max_backlog:
                future.set_exception(Overloaded(
                    f"worker backlog full ({load}/{self.config.max_backlog})",
                    retry_after=self._retry_after_locked(load),
                ))
                return future
            self._pending.append(_Job(
                job_id=self._next_job_id,
                item=item,
                future=future,
                enqueued_at=time.monotonic(),
            ))
            self._next_job_id += 1
        self._wake()
        return future

    def _retry_after_locked(self, load: int) -> float:
        """Back-off hint: the backlog's expected drain time across the
        pool, clamped to a sane band."""
        avg = self._avg_job_s if self._avg_job_s is not None else 0.5
        hint = avg * max(1, load) / max(1, len(self._workers))
        return round(min(60.0, max(0.05, hint)), 3)

    # ------------------------------------------------------------------
    # Monitor thread
    # ------------------------------------------------------------------
    def _wake(self) -> None:
        try:
            self._wake_w.send_bytes(b"w")
        except (OSError, ValueError):
            pass  # monitor already gone; stop() handles the rest

    def _spawn(self) -> _Worker:
        """Start one worker process (lock held by caller)."""
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                child_conn, self._fn, self._initializer, self._initargs,
                self.config.fault_plan,
            ),
            name="repro-pool-worker",
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _Worker(process, parent_conn, time.monotonic() + SPAWN_TIMEOUT)

    def _monitor(self) -> None:
        while True:
            with self._lock:
                if self._stopping or self._degraded:
                    break
                self._dispatch_locked()
                waitables = [self._wake_r]
                deadline: float | None = None
                for w in self._workers:
                    waitables.append(w.conn)
                    waitables.append(w.process.sentinel)
                    if w.deadline is not None:
                        deadline = (
                            w.deadline
                            if deadline is None
                            else min(deadline, w.deadline)
                        )
            timeout = None
            if deadline is not None:
                timeout = max(0.0, deadline - time.monotonic())
            ready = connection_wait(waitables, timeout)
            if self._wake_r in ready:
                while self._wake_r.poll():
                    self._wake_r.recv_bytes()
            with self._lock:
                for w in list(self._workers):
                    self._drain_worker_locked(w)
                self._check_liveness_locked()
                self._check_deadlines_locked()
        # Graceful exit: ask live workers to stop.
        with self._lock:
            workers = list(self._workers)
        for w in workers:
            try:
                w.conn.send(("stop",))
            except (OSError, ValueError, BrokenPipeError):
                pass

    # -- all methods below run with self._lock held --------------------
    def _dispatch_locked(self) -> None:
        for w in self._workers:
            while self._pending and w.ready and w.job is None:
                job = self._pending.popleft()
                try:
                    data = ForkingPickler.dumps(
                        ("job", job.job_id, job.item, job.attempts)
                    )
                except Exception as exc:  # noqa: BLE001 — the job's own
                    # The item cannot cross to any worker: fail it alone.
                    job.last_error = (
                        f"cannot send to a worker: {type(exc).__name__}: {exc}"
                    )
                    self._fail_locked(job)
                    continue
                try:
                    w.conn.send_bytes(data)
                except (OSError, ValueError):
                    # Death noticed at dispatch: requeue in place, the
                    # liveness sweep respawns the worker.
                    self._pending.appendleft(job)
                    break
                job.attempts += 1
                self.counters.attempts += 1
                now = time.monotonic()
                self._queue_waits.append(now - job.enqueued_at)
                w.job = job
                if self.config.hang_timeout is not None:
                    w.deadline = now + self.config.hang_timeout
                else:
                    w.deadline = None

    def _drain_worker_locked(self, w: _Worker) -> None:
        """Consume every message the worker has buffered (results are
        salvaged even if the worker died right after sending them)."""
        while True:
            try:
                if not w.conn.poll():
                    return
                msg = w.conn.recv()
            except (EOFError, OSError):
                return  # death itself is handled by the liveness sweep
            kind = msg[0]
            if kind == "ready":
                w.ready = True
                w.deadline = None
            elif kind == "hb":
                if w.job is not None and self.config.hang_timeout is not None:
                    w.deadline = time.monotonic() + self.config.hang_timeout
            elif kind in ("done", "reject", "fail"):
                job = w.job
                w.job = None
                w.deadline = None
                if job is None or job.job_id != msg[1]:
                    continue  # stale answer from a retried job
                if kind == "done":
                    self._consecutive_respawns = 0
                    self.counters.jobs_completed += 1
                    elapsed = time.monotonic() - job.enqueued_at
                    self._avg_job_s = (
                        elapsed
                        if self._avg_job_s is None
                        else 0.8 * self._avg_job_s + 0.2 * elapsed
                    )
                    if not job.future.done():
                        job.future.set_result(msg[2])
                elif kind == "reject":
                    self.counters.rejects += 1
                    if not job.future.done():
                        job.future.set_exception(JobRejected(msg[2]))
                else:
                    job.last_error = msg[2]
                    self._retry_or_fail_locked(job)

    def _retry_or_fail_locked(self, job: _Job) -> None:
        if job.attempts > self.config.retries:
            self._fail_locked(job)
            return
        self.counters.retries += 1
        self._pending.appendleft(job)

    def _fail_locked(self, job: _Job) -> None:
        self.counters.failures += 1
        if not job.future.done():
            job.future.set_exception(
                WorkerJobFailed(
                    f"job failed after {job.attempts} worker attempt(s): "
                    f"{job.last_error}",
                    job.attempts,
                )
            )

    def _check_liveness_locked(self) -> None:
        for i, w in enumerate(self._workers):
            if w.process.is_alive():
                continue
            self._drain_worker_locked(w)  # salvage buffered results
            w.process.join(5.0)
            w.conn.close()
            self.counters.crashes += 1
            if w.job is not None:
                job, w.job = w.job, None
                job.last_error = (
                    f"worker died (exitcode {w.process.exitcode})"
                )
                self._retry_or_fail_locked(job)
            self._respawn_slot_locked(i)

    def _check_deadlines_locked(self) -> None:
        now = time.monotonic()
        for i, w in enumerate(self._workers):
            if w.deadline is None or w.deadline > now:
                continue
            if w.job is not None:
                # Busy past the heartbeat deadline: hung.
                self.counters.hangs += 1
                job, w.job = w.job, None
                self._timed_out.add(job.job_id)
                job.last_error = (
                    f"worker hung (> {self.config.hang_timeout:g}s "
                    "without a heartbeat)"
                )
                self._retry_or_fail_locked(job)
            # else: never reported ready within the spawn deadline.
            w.process.kill()
            w.process.join(5.0)
            w.conn.close()
            self._respawn_slot_locked(i)

    def _respawn_slot_locked(self, index: int) -> None:
        self.counters.respawns += 1
        self._consecutive_respawns += 1
        if self._consecutive_respawns >= self.config.degrade_after:
            self._enter_degraded_locked(
                f"{self._consecutive_respawns} consecutive worker "
                "respawns without a completed job"
            )
            return
        try:
            self._workers[index] = self._spawn()
        except OSError as exc:
            self._enter_degraded_locked(f"cannot spawn workers: {exc}")

    def _enter_degraded_locked(self, reason: str) -> None:
        """Fail everything fast; kill what's left of the pool."""
        self._degraded = True
        self._degrade_reason = reason
        self._fail_all_locked(f"worker pool degraded: {reason}")
        for w in self._workers:
            if w.process.is_alive():
                w.process.kill()

    def _fail_all_locked(self, reason: str) -> None:
        jobs = list(self._pending)
        self._pending.clear()
        for w in self._workers:
            if w.job is not None:
                jobs.append(w.job)
                w.job = None
        for job in jobs:
            if not job.future.done():
                job.future.set_exception(
                    WorkersUnavailable(reason, job.attempts)
                )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def queue_stats(self) -> dict:
        """Pending depth and submit-to-dispatch waits: the daemon's
        ``queue`` stats block."""
        with self._lock:
            waits = sorted(self._queue_waits)
            queue: dict = {"depth": len(self._pending), "samples": len(waits)}
        if waits:
            queue.update(
                p50_ms=percentile(waits, 0.50) * 1e3,
                p90_ms=percentile(waits, 0.90) * 1e3,
                p99_ms=percentile(waits, 0.99) * 1e3,
                max_ms=waits[-1] * 1e3,
            )
        return queue

    def snapshot(self) -> dict:
        """Supervision state for the daemon's stats payload /
        ``--metrics-json`` (safe to call after :meth:`stop`)."""
        with self._lock:
            c = self.counters
            snap: dict = {
                "configured": self.config.workers,
                "alive": sum(
                    1 for w in self._workers if w.process.is_alive()
                ),
                "busy": sum(1 for w in self._workers if w.job is not None),
                "attempts": c.attempts,
                "retries": c.retries,
                "respawns": c.respawns,
                "hangs": c.hangs,
                "crashes": c.crashes,
                "rejects": c.rejects,
                "failures": c.failures,
                "jobs_completed": c.jobs_completed,
                "degraded": self._degraded,
                "degrade_reason": self._degrade_reason,
                "hang_timeout": self.config.hang_timeout,
                "max_backlog": self.config.max_backlog,
            }
            if self._avg_job_s is not None:
                snap["avg_job_ms"] = round(self._avg_job_s * 1e3, 3)
            return snap


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty sorted sample list (the
    queue-wait report)."""
    idx = min(len(samples) - 1, max(0, round(q * (len(samples) - 1))))
    return samples[idx]


__all__ = [
    "JobLost",
    "JobRejected",
    "Overloaded",
    "SupervisorConfig",
    "SupervisorCounters",
    "WorkerJobFailed",
    "WorkerSupervisor",
    "WorkersUnavailable",
    "default_jobs",
    "heartbeat",
    "percentile",
]
