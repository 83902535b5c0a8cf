"""Supervised worker-process pool: the serve daemon's compute route.

Every compute request runs in a pool of **long-lived worker
processes**, so one segfault, OOM kill or runaway request never takes
the daemon down, and simulations use more than one core.  The module
lifts the sweep supervisor's discipline (``exec/engine.py``:
per-attempt supervision, retries, pool respawn) into the serving
layer; each worker holds its own warm
:class:`~repro.serve.jobs.JobRunner` (the worker's one simulator from
``sim/worker``, resident traces, profile mirror), fed
over a duplex pipe with per-request heartbeats.

Supervision contract (DESIGN.md §14, chaos-tested in
``tests/test_serve_supervisor.py``):

* **Crash isolation** — a worker death (``BrokenPipe``/process
  sentinel) never touches the daemon: the worker is respawned and its
  in-flight job is retried on a healthy worker, up to ``retries``
  extra attempts; a job that uses them all fails with
  :class:`WorkerJobFailed` carrying the last worker error.  The
  daemon's coalescing map and journal are
  untouched — waiters keep waiting on the same future and the
  eventually-served payload is bit-identical to a fresh direct run
  (jobs are pure functions of their normalized request).
* **Hang detection** — a busy worker must heartbeat (job accepted /
  phase boundary messages) within ``hang_timeout`` seconds; past the
  deadline it is killed and the job retried.  The simulation hot loop
  is one Python call, so phase boundaries are the finest honest
  progress signal — ``hang_timeout`` therefore bounds one compute
  phase, exactly like PR 4's per-attempt ``task_timeout``.
* **Backpressure** — admission is bounded by ``max_backlog``
  (pending + busy); past it :meth:`WorkerSupervisor.submit` raises
  :class:`Overloaded` carrying a ``retry_after`` hint derived from the
  observed job-duration EWMA, and the server sheds the request with a
  structured ``overloaded`` error instead of queueing without bound.
* **Degradation** — ``degrade_after`` consecutive respawns without a
  completed job flips the pool into degraded mode for good: every
  queued and future job fails fast with :class:`WorkersUnavailable`,
  which the server answers as an ``unavailable`` error while ``ping``,
  ``stats`` and ``shutdown`` keep working.

Exactly-once stance: the *daemon* coalesces duplicate content keys
onto one future before anything reaches this pool, so per content key
there is exactly one **completed** execution; a crashed or hung
attempt died before completing and its retry recomputes the same pure
function.  Fault injection rides the PR 4 :class:`FaultPlan` —
each submitted job gets a monotonically increasing fault index
(submission order), and workers fire ``plan.fire(index, attempt)``
right after the job-accepted heartbeat, so a chaos test can script
"the worker running request 0 dies on its first attempt; request 1
hangs on its second" at exact coordinates.

Wall-clock reads here are supervision timers and operator metrics
(heartbeat deadlines, queue waits) — they never touch simulation
results, hence the inline DET001 pragmas (DESIGN.md §10).
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

from repro.exec.engine import default_jobs
from repro.exec.faults import FaultPlan
from repro.serve.jobs import JobRunner, percentile
from repro.serve.payloads import RequestError

#: Heartbeat deadline applied to a worker that has not yet reported
#: ready (fork/spawn + imports must finish within this).
SPAWN_TIMEOUT = 120.0

#: Queue-wait samples kept for the daemon's ``queue`` stats block.
QUEUE_WAIT_WINDOW = 10_000


class Overloaded(Exception):
    """Backlog full: the request is shed, not queued.  ``retry_after``
    is the supervisor's back-off hint in seconds."""

    def __init__(self, message: str, retry_after: float):
        super().__init__(message)
        self.retry_after = retry_after


class WorkersUnavailable(Exception):
    """The pool is degraded or stopped; no job will run on it again."""


class WorkerJobFailed(Exception):
    """A job exhausted its worker retry budget; the last failure is the
    message."""


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
    """How the worker pool runs (all reachable via ``repro serve``
    flags; ``ServeConfig`` extends it with the daemon's own settings).

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
        hang detection (the default: a paper-scale tbpoint estimate
        can legitimately compute for minutes in one phase).
    max_backlog:
        Bound on pending + in-flight jobs; past it ``submit`` raises
        :class:`Overloaded`.  0 disables shedding.
    degrade_after:
        Consecutive worker respawns (no job completed in between) that
        flip the pool into degraded mode.
    cache_dir:
        Override the persistent cache root (profiles; the daemon also
        keeps its journals there).
    fault_plan:
        Deterministic chaos script fired inside workers at
        ``(fault index, attempt)`` coordinates (tests only).
    """

    workers: int = field(default_factory=default_jobs)
    retries: int = 2
    hang_timeout: float | None = None
    max_backlog: int = 32
    degrade_after: int = 4
    cache_dir: str | None = None
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
@dataclass(frozen=True)
class _WorkerConfig:
    """What one worker process needs to build its warm state (picklable
    for both fork and spawn start methods)."""

    cache_dir: str | None = None
    fault_plan: FaultPlan | None = None


def _worker_main(conn: Connection, cfg: _WorkerConfig) -> None:
    """One worker process: build warm state, then serve jobs from the
    pipe until ``stop``/EOF.  Messages out: ``("ready", pid)``,
    ``("hb", job_id)`` heartbeats, then exactly one of
    ``("done", job_id, payload, meta)`` / ``("reject", job_id, msg)``
    (a :class:`RequestError` — the request's fault, never retried) /
    ``("fail", job_id, msg)`` (an execution failure — retried)."""
    # Pre-import the heavy tbpoint path so a job never pays (or, under
    # fork, deadlocks on) first-import cost mid-request.
    import repro.core.pipeline  # noqa: F401

    runner = JobRunner(cache_dir=cfg.cache_dir)
    try:
        conn.send(("ready", os.getpid()))
        while True:
            msg = conn.recv()
            if msg[0] == "stop":
                break
            _, job_id, norm, fault_index, attempt = msg
            conn.send(("hb", job_id))  # job accepted: the first heartbeat
            try:
                if cfg.fault_plan is not None:
                    cfg.fault_plan.fire(fault_index, attempt)
                payload, meta = runner.run(
                    norm, heartbeat=lambda: conn.send(("hb", job_id))
                )
                conn.send(("done", job_id, payload, meta.as_dict()))
            except RequestError as exc:
                conn.send(("reject", job_id, str(exc)))
            except Exception as exc:  # noqa: BLE001 — reported, retried
                conn.send(("fail", job_id, f"{type(exc).__name__}: {exc}"))
    except (EOFError, BrokenPipeError, OSError, KeyboardInterrupt):
        pass  # supervisor went away; nothing to report to


# ----------------------------------------------------------------------
# Supervisor side
# ----------------------------------------------------------------------
@dataclass
class _Job:
    """One submitted compute request on its way through the pool."""

    job_id: int
    norm: dict
    future: Future
    attempts: int = 0  # dispatches consumed (1 + retries allowed)
    enqueued_at: float = 0.0
    last_error: str = ""


class _Worker:
    """Parent-side handle for one worker process."""

    __slots__ = ("process", "conn", "job", "ready", "last_beat", "deadline")

    def __init__(self, process, conn: Connection, spawn_deadline: float):
        self.process = process
        self.conn = conn
        self.job: _Job | None = None
        self.ready = False
        self.last_beat = 0.0
        #: Current supervision deadline: spawn deadline until ready,
        #: then heartbeat deadline while busy, else None.
        self.deadline: float | None = spawn_deadline


@dataclass
class SupervisorCounters:
    """Supervision events (mirrored into the daemon's stats payload and
    ``--metrics-json`` under ``workers``)."""

    jobs_completed: int = 0
    retries: int = 0
    respawns: int = 0
    hangs: int = 0
    crashes: int = 0
    rejects: int = 0
    failures: int = 0  # jobs that exhausted the worker retry budget


class WorkerSupervisor:
    """The pool: spawn, feed, watch, respawn, degrade.  One monitor
    thread owns every worker; :meth:`submit` is called from the
    daemon's event loop and communicates through a lock + wake pipe."""

    def __init__(self, config: SupervisorConfig):
        self.config = config
        self.counters = SupervisorCounters()
        self._ctx = multiprocessing.get_context(_default_mp_context())
        self._lock = threading.Lock()
        self._pending: deque[_Job] = deque()
        self._workers: list[_Worker] = []
        self._next_job_id = 0
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
        queue until one does."""
        with self._lock:
            for _ in range(self.config.workers):
                self._workers.append(self._spawn())
        self._thread = threading.Thread(
            target=self._monitor, name="repro-serve-supervisor", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 30.0) -> None:
        """Stop the pool.  Jobs still queued or in flight are failed
        with :class:`WorkersUnavailable` (the daemon drains *before*
        stopping the supervisor, so this only fires on abrupt
        teardown); workers are asked to exit, then killed."""
        with self._lock:
            self._stopping = True
        self._wake()
        if self._thread is not None:
            self._thread.join(timeout)
        with self._lock:
            self._fail_all_locked(WorkersUnavailable("supervisor stopped"))
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

    @property
    def degraded(self) -> bool:
        with self._lock:
            return self._degraded

    # ------------------------------------------------------------------
    # Submission (event-loop thread)
    # ------------------------------------------------------------------
    def submit(self, norm: dict) -> Future:
        """Queue one normalized compute request; returns a
        ``concurrent.futures.Future`` resolving to ``(payload,
        meta_dict)``.  Raises :class:`Overloaded` past ``max_backlog``
        and :class:`WorkersUnavailable` when degraded/stopped."""
        with self._lock:
            if self._degraded:
                raise WorkersUnavailable(
                    f"worker pool degraded: {self._degrade_reason}"
                )
            if self._stopping:
                raise WorkersUnavailable("supervisor stopping")
            load = len(self._pending) + sum(
                1 for w in self._workers if w.job is not None
            )
            if self.config.max_backlog and load >= self.config.max_backlog:
                raise Overloaded(
                    f"worker backlog full ({load}/{self.config.max_backlog})",
                    retry_after=self._retry_after_locked(load),
                )
            job = _Job(
                job_id=self._next_job_id,
                norm=norm,
                future=Future(),
                enqueued_at=time.monotonic(),  # queue-wait metric  # lint: disable=DET001
            )
            self._next_job_id += 1
            self._pending.append(job)
        self._wake()
        return job.future

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
        cfg = _WorkerConfig(
            cache_dir=self.config.cache_dir,
            fault_plan=self.config.fault_plan,
        )
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, cfg),
            name="repro-serve-worker",
            daemon=True,
        )
        process.start()
        child_conn.close()
        deadline = time.monotonic() + SPAWN_TIMEOUT  # spawn watchdog  # lint: disable=DET001
        return _Worker(process, parent_conn, deadline)

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
                timeout = max(0.0, deadline - time.monotonic())  # hang watchdog  # lint: disable=DET001
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
            if not self._pending:
                return
            if not w.ready or w.job is not None:
                continue
            job = self._pending.popleft()
            attempt = job.attempts
            try:
                w.conn.send(
                    ("job", job.job_id, job.norm, job.job_id, attempt)
                )
            except (OSError, ValueError, BrokenPipeError):
                # Death noticed at dispatch: requeue in place, the
                # liveness sweep respawns the worker.
                self._pending.appendleft(job)
                continue
            job.attempts += 1
            now = time.monotonic()  # supervision timers  # lint: disable=DET001
            self._queue_waits.append(now - job.enqueued_at)
            w.job = job
            w.last_beat = now
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
                w.last_beat = time.monotonic()  # heartbeat clock  # lint: disable=DET001
                if w.job is not None and self.config.hang_timeout is not None:
                    w.deadline = w.last_beat + self.config.hang_timeout
            elif kind in ("done", "reject", "fail"):
                job = w.job
                w.job = None
                w.deadline = None
                if job is None or job.job_id != msg[1]:
                    continue  # stale answer from a retried job
                if kind == "done":
                    self._consecutive_respawns = 0
                    self.counters.jobs_completed += 1
                    elapsed = (
                        time.monotonic() - job.enqueued_at  # EWMA job-time metric  # lint: disable=DET001
                    )
                    self._avg_job_s = (
                        elapsed
                        if self._avg_job_s is None
                        else 0.8 * self._avg_job_s + 0.2 * elapsed
                    )
                    if not job.future.done():
                        job.future.set_result((msg[2], msg[3]))
                elif kind == "reject":
                    self.counters.rejects += 1
                    if not job.future.done():
                        job.future.set_exception(RequestError(msg[2]))
                else:
                    job.last_error = msg[2]
                    self._retry_or_fail_locked(job)

    def _retry_or_fail_locked(self, job: _Job) -> None:
        if job.attempts > self.config.retries:
            self.counters.failures += 1
            if not job.future.done():
                job.future.set_exception(
                    WorkerJobFailed(
                        f"job failed after {job.attempts} worker attempt(s): "
                        f"{job.last_error}"
                    )
                )
            return
        self.counters.retries += 1
        self._pending.appendleft(job)

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
        now = time.monotonic()  # supervision timers  # lint: disable=DET001
        for i, w in enumerate(self._workers):
            if w.deadline is None or w.deadline > now:
                continue
            if w.job is not None:
                # Busy past the heartbeat deadline: hung.
                self.counters.hangs += 1
                job, w.job = w.job, None
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
        """Fail everything fast so the daemon answers ``unavailable``;
        kill what's left of the pool."""
        self._degraded = True
        self._degrade_reason = reason
        self._fail_all_locked(
            WorkersUnavailable(f"worker pool degraded: {reason}")
        )
        for w in self._workers:
            if w.process.is_alive():
                w.process.kill()

    def _fail_all_locked(self, exc: Exception) -> None:
        while self._pending:
            job = self._pending.popleft()
            if not job.future.done():
                job.future.set_exception(exc)
        for w in self._workers:
            if w.job is not None:
                job, w.job = w.job, None
                if not job.future.done():
                    job.future.set_exception(exc)

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


__all__ = [
    "Overloaded",
    "SupervisorConfig",
    "SupervisorCounters",
    "WorkerJobFailed",
    "WorkerSupervisor",
    "WorkersUnavailable",
]
