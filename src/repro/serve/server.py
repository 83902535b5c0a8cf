"""The long-lived simulation server behind ``repro serve``.

One process owns the hot state every one-shot invocation throws away:

* **warm engines** — a pool of idle :class:`GPUSimulator` instances
  (checkout/checkin), all the system simulator on the default
  ``GPUConfig``, so simulator-lifetime trace-interning tables survive
  across requests;
* **resident traces** — :class:`KernelTrace` objects per
  (kernel, scale, seed), their launches' block-memo windows enlarged
  (by default to the launch's full block count) so >256-block launches
  stop re-synthesizing blocks through the bounded LRU on every pass;
* **warm profiles** — an in-memory mirror of the content-addressed
  profile cache, backed by the persistent on-disk
  :class:`~repro.exec.cache.ProfileCache`;
* **served results** (opt-in ``journal=True``) — completed payloads
  recorded to a :class:`~repro.exec.journal.SweepJournal` under their
  request content keys, replayed idempotently across server restarts.

The asyncio front end admits compute requests under an explicit
concurrency limit (a semaphore + a same-sized thread pool), coalesces
duplicate in-flight requests (same content key → one simulation, N
responses), honours per-request deadlines while queued (the simulation
itself always completes and warms the server), and drains gracefully on
shutdown: queued work finishes and every accepted request is answered
before the socket closes.

Correctness stance: every served payload is bit-identical to
:func:`repro.serve.payloads.direct_payload` — a fresh direct run of the
same request — because everything the server keeps warm is a pure
cache (see that module's docstring).  Concurrent requests touching the
same resident kernel serialize on a per-kernel lock (the block-memo
window is shared mutable state); requests for different kernels
overlap.  Threads buy protocol/queue overlap, not parallel
simulation — the hot loop is pure Python under the GIL; DESIGN.md §13
records the honest latency numbers.

Determinism lint: the ``serve`` package is inside ``repro lint``'s
deterministic scope (DESIGN.md §10), but a server legitimately reads
the wall clock for deadlines, queue-latency metrics and uptime.  Those
sites — and only those — carry ``lint: disable=DET001`` pragmas; they
feed operator metrics, never simulation results.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.exec.faults import FaultPlan
from repro.exec.journal import SweepJournal, default_journal_dir
from repro.serve.jobs import JobMeta, JobRunner, percentile
from repro.serve.payloads import (
    RESULTS_VERSION,
    RequestError,
    normalize_request,
    request_key,
)
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    read_message,
    write_message,
)
from repro.serve.supervisor import (
    Overloaded,
    SupervisorConfig,
    WorkerJobFailed,
    WorkerSupervisor,
    WorkersUnavailable,
)


def default_socket_path(cache_dir: str | Path | None = None) -> str:
    """``<cache root>/serve.sock`` — the unix socket lives next to the
    profile cache and journals so one ``--cache-dir`` relocates all
    persistent and rendezvous state together."""
    root = Path(cache_dir) if cache_dir else default_journal_dir().parent
    return str(root / "serve.sock")


@dataclass(frozen=True)
class ServeConfig:
    """How one server process runs.

    Attributes
    ----------
    socket_path:
        Unix-domain socket to listen on (default
        ``<cache root>/serve.sock``).  Ignored when ``host`` is set.
    host / port:
        TCP listen address instead of a unix socket; ``port=0`` binds
        an ephemeral port (read it back from ``Server.address``).
    max_concurrency:
        Compute requests admitted simultaneously; the rest queue.
    block_memo:
        Block-memo window applied to every resident launch trace.
        0 (default) sizes each launch's window to its full block
        count — regeneration-free resident traces.
    journal:
        Record completed payloads to the serve journal and replay them
        idempotently (including across restarts).  Off by default so
        warm-request latency measures warm *simulation*, not a lookup.
    cache_dir:
        Override the persistent cache root (profiles + journals).
    metrics_json:
        Dump the final ``stats`` payload to this file on shutdown.
    queue_latency_window:
        Most recent queue-wait samples kept for the percentile report.
    workers:
        Supervised worker processes for compute (PR 9).  0 (default)
        keeps the PR 8 in-process thread path; with workers the thread
        path remains the degraded-mode fallback.
    worker_retries:
        Extra worker attempts a job gets after a crash/hang/exception
        before the daemon falls back to computing it in-process.
    hang_timeout:
        Seconds a busy worker may go without a heartbeat before it is
        killed and its job retried (None disables hang detection).
    max_backlog:
        Bound on jobs queued + in flight across the worker pool; past
        it requests are shed with a structured ``overloaded`` error
        (0 = unbounded, no shedding).
    degrade_after:
        Consecutive worker respawns without a completed job that flip
        the daemon into degraded (in-process) mode.
    fault_plan:
        Deterministic chaos script injected into workers (tests/CI
        only; see :mod:`repro.exec.faults`).
    mp_context:
        ``multiprocessing`` start method for workers (None = platform
        default chosen by the supervisor).
    """

    socket_path: str | None = None
    host: str | None = None
    port: int = 0
    max_concurrency: int = 2
    block_memo: int = 0
    journal: bool = False
    cache_dir: str | None = None
    metrics_json: str | None = None
    queue_latency_window: int = 100_000
    workers: int = 0
    worker_retries: int = 2
    hang_timeout: float | None = None
    max_backlog: int = 32
    degrade_after: int = 4
    fault_plan: FaultPlan | None = None
    mp_context: str | None = None

    def __post_init__(self) -> None:
        if self.max_concurrency <= 0:
            raise ValueError("max_concurrency must be positive")
        if self.block_memo < 0:
            raise ValueError("block_memo must be >= 0 (0 = full launch)")
        if self.workers < 0:
            raise ValueError("workers must be >= 0 (0 = in-process)")
        if self.workers > 0:
            # Fail fast on bad pool parameters, before a socket binds.
            self.supervisor_config()

    def supervisor_config(self) -> SupervisorConfig:
        """The worker-pool view of this config (``workers > 0`` only)."""
        kwargs: dict = {}
        if self.mp_context is not None:
            kwargs["mp_context"] = self.mp_context
        return SupervisorConfig(
            workers=self.workers,
            retries=self.worker_retries,
            hang_timeout=self.hang_timeout,
            max_backlog=self.max_backlog,
            degrade_after=self.degrade_after,
            block_memo=self.block_memo,
            cache_dir=self.cache_dir,
            fault_plan=self.fault_plan,
            **kwargs,
        )


@dataclass
class ServeCounters:
    """Request-level metrics (reported by ``stats`` and
    ``--metrics-json``; the serve analogue of ``SimCounters``)."""

    requests_total: int = 0
    simulate_requests: int = 0
    tbpoint_requests: int = 0
    stats_requests: int = 0
    ping_requests: int = 0
    errors: int = 0
    #: Duplicate in-flight requests answered by an existing simulation.
    coalesced_hits: int = 0
    #: Requests answered from the serve journal (``journal=True`` only).
    journal_hits: int = 0
    sims_run: int = 0
    tbpoint_runs: int = 0
    #: Warm = an idle engine was reused; cold = a new ``GPUSimulator``
    #: had to be built.
    engine_warm_acquisitions: int = 0
    engine_cold_acquisitions: int = 0
    kernels_built: int = 0
    kernel_warm_hits: int = 0
    #: Functional-profile sourcing for tbpoint requests.
    profile_memory_hits: int = 0
    profile_disk_hits: int = 0
    profile_computed: int = 0
    #: Block re-syntheses observed across all served simulations (the
    #: resident traces' enlarged windows should pin this at ~0).
    block_regenerations: int = 0
    deadline_misses: int = 0
    draining_rejections: int = 0
    max_queue_depth: int = 0
    #: Supervision (PR 9): requests refused with ``overloaded`` because
    #: the worker backlog was full.
    shed_requests: int = 0
    #: Requests computed in-process because the worker pool was
    #: degraded (repeated respawns) at submit or mid-flight.
    degraded_fallbacks: int = 0
    #: Requests computed in-process after exhausting worker retries.
    worker_exhausted_fallbacks: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


class Server:
    """One ``repro serve`` daemon.  See the module docstring."""

    def __init__(self, config: ServeConfig | None = None):
        self.config = config or ServeConfig()
        self.counters = ServeCounters()
        # Warm state for the in-process path (and degraded fallback);
        # each worker process owns its own JobRunner.
        self._runner = JobRunner(
            block_memo=self.config.block_memo,
            cache_dir=self.config.cache_dir,
        )
        self._supervisor: WorkerSupervisor | None = None
        # Idempotent replay (PR 4 journal machinery) ------------------
        self._journal: SweepJournal | None = None
        self._journal_results: dict[str, dict] = {}
        if self.config.journal:
            root = (
                Path(self.config.cache_dir) / "journals"
                if self.config.cache_dir else default_journal_dir()
            )
            self._journal = SweepJournal.for_sweep(
                "serve", ("results", RESULTS_VERSION), root
            )
            loaded = self._journal.load()
            self._journal_results = {
                k: v for k, v in loaded.items() if isinstance(v, dict)
            }
        # Admission / lifecycle ---------------------------------------
        self._inflight: dict[str, asyncio.Future] = {}
        self._queue_waits: deque = deque(maxlen=self.config.queue_latency_window)
        self._queued = 0
        self._draining = False
        self._pending: set[asyncio.Task] = set()
        self._conn_tasks: set[asyncio.Task] = set()
        self._writers: dict[asyncio.StreamWriter, asyncio.Lock] = {}
        self._server: asyncio.base_events.Server | None = None
        self._sem: asyncio.Semaphore | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._stop: asyncio.Event | None = None
        self._signals_installed: list[int] = []
        self._t0 = time.monotonic()  # uptime metric  # lint: disable=DET001

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------
    @property
    def socket_path(self) -> str | None:
        if self.config.host is not None:
            return None
        if self.config.socket_path:
            return str(self.config.socket_path)
        return default_socket_path(self.config.cache_dir)

    @property
    def address(self) -> tuple[str, int] | None:
        """Bound (host, port) when serving TCP (after :meth:`start`)."""
        if self.config.host is None or self._server is None:
            return None
        sock = self._server.sockets[0]
        return sock.getsockname()[:2]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._stop = asyncio.Event()
        self._sem = asyncio.Semaphore(self.config.max_concurrency)
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.max_concurrency,
            thread_name_prefix="repro-serve",
        )
        if self.config.workers > 0:
            self._supervisor = WorkerSupervisor(self.config.supervisor_config())
            self._supervisor.start()
        self._install_signal_handlers()
        if self.config.host is not None:
            self._server = await asyncio.start_server(
                self._on_connection, self.config.host, self.config.port
            )
        else:
            path = Path(self.socket_path)
            # startup, before any connection is accepted: nothing is
            # waiting on the loop yet, so inline path ops are harmless
            path.parent.mkdir(parents=True, exist_ok=True)  # lint: disable=ASYNC001
            if path.exists():
                # stale socket from a previous run  # lint: disable=ASYNC001
                path.unlink()
            self._server = await asyncio.start_unix_server(
                self._on_connection, path=str(path)
            )

    def _install_signal_handlers(self) -> None:
        """SIGTERM (container/systemd stop) and SIGINT both trigger the
        graceful drain, so accepted requests are answered and
        ``--metrics-json`` flushed.  Best-effort: a loop running off
        the main thread (``ServerThread``) cannot own signals — there
        the test harness calls :meth:`request_stop` directly."""
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.request_stop)
            except (NotImplementedError, RuntimeError, ValueError):
                continue
            self._signals_installed.append(sig)

    def request_stop(self) -> None:
        """Begin graceful shutdown (idempotent, loop-thread only)."""
        self._draining = True
        if self._stop is not None:
            self._stop.set()

    async def serve_until_stopped(self) -> None:
        """Run until a ``shutdown`` request (or :meth:`request_stop`),
        then drain: stop accepting, answer everything already accepted,
        flush metrics, close."""
        assert self._server is not None and self._stop is not None
        try:
            await self._stop.wait()
        finally:
            await self._drain_and_close()

    async def run(self) -> None:
        """Start, serve, drain — the CLI entry point."""
        await self.start()
        await self.serve_until_stopped()

    async def _drain_and_close(self) -> None:
        self._draining = True
        assert self._server is not None
        self._server.close()
        await self._server.wait_closed()
        # Answer every accepted request (tasks may spawn compute tasks,
        # so loop until the pending set is truly empty).
        while True:
            pending = [t for t in tuple(self._pending) if not t.done()]
            if not pending:
                break
            await asyncio.gather(*pending, return_exceptions=True)
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        if self._supervisor is not None:
            # Workers are idle by now (pending drained above); stopping
            # joins processes, so keep it off the event loop.
            await asyncio.to_thread(self._supervisor.stop)
        loop = asyncio.get_running_loop()
        for sig in self._signals_installed:
            try:
                loop.remove_signal_handler(sig)
            except (NotImplementedError, RuntimeError, ValueError):
                pass
        self._signals_installed.clear()
        # mkdir + write_text; idle connections are still being served
        # below, so even the shutdown flush stays off the loop.
        await asyncio.to_thread(self._write_metrics)
        # Hang up on idle connections and reap their handler tasks so
        # nothing is left for loop teardown to cancel noisily.
        for writer in list(self._writers):
            writer.close()
        self._writers.clear()
        if self._conn_tasks:
            await asyncio.gather(*tuple(self._conn_tasks), return_exceptions=True)
        if self.config.host is None:
            try:
                # last statement of the drain: every request answered,
                # every connection closed — nothing left to stall
                Path(self.socket_path).unlink()  # lint: disable=ASYNC001
            except OSError:
                pass

    def _write_metrics(self) -> None:
        if not self.config.metrics_json:
            return
        try:
            path = Path(self.config.metrics_json)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(self.stats_payload(), indent=2) + "\n")
        except OSError:
            pass  # metrics are best-effort, never fatal on the way out

    # ------------------------------------------------------------------
    # Connections and dispatch
    # ------------------------------------------------------------------
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        me = asyncio.current_task()
        if me is not None:
            self._conn_tasks.add(me)
            me.add_done_callback(self._conn_tasks.discard)
        self._writers[writer] = asyncio.Lock()
        conn_tasks: set[asyncio.Task] = set()
        try:
            while True:
                try:
                    msg = await read_message(reader)
                except (ProtocolError, ConnectionError, OSError):
                    break
                if msg is None:
                    break
                task = asyncio.create_task(self._handle_message(msg, writer))
                for registry in (self._pending, conn_tasks):
                    registry.add(task)
                    task.add_done_callback(registry.discard)
        finally:
            # Let this connection's in-flight responses go out before
            # the writer closes under them.
            while True:
                open_tasks = [t for t in tuple(conn_tasks) if not t.done()]
                if not open_tasks:
                    break
                await asyncio.gather(*open_tasks, return_exceptions=True)
            self._writers.pop(writer, None)
            writer.close()

    async def _send(self, writer: asyncio.StreamWriter, obj: dict) -> None:
        lock = self._writers.get(writer)
        if lock is None:
            return  # connection already torn down
        try:
            async with lock:
                await write_message(writer, obj)
        except (ConnectionError, RuntimeError, OSError):
            pass  # peer vanished; its response is simply dropped

    async def _handle_message(
        self, msg: dict, writer: asyncio.StreamWriter
    ) -> None:
        rid = msg.get("id")
        self.counters.requests_total += 1
        try:
            kind = msg.get("kind")
            if kind == "ping":
                self.counters.ping_requests += 1
                result: dict = {
                    "protocol": PROTOCOL_VERSION,
                    "pid": os.getpid(),
                    "draining": self._draining,
                }
            elif kind == "stats":
                self.counters.stats_requests += 1
                result = self.stats_payload()
            elif kind == "shutdown":
                result = {"draining": True, "inflight": len(self._inflight)}
                self.request_stop()
            else:
                result = await self._handle_compute(
                    str(kind), msg.get("params") or {}
                )
            response = {"id": rid, "ok": True, "result": result}
        except RequestError as exc:
            self.counters.errors += 1
            response = {"id": rid, "ok": False, "error": str(exc)}
            # Additive, machine-readable error classification (PR 9):
            # same protocol version, scripted clients can react to
            # overloaded/draining/deadline without parsing prose.
            if exc.kind is not None:
                response["error_kind"] = exc.kind
            if exc.retry_after is not None:
                response["retry_after"] = exc.retry_after
        except Exception as exc:  # defensive: one bad request != a dead server
            self.counters.errors += 1
            response = {"id": rid, "ok": False, "error": f"internal error: {exc!r}"}
        await self._send(writer, response)

    # ------------------------------------------------------------------
    # Compute requests: coalescing, admission, deadlines
    # ------------------------------------------------------------------
    async def _handle_compute(self, kind: str, params: dict) -> dict:
        if kind == "simulate":
            self.counters.simulate_requests += 1
        elif kind == "tbpoint":
            self.counters.tbpoint_requests += 1
        if self._draining:
            self.counters.draining_rejections += 1
            raise RequestError(
                "server draining; request rejected", kind="draining"
            )
        norm = normalize_request(kind, params)
        key = request_key(norm)
        timeout = params.get("timeout")
        if timeout is not None:
            try:
                timeout = float(timeout)
            except (TypeError, ValueError) as exc:
                raise RequestError(f"malformed timeout: {exc}") from exc

        stored = self._journal_results.get(key)
        if stored is not None:
            self.counters.journal_hits += 1
            return stored

        fut = self._inflight.get(key)
        if fut is None:
            fut = asyncio.get_running_loop().create_future()
            self._inflight[key] = fut
            task = asyncio.create_task(self._compute(norm, key, fut))
            self._pending.add(task)
            task.add_done_callback(self._pending.discard)
        else:
            self.counters.coalesced_hits += 1

        try:
            if timeout is not None:
                outcome = await asyncio.wait_for(asyncio.shield(fut), timeout)
            else:
                outcome = await fut
        except asyncio.TimeoutError:
            self.counters.deadline_misses += 1
            raise RequestError(
                f"deadline exceeded after {timeout:g}s in queue "
                "(the simulation still completes and warms the server)",
                kind="deadline",
            ) from None
        status, value = outcome
        if status == "ok":
            return value
        raise value  # a RequestError (carries kind/retry_after)

    async def _compute(self, norm: dict, key: str, fut: asyncio.Future) -> None:
        """Owner task for one content key: run the job on the worker
        pool (or the in-process thread path), publish ``("ok",
        payload)`` / ``("error", RequestError)`` to every waiter.  Runs
        to completion even if every requester's deadline lapsed — the
        result warms the journal for the next asker."""
        try:
            if self._supervisor is not None:
                payload, meta = await self._compute_in_worker(norm)
            else:
                payload, meta = await self._compute_in_thread(norm)
            self._apply_meta(meta)
            if self._journal is not None:
                # The journal fsyncs every line; keep it off the loop.
                await asyncio.to_thread(self._journal.record, key, payload)
                self._journal_results[key] = payload
            outcome = ("ok", payload)
        except RequestError as exc:
            outcome = ("error", exc)
        except Exception as exc:
            outcome = ("error", RequestError(f"internal error: {exc!r}"))
        finally:
            self._inflight.pop(key, None)
        if not fut.done():
            fut.set_result(outcome)

    async def _compute_in_worker(self, norm: dict) -> tuple[dict, JobMeta]:
        """Run one job on the supervised pool.  Admission is the pool's
        bounded backlog (shed past it — never unbounded queueing); a
        degraded pool or an exhausted retry budget falls back to the
        in-process path so the request is still answered.  Injected
        faults only ever fire inside workers (the plan's parent-PID
        guard), so the fallback attempt is always clean."""
        assert self._supervisor is not None
        try:
            wfut = self._supervisor.submit(norm)
        except Overloaded as exc:
            self.counters.shed_requests += 1
            raise RequestError(
                str(exc), kind="overloaded", retry_after=exc.retry_after
            ) from None
        except WorkersUnavailable:
            self.counters.degraded_fallbacks += 1
            return await self._compute_in_thread(norm)
        try:
            payload, meta_dict = await asyncio.wrap_future(wfut)
        except RequestError:
            raise  # the request's own fault, same on any path
        except WorkersUnavailable:
            self.counters.degraded_fallbacks += 1
            return await self._compute_in_thread(norm)
        except WorkerJobFailed:
            self.counters.worker_exhausted_fallbacks += 1
            return await self._compute_in_thread(norm)
        return payload, JobMeta(**meta_dict)

    async def _compute_in_thread(self, norm: dict) -> tuple[dict, JobMeta]:
        """The PR 8 in-process path: admit under the concurrency
        semaphore, run on the daemon's thread pool."""
        assert self._sem is not None
        loop = asyncio.get_running_loop()
        t0 = time.monotonic()  # queue-latency metric  # lint: disable=DET001
        self._queued += 1
        self.counters.max_queue_depth = max(
            self.counters.max_queue_depth, self._queued
        )
        admitted = False
        try:
            async with self._sem:
                self._queued -= 1
                admitted = True
                wait = time.monotonic() - t0  # queue-latency metric  # lint: disable=DET001
                self._queue_waits.append(wait)
                return await loop.run_in_executor(
                    self._executor, self._runner.run, norm
                )
        finally:
            if not admitted:
                self._queued -= 1

    def _apply_meta(self, meta: JobMeta) -> None:
        c = self.counters
        if meta.kind == "simulate":
            c.sims_run += 1
        else:
            c.tbpoint_runs += 1
        if meta.engine_warm:
            c.engine_warm_acquisitions += 1
        else:
            c.engine_cold_acquisitions += 1
        if meta.kernel_warm:
            c.kernel_warm_hits += 1
        else:
            c.kernels_built += 1
        c.block_regenerations += meta.block_regenerations
        if meta.profile_source == "memory":
            c.profile_memory_hits += 1
        elif meta.profile_source == "disk":
            c.profile_disk_hits += 1
        elif meta.profile_source == "computed":
            c.profile_computed += 1

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def stats_payload(self) -> dict:
        waits = sorted(self._queue_waits)
        queue: dict = {
            "depth": self._queued,
            "samples": len(waits),
        }
        if waits:
            queue.update(
                p50_ms=percentile(waits, 0.50) * 1e3,
                p90_ms=percentile(waits, 0.90) * 1e3,
                p99_ms=percentile(waits, 0.99) * 1e3,
                max_ms=waits[-1] * 1e3,
            )
        payload = {
            "protocol": PROTOCOL_VERSION,
            "results_version": RESULTS_VERSION,
            "pid": os.getpid(),
            "uptime_s": time.monotonic() - self._t0,  # uptime metric  # lint: disable=DET001
            "draining": self._draining,
            "max_concurrency": self.config.max_concurrency,
            "block_memo": self.config.block_memo,
            "journal": self._journal is not None,
            "journal_entries": len(self._journal_results),
            "counters": self.counters.as_dict(),
            "queue": queue,
            "inflight": len(self._inflight),
        }
        # In-process warm stores (worker processes keep their own; the
        # keys below describe the daemon's thread-path/fallback runner).
        payload.update(self._runner.stats())
        if self._supervisor is not None:
            payload["workers"] = self._supervisor.snapshot()
        return payload


def run_server(config: ServeConfig | None = None) -> None:
    """Blocking entry point (the ``repro serve`` command body).

    SIGTERM and SIGINT are handled inside the loop (installed by
    :meth:`Server.start`): both trigger the graceful drain, so accepted
    requests are answered and ``--metrics-json`` is flushed before
    exit.  The ``KeyboardInterrupt`` catch is the fallback for
    platforms where signal handlers can't be installed."""
    server = Server(config)
    try:
        asyncio.run(server.run())
    except KeyboardInterrupt:
        pass


class ServerThread:
    """A server running on a background thread — the harness tests and
    benches use to host a real daemon inside one process.

    >>> handle = ServerThread.start(ServeConfig(socket_path=...))
    >>> ... ServeClient(handle.socket_path) ...
    >>> handle.stop()
    """

    def __init__(self, server: Server):
        self.server = server
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    @classmethod
    def start(
        cls, config: ServeConfig | None = None, timeout: float = 10.0
    ) -> "ServerThread":
        handle = cls(Server(config))
        thread = threading.Thread(
            target=handle._run, name="repro-serve-loop", daemon=True
        )
        handle._thread = thread
        thread.start()
        if not handle._ready.wait(timeout):
            raise RuntimeError("serve thread failed to start in time")
        if handle._startup_error is not None:
            raise RuntimeError(
                f"serve thread failed to start: {handle._startup_error!r}"
            )
        return handle

    def _run(self) -> None:
        async def body() -> None:
            try:
                await self.server.start()
            except BaseException as exc:
                self._startup_error = exc
                self._ready.set()
                raise
            self._loop = asyncio.get_running_loop()
            self._ready.set()
            await self.server.serve_until_stopped()

        try:
            asyncio.run(body())
        except BaseException:
            self._ready.set()

    @property
    def socket_path(self) -> str | None:
        return self.server.socket_path

    @property
    def address(self) -> tuple[str, int] | None:
        return self.server.address

    def stop(self, timeout: float = 30.0) -> None:
        """Request a graceful drain and join the loop thread."""
        loop = self._loop
        if loop is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(self.server.request_stop)
            except RuntimeError:
                pass  # loop already closing
        if self._thread is not None:
            self._thread.join(timeout)

    def __enter__(self) -> "ServerThread":
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()


__all__ = [
    "ServeConfig",
    "ServeCounters",
    "Server",
    "ServerThread",
    "default_socket_path",
    "run_server",
]
