"""The long-lived simulation server behind ``repro serve``.

The daemon and its supervised worker processes (the repo's one
worker pool, :mod:`repro.exec.pool`) own the hot state every one-shot
invocation throws away.  Each worker keeps its own:

* **a warm engine** — the process's one simulator
  (:mod:`repro.sim.worker`) on the default ``GPUConfig``, so
  simulator-lifetime trace-interning tables survive across requests;
* **resident traces** — :class:`KernelTrace` objects per
  (kernel, scale, seed), their launches' block-memo windows enlarged
  (by default to the launch's full block count) so >256-block launches
  stop re-synthesizing blocks through the bounded LRU on every pass;
* **warm profiles** — an in-memory mirror of the content-addressed
  profile cache, backed by the persistent on-disk
  :class:`~repro.exec.cache.ProfileCache`.

The daemon itself keeps **served results** (opt-in ``journal=True``):
completed payloads recorded to a
:class:`~repro.exec.journal.SweepJournal` under their request content
keys, replayed idempotently across server restarts.

The asyncio front end coalesces duplicate in-flight requests (same
content key → one simulation, N responses), submits each remaining
job to the worker pool (bounded by its backlog; past it requests are
shed), honours per-request deadlines while queued (the simulation
itself always completes and warms the server), and drains gracefully
on shutdown: queued work finishes and every accepted request is
answered before the socket closes.  A degraded pool or a job out of
retries becomes an error answer (``unavailable`` / ``failed``);
``ping``, ``stats`` and ``shutdown`` keep working.

Correctness stance: every served payload is bit-identical to
:func:`repro.serve.payloads.direct_payload` — a fresh direct run of the
same request — because everything a worker keeps warm is a pure cache
(see :mod:`repro.serve.jobs`).  DESIGN.md §13–14 record the latency
numbers and the supervision contract.

Determinism lint: the ``serve`` package is inside ``repro lint``'s
deterministic scope (DESIGN.md §10), but a server legitimately reads
the wall clock, here for uptime (the pool's heartbeat deadlines and
queue waits live in ``exec/``, outside the scope).  Those sites carry
``lint: disable=DET001`` pragmas; they feed operator metrics and
watchdogs, never simulation results.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.exec.journal import SweepJournal, default_journal_dir
from repro.exec.pool import (
    JobRejected,
    Overloaded,
    SupervisorConfig,
    WorkerJobFailed,
    WorkerSupervisor,
    WorkersUnavailable,
)
from repro.serve.jobs import JobMeta, init_runner, run_job
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


def default_socket_path(cache_dir: str | Path | None = None) -> str:
    """``<cache root>/serve.sock`` — the unix socket lives next to the
    profile cache and journals so one ``--cache-dir`` relocates all
    persistent and rendezvous state together."""
    root = Path(cache_dir) if cache_dir else default_journal_dir().parent
    return str(root / "serve.sock")


@dataclass(frozen=True)
class ServeConfig(SupervisorConfig):
    """How one server process runs: the worker-pool settings of
    :class:`~repro.exec.pool.SupervisorConfig` (``workers``,
    ``retries``, ``hang_timeout``, ``max_backlog``, ``degrade_after``,
    ``fault_plan``) plus the daemon's own.

    Attributes
    ----------
    cache_dir:
        Override the persistent cache root: the workers' profiles, the
        daemon's journals and the default socket all live there.
    socket_path:
        Unix-domain socket to listen on (default
        ``<cache root>/serve.sock``).  Ignored when ``host`` is set.
    host / port:
        TCP listen address instead of a unix socket; ``port=0`` binds
        an ephemeral port (read it back from ``Server.address``).
    journal:
        Record completed payloads to the serve journal and replay them
        idempotently (including across restarts).  Off by default so
        warm-request latency measures warm *simulation*, not a lookup.
    metrics_json:
        Dump the final ``stats`` payload to this file on shutdown.
    """

    cache_dir: str | None = None
    socket_path: str | None = None
    host: str | None = None
    port: int = 0
    journal: bool = False
    metrics_json: str | None = None


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
    #: Requests refused with ``overloaded`` because the worker backlog
    #: was full.
    shed_requests: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


class Server:
    """One ``repro serve`` daemon.  See the module docstring."""

    def __init__(self, config: ServeConfig | None = None):
        self.config = config or ServeConfig()
        self.counters = ServeCounters()
        # Compute runs here; each worker process owns its warm state.
        self._supervisor = WorkerSupervisor(
            run_job, self.config, init_runner, (self.config.cache_dir,)
        )
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
        self._draining = False
        self._pending: set[asyncio.Task] = set()
        self._conn_tasks: set[asyncio.Task] = set()
        self._writers: dict[asyncio.StreamWriter, asyncio.Lock] = {}
        self._server: asyncio.base_events.Server | None = None
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
        """Start the workers, install the signal handlers and bind.  If
        the bind fails, the workers and handlers are torn down before
        the error propagates, so no worker outlives the caller."""
        self._stop = asyncio.Event()
        self._supervisor.start()
        self._install_signal_handlers()
        try:
            await self._bind()
        except BaseException:
            self._remove_signal_handlers()
            await asyncio.to_thread(self._supervisor.stop)
            raise

    async def _bind(self) -> None:
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

    def _remove_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for sig in self._signals_installed:
            try:
                loop.remove_signal_handler(sig)
            except (NotImplementedError, RuntimeError, ValueError):
                pass
        self._signals_installed.clear()

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
        # Workers are idle by now (pending drained above); stopping
        # joins processes, so keep it off the event loop.
        await asyncio.to_thread(self._supervisor.stop)
        self._remove_signal_handlers()
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
                try:
                    await write_message(writer, obj)
                except ProtocolError as exc:
                    # The response cannot be framed (too large, or a
                    # field the schema does not declare); nothing was
                    # written, so answer the request with the reason.
                    self.counters.errors += 1
                    await write_message(writer, {
                        "id": obj.get("id"),
                        "ok": False,
                        "error": f"response not sent: {exc}",
                    })
        except (ConnectionError, RuntimeError, OSError, ProtocolError):
            pass  # peer vanished, or even the error reply cannot be framed

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
            # Machine-readable error classification (the kinds are
            # listed on RequestError): scripted clients react without
            # parsing prose.
            if exc.kind is not None:
                response["error_kind"] = exc.kind
            if exc.retry_after is not None:
                response["retry_after"] = exc.retry_after
        except Exception as exc:  # defensive: one bad request != a dead server
            self.counters.errors += 1
            response = {"id": rid, "ok": False, "error": f"internal error: {exc!r}"}
        await self._send(writer, response)

    # ------------------------------------------------------------------
    # Compute requests: coalescing, the worker pool, deadlines
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
        timeout = params.get("timeout")  # validated by normalize_request

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
        pool, publish ``("ok", payload)`` / ``("error", RequestError)``
        to every waiter.  Runs to completion even if every requester's
        deadline lapsed — the result warms the journal for the next
        asker."""
        try:
            try:
                payload, meta = await asyncio.wrap_future(
                    self._supervisor.submit(norm)
                )
            except Overloaded as exc:
                self.counters.shed_requests += 1
                raise RequestError(
                    str(exc), kind="overloaded", retry_after=exc.retry_after
                ) from None
            except WorkersUnavailable as exc:
                raise RequestError(str(exc), kind="unavailable") from None
            except WorkerJobFailed as exc:
                raise RequestError(str(exc), kind="failed") from None
            except JobRejected as exc:
                raise RequestError(str(exc)) from None
            self._apply_meta(JobMeta(**meta))
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
        return {
            "protocol": PROTOCOL_VERSION,
            "results_version": RESULTS_VERSION,
            "pid": os.getpid(),
            "uptime_s": time.monotonic() - self._t0,  # uptime metric  # lint: disable=DET001
            "draining": self._draining,
            "journal": self._journal is not None,
            "journal_entries": len(self._journal_results),
            "counters": self.counters.as_dict(),
            "queue": self._supervisor.queue_stats(),
            "inflight": len(self._inflight),
            "workers": self._supervisor.snapshot(),
        }


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
