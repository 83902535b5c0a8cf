"""Supervised multi-process serving (``repro.exec.pool`` behind
``repro serve``, DESIGN.md §14) — the daemon chaos suite.

The supervision contract under test:

1. **Crash isolation** — an injected worker death never takes the
   daemon down: the worker respawns, the request retries on a healthy
   worker, and the served payload is bit-identical to a fresh direct
   run, exactly-once per content key.
2. **Hang detection** — a worker scripted to stall past the heartbeat
   deadline is killed and its request retried.
3. **Backpressure** — past ``max_backlog`` requests are shed with a
   structured ``overloaded`` error carrying a retry-after hint, never
   queued without bound.
4. **Degradation** — repeated respawns mark the pool degraded:
   compute requests get an ``unavailable`` answer, a job out of
   retries a ``failed`` one, and ``ping``/``stats`` keep working.
5. **Lifecycle** — SIGTERM drains a real daemon process gracefully and
   flushes ``--metrics-json``; the client survives one reconnect.

Fault injection rides PR 4's :class:`~repro.exec.faults.FaultPlan`:
faults fire inside workers at exact ``(submission index, attempt)``
coordinates, so every scenario here is deterministic — no sleeps to
"probably" hit a window.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.exec.faults import CRASH, HANG, RAISE, Fault, FaultPlan
from repro.serve import (
    ServeClient,
    ServeConfig,
    ServeError,
    ServerThread,
    direct_payload,
    normalize_request,
    payloads_equal,
    wait_for_server,
)

#: Cheap request used throughout: ~100 blocks, well under a second.
KERNEL = "stream"
SCALE = 0.02


def start_server(tmp_path, **overrides) -> ServerThread:
    config = ServeConfig(
        socket_path=str(tmp_path / "serve.sock"),
        cache_dir=str(tmp_path / "cache"),
        **overrides,
    )
    handle = ServerThread.start(config)
    wait_for_server(handle.socket_path)
    return handle


def sim_params(**extra) -> dict:
    return {"kernel": KERNEL, "scale": SCALE, **extra}


def direct(params: dict) -> dict:
    return direct_payload(normalize_request("simulate", params))


class TestWorkerPool:
    def test_worker_payloads_bit_identical_to_direct(self, tmp_path):
        with start_server(tmp_path, workers=2) as handle:
            with ServeClient(handle.socket_path) as client:
                served = client.simulate(**sim_params(seed=3))
                tbp = client.tbpoint(**sim_params(seed=3))
                stats = client.stats()
        assert payloads_equal(served, direct(sim_params(seed=3)))
        assert tbp["overall_ipc"] > 0
        w = stats["workers"]
        assert w["alive"] == w["configured"] == 2
        assert w["jobs_completed"] == 2
        assert not w["degraded"]
        assert stats["counters"]["sims_run"] == 1
        assert stats["counters"]["tbpoint_runs"] == 1

    def test_stopped_pool_closes_its_wake_pipe(self, tmp_path):
        """Every daemon runs a pool, so a pipe left open per stop leaks
        two descriptors per server lifetime."""
        from repro.exec.pool import SupervisorConfig, WorkerSupervisor
        from repro.serve.jobs import init_runner, run_job

        pool = WorkerSupervisor(
            run_job, SupervisorConfig(workers=1), init_runner,
            (str(tmp_path / "cache"),),
        )
        pool.start()
        pool.stop()
        assert pool._wake_r.closed and pool._wake_w.closed

    def test_bad_request_rejected_without_retry(self, tmp_path):
        """A RequestError raised inside a worker is the request's own
        fault: reported once, never retried, never a respawn."""
        with start_server(tmp_path, workers=1) as handle:
            with ServeClient(handle.socket_path) as client:
                with pytest.raises(ServeError, match="out of range"):
                    client.simulate(**sim_params(launch=10_000))
                stats = client.stats()
        w = stats["workers"]
        assert w["rejects"] == 1
        assert w["retries"] == 0
        assert w["respawns"] == 0


class TestCrashIsolation:
    def test_crashed_worker_respawned_and_request_retried(self, tmp_path):
        plan = FaultPlan(faults=(Fault(CRASH, 0, 0),))
        with start_server(
            tmp_path, workers=2, fault_plan=plan, retries=2
        ) as handle:
            with ServeClient(handle.socket_path) as client:
                served = client.simulate(**sim_params(seed=11))
                # The daemon is still healthy for the next request.
                again = client.simulate(**sim_params(seed=12))
                stats = client.stats()
        assert payloads_equal(served, direct(sim_params(seed=11)))
        assert payloads_equal(again, direct(sim_params(seed=12)))
        w = stats["workers"]
        assert w["crashes"] >= 1
        assert w["respawns"] >= 1
        assert w["retries"] >= 1
        assert w["alive"] == 2

    def test_exactly_once_per_content_key_under_crash(self, tmp_path):
        """Duplicate in-flight requests coalesce onto one execution
        even while that execution crashes a worker and retries: one
        completed simulation, N identical answers."""
        plan = FaultPlan(faults=(Fault(CRASH, 0, 0),))
        params = sim_params(seed=21)
        with start_server(
            tmp_path, workers=1, fault_plan=plan, retries=2
        ) as handle:
            with ServeClient(handle.socket_path) as client:
                rids = [client.submit("simulate", params) for _ in range(4)]
                answers = [client.drain(rid) for rid in rids]
                stats = client.stats()
        assert all(a == answers[0] for a in answers)
        assert payloads_equal(answers[0], direct(params))
        assert stats["counters"]["sims_run"] == 1
        assert stats["counters"]["coalesced_hits"] == 3
        assert stats["workers"]["jobs_completed"] == 1


class TestHangDetection:
    def test_hung_worker_killed_and_request_retried(self, tmp_path):
        plan = FaultPlan(faults=(Fault(HANG, 0, 0, duration=60.0),))
        with start_server(
            tmp_path,
            workers=2,
            fault_plan=plan,
            hang_timeout=1.0,
            retries=2,
        ) as handle:
            with ServeClient(handle.socket_path) as client:
                served = client.simulate(**sim_params(seed=31))
                stats = client.stats()
        assert payloads_equal(served, direct(sim_params(seed=31)))
        w = stats["workers"]
        assert w["hangs"] == 1
        assert w["respawns"] >= 1
        assert w["retries"] >= 1


class TestBackpressure:
    def test_backlog_full_sheds_with_retry_after(self, tmp_path):
        """One worker pinned by a scripted stall, backlog of one: the
        second distinct request is shed with a structured overloaded
        error instead of queueing."""
        plan = FaultPlan(faults=(Fault(HANG, 0, 0, duration=3.0),))
        with start_server(
            tmp_path, workers=1, max_backlog=1, fault_plan=plan
        ) as handle:
            with ServeClient(handle.socket_path) as client:
                slow = client.submit("simulate", sim_params(seed=41))
                # Give the stalled job time to occupy the one slot.
                time.sleep(0.3)
                shed = client.submit("simulate", sim_params(seed=42))
                with pytest.raises(ServeError) as excinfo:
                    client.drain(shed)
                assert excinfo.value.kind == "overloaded"
                assert excinfo.value.retry_after > 0
                answered = client.drain(slow)
                stats = client.stats()
        assert payloads_equal(answered, direct(sim_params(seed=41)))
        assert stats["counters"]["shed_requests"] >= 1
        assert stats["counters"]["errors"] >= 1


class TestGracefulDegradation:
    def test_repeated_crashes_answer_unavailable(self, tmp_path):
        """A worker-killing environment (every attempt crashes) flips
        the pool into degraded mode for good: the job in flight and
        every later compute request get an ``unavailable`` answer,
        while ``ping`` and ``stats`` keep working."""
        plan = FaultPlan(
            faults=tuple(Fault(CRASH, 0, a) for a in range(4))
        )
        with start_server(
            tmp_path,
            workers=1,
            fault_plan=plan,
            retries=3,
            degrade_after=2,
        ) as handle:
            with ServeClient(handle.socket_path) as client:
                with pytest.raises(ServeError) as first:
                    client.simulate(**sim_params(seed=51))
                # Degraded now: later requests never reach a worker.
                with pytest.raises(ServeError) as later:
                    client.simulate(**sim_params(seed=52))
                assert client.ping()["protocol"] >= 1
                stats = client.stats()
        for excinfo in (first, later):
            assert excinfo.value.kind == "unavailable"
            assert excinfo.value.retry_after is None
            assert "degraded" in str(excinfo.value)
        assert stats["workers"]["degraded"]
        assert stats["workers"]["degrade_reason"]
        assert stats["counters"]["errors"] == 2
        assert stats["counters"]["sims_run"] == 0

    def test_retry_budget_exhaustion_answers_failed(self, tmp_path):
        """Crashes consume the per-job budget without tripping the
        degrade threshold: the job fails with the last worker error and
        the pool stays up for the next request."""
        plan = FaultPlan(
            faults=tuple(Fault(CRASH, 0, a) for a in range(2))
        )
        with start_server(
            tmp_path,
            workers=1,
            fault_plan=plan,
            retries=1,
            degrade_after=10,
        ) as handle:
            with ServeClient(handle.socket_path) as client:
                with pytest.raises(ServeError) as excinfo:
                    client.simulate(**sim_params(seed=61))
                clean = client.simulate(**sim_params(seed=62))
                assert client.ping()["protocol"] >= 1
                stats = client.stats()
        assert excinfo.value.kind == "failed"
        assert excinfo.value.retry_after is None
        assert "2 worker attempt(s)" in str(excinfo.value)
        assert "worker died" in str(excinfo.value)
        assert payloads_equal(clean, direct(sim_params(seed=62)))
        assert not stats["workers"]["degraded"]
        assert stats["workers"]["failures"] == 1
        assert stats["counters"]["errors"] == 1
        assert stats["counters"]["sims_run"] == 1


class TestChaosGate:
    """The PR 9 acceptance scenario: one plan kills a worker
    mid-request and hangs another on a later attempt; the daemon stays
    up, every request is answered bit-identically to a fresh direct
    run, exactly-once per content key, and the supervision counters
    land in ``--metrics-json``."""

    def test_crash_then_hang_chaos_gate(self, tmp_path):
        metrics = tmp_path / "metrics.json"
        plan = FaultPlan(
            faults=(
                Fault(CRASH, 0, 0),               # request 0: worker dies
                Fault(RAISE, 1, 0),               # request 1: first attempt fails
                Fault(HANG, 1, 1, duration=60.0),  # ...second attempt hangs
            )
        )
        params0 = sim_params(seed=71)
        params1 = sim_params(seed=72)
        with start_server(
            tmp_path,
            workers=2,
            fault_plan=plan,
            retries=2,
            hang_timeout=1.0,
            metrics_json=str(metrics),
        ) as handle:
            with ServeClient(handle.socket_path) as client:
                rid0 = client.submit("simulate", params0)
                rid1 = client.submit("simulate", params1)
                served0 = client.drain(rid0)
                served1 = client.drain(rid1)
                stats = client.stats()
        # Answered, bit-identical, exactly-once per content key.
        assert payloads_equal(served0, direct(params0))
        assert payloads_equal(served1, direct(params1))
        assert stats["counters"]["sims_run"] == 2
        w = stats["workers"]
        assert w["crashes"] >= 1
        assert w["hangs"] == 1
        assert w["respawns"] >= 2
        assert w["retries"] >= 3
        assert w["jobs_completed"] == 2
        assert not w["degraded"]
        # Supervision events are flushed to --metrics-json on drain.
        dumped = json.loads(metrics.read_text())
        assert dumped["workers"]["crashes"] >= 1
        assert dumped["workers"]["hangs"] == 1
        assert dumped["workers"]["respawns"] >= 2
        assert dumped["counters"]["sims_run"] == 2


class TestClientReconnect:
    def test_call_reconnects_once_after_server_restart(self, tmp_path):
        """A connection severed between calls (daemon restart on the
        same socket) is survived by exactly one reconnect; requests are
        idempotent under content keys, so the resend is safe."""
        sock = str(tmp_path / "serve.sock")
        first = start_server(tmp_path)
        client = ServeClient(sock)
        assert client.ping()["protocol"] >= 1
        first.stop()
        second = start_server(tmp_path)
        try:
            served = client.simulate(**sim_params(seed=81))
            assert payloads_equal(served, direct(sim_params(seed=81)))
            assert client.reconnects == 1
        finally:
            client.close()
            second.stop()

    def test_retry_connect_false_surfaces_the_failure(self, tmp_path):
        from repro.serve import ServeConnectionError

        sock = str(tmp_path / "serve.sock")
        first = start_server(tmp_path)
        client = ServeClient(sock, retry_connect=False)
        client.ping()
        first.stop()
        second = start_server(tmp_path)
        try:
            with pytest.raises(ServeConnectionError):
                client.ping()
            assert client.reconnects == 0
        finally:
            client.close()
            second.stop()


class TestSigtermDrain:
    def test_sigterm_drains_and_flushes_metrics(self, tmp_path):
        """A real ``repro serve`` process under SIGTERM (the
        container/systemd stop signal) answers what it accepted,
        flushes ``--metrics-json`` and exits cleanly."""
        import repro

        sock = str(tmp_path / "serve.sock")
        metrics = tmp_path / "metrics.json"
        env = dict(os.environ)
        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_dir, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro",
                "--cache-dir", str(tmp_path / "cache"),
                "serve",
                "--socket", sock,
                "--metrics-json", str(metrics),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )
        try:
            wait_for_server(sock, timeout=60.0)
            with ServeClient(sock) as client:
                served = client.simulate(**sim_params(seed=91))
            assert payloads_equal(served, direct(sim_params(seed=91)))
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, out.decode(errors="replace")
        dumped = json.loads(metrics.read_text())
        assert dumped["counters"]["sims_run"] == 1
        assert dumped["draining"] is True


class TestBindFailure:
    """A daemon that cannot bind leaves no worker or supervisor behind."""

    def test_port_in_use_tears_down_workers(self, tmp_path):
        from repro._cli import main

        with socket.socket() as held:
            held.bind(("127.0.0.1", 0))
            held.listen()
            port = held.getsockname()[1]
            with pytest.raises(SystemExit, match="cannot listen"):
                main([
                    "--cache-dir", str(tmp_path / "cache"),
                    "serve", "--host", "127.0.0.1", "--port", str(port),
                    "--workers", "1",
                ])
        assert not any(
            t.name == "repro-pool-supervisor" for t in threading.enumerate()
        )
        assert multiprocessing.active_children() == []


class TestRequestCLI:
    """``repro request`` exits nonzero with a structured JSON error on
    stderr when the daemon refuses — over unix sockets and TCP."""

    def _run_request(self, argv):
        from repro._cli import main

        return main(argv)

    def test_unix_error_payload_exits_nonzero(self, tmp_path, capsys):
        with start_server(tmp_path) as handle:
            with pytest.raises(SystemExit) as excinfo:
                self._run_request([
                    "--scale", str(SCALE),
                    "request", "simulate", KERNEL,
                    "--socket", handle.socket_path,
                    "--launch", "10000",
                ])
            assert excinfo.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            error = json.loads(captured.err)
            assert "out of range" in error["error"]

    def test_unix_success_prints_payload(self, tmp_path, capsys):
        with start_server(tmp_path) as handle:
            rc = self._run_request([
                "request", "ping", "--socket", handle.socket_path,
            ])
            assert not rc
            payload = json.loads(capsys.readouterr().out)
            assert payload["protocol"] >= 1

    def test_tcp_error_payload_exits_nonzero(self, tmp_path, capsys):
        config = ServeConfig(
            host="127.0.0.1", port=0, cache_dir=str(tmp_path / "cache")
        )
        with ServerThread.start(config) as handle:
            host, port = handle.address
            wait_for_server(host=host, port=port)
            with pytest.raises(SystemExit) as excinfo:
                self._run_request([
                    "--scale", str(SCALE),
                    "request", "simulate", KERNEL,
                    "--host", host, "--port", str(port),
                    "--launch", "10000",
                ])
            assert excinfo.value.code == 2
            error = json.loads(capsys.readouterr().err)
            assert "out of range" in error["error"]

    def test_draining_error_kind_reaches_the_client(self, tmp_path):
        """The machine-readable classification rides the wire: a
        draining server refuses compute with ``error_kind: draining``
        and the client surfaces it as ``ServeError.kind``."""
        with start_server(tmp_path, workers=1) as handle:
            client = ServeClient(handle.socket_path)
            # Queue enough work that the drain is still in progress
            # when the post-shutdown request arrives.
            rids = [
                client.submit("simulate", sim_params(seed=seed))
                for seed in (1, 2, 3)
            ]
            client.shutdown()
            with pytest.raises(ServeError) as excinfo:
                client.simulate(**sim_params(seed=99))
            assert excinfo.value.kind == "draining"
            for rid in rids:
                client.drain(rid)  # accepted work still answered
            client.close()
