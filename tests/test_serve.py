"""The warm-state simulation service (``repro.serve``, DESIGN.md §13).

The contract under test, in order of importance:

1. **Bit-identity** — every served payload equals a fresh direct run
   of the same request (:func:`repro.serve.direct_payload`), however
   warm the server is.
2. **Exactly-once per content key** — duplicate in-flight requests
   coalesce onto one simulation; with the journal enabled, repeats
   across time (and across restarts) replay instead of recomputing.
3. **Lifecycle honesty** — graceful drain answers everything accepted
   before shutdown; deadlines reject the *wait*, never the work.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
import time

import pytest

from repro.config import GPUConfig
from repro.serve import (
    RequestError,
    ServeClient,
    ServeConfig,
    ServeError,
    Server,
    ServerThread,
    direct_payload,
    normalize_request,
    payloads_equal,
    request_key,
    wait_for_server,
)
from repro.serve.payloads import result_payload
from repro.serve.protocol import (
    MAX_MESSAGE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_payload,
    encode_message,
)
from repro.sim import GPUSimulator
from repro.workloads import get_workload

#: Cheap request used throughout: ~100 blocks, well under a second.
KERNEL = "stream"
SCALE = 0.02


@pytest.fixture
def serve_dir(tmp_path):
    """Isolated cache root + socket path for one server."""
    return tmp_path


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


class TestProtocol:
    def test_round_trip(self):
        msg = {"id": 3, "kind": "ping", "params": {"x": [1, 2.5, "s"]}}
        framed = encode_message(msg)
        assert decode_payload(framed[4:]) == msg

    def test_rejects_non_object_payload(self):
        with pytest.raises(ProtocolError):
            decode_payload(b"[1, 2]")
        with pytest.raises(ProtocolError):
            decode_payload(b"\xff\xfe")

    def test_rejects_oversize_message(self):
        big = {"id": 1, "ok": True, "result": {"blob": "x" * MAX_MESSAGE_BYTES}}
        with pytest.raises(ProtocolError, match="too large"):
            encode_message(big)

    @pytest.mark.parametrize("frame, reason", [
        ({"kind": "ping"}, "missing"),
        ({"id": 1}, "missing"),
        ({"id": 1, "result": {}}, "missing"),
        ({"ok": True, "result": {}}, "missing"),
        ({"id": 1, "kind": "ping", "deadline": 5}, "undeclared"),
        ({"id": 1, "ok": False, "error": "x", "trace": []}, "undeclared"),
        ({"id": 1, "kind": "render", "params": {}}, "unknown request kind"),
    ])
    def test_rejects_frames_the_schema_does_not_declare(self, frame, reason):
        with pytest.raises(ProtocolError, match=reason):
            encode_message(frame)

    def test_zero_length_frame_rejected(self):
        from repro.serve.protocol import recv_message

        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack(">I", 0))
            with pytest.raises(ProtocolError, match="zero-length"):
                recv_message(b)
        finally:
            a.close()
            b.close()


class TestProtocolLimitsAgainstServer:
    """Framing abuse on the wire hurts only the abusing connection:
    the server answers it with a hang-up and the accept loop keeps
    serving everyone else."""

    def _raw_connection(self, path: str) -> socket.socket:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(10.0)
        sock.connect(path)
        return sock

    def _assert_server_still_serves(self, handle) -> None:
        with ServeClient(handle.socket_path) as client:
            assert client.ping()["protocol"] == PROTOCOL_VERSION == 2

    def test_oversized_frame_closes_only_that_connection(self, serve_dir):
        with start_server(serve_dir) as handle:
            raw = self._raw_connection(handle.socket_path)
            try:
                raw.sendall(struct.pack(">I", MAX_MESSAGE_BYTES + 1))
                assert raw.recv(1) == b""  # per-connection hang-up
            finally:
                raw.close()
            self._assert_server_still_serves(handle)

    def test_zero_length_frame_closes_only_that_connection(self, serve_dir):
        with start_server(serve_dir) as handle:
            raw = self._raw_connection(handle.socket_path)
            try:
                raw.sendall(struct.pack(">I", 0))
                assert raw.recv(1) == b""
            finally:
                raw.close()
            self._assert_server_still_serves(handle)

    def test_unknown_kind_gets_an_error_reply(self, serve_dir):
        """Decoding is unchecked: a frame the schema would refuse to
        send still gets an ``ok: false`` reply, not a hang-up."""
        from repro.serve.protocol import recv_message

        payload = json.dumps({"id": 5, "kind": "render"}).encode()
        with start_server(serve_dir) as handle:
            raw = self._raw_connection(handle.socket_path)
            try:
                raw.sendall(struct.pack(">I", len(payload)) + payload)
                reply = recv_message(raw)
            finally:
                raw.close()
            self._assert_server_still_serves(handle)
        assert reply is not None
        assert reply["id"] == 5 and reply["ok"] is False
        assert "render" in reply["error"]

    def test_unframeable_reply_gets_an_error_reply(self, serve_dir, monkeypatch):
        """A response the protocol refuses to frame (here: over the
        size limit) is answered with ``ok: false`` and the reason
        instead of leaving the client waiting."""
        from repro.serve import protocol

        with start_server(serve_dir, workers=1) as handle:
            monkeypatch.setattr(protocol, "MAX_MESSAGE_BYTES", 400)
            raw = self._raw_connection(handle.socket_path)
            try:
                raw.sendall(encode_message({"id": 7, "kind": "stats"}))
                reply = protocol.recv_message(raw)  # 10 s socket timeout
            finally:
                raw.close()
            monkeypatch.undo()
            with ServeClient(handle.socket_path) as client:
                assert client.stats()["counters"]["errors"] == 1
        assert reply is not None
        assert reply["id"] == 7 and reply["ok"] is False
        assert "too large" in reply["error"]

    def test_partial_frame_disconnect_mid_payload(self, serve_dir):
        with start_server(serve_dir) as handle:
            raw = self._raw_connection(handle.socket_path)
            # Claim 100 payload bytes, deliver a torn prefix, vanish.
            raw.sendall(struct.pack(">I", 100) + b'{"id": 1, "ki')
            raw.close()
            self._assert_server_still_serves(handle)


class TestNormalization:
    def test_defaults_filled(self):
        norm = normalize_request("simulate", {"kernel": KERNEL})
        assert norm["scale"] == 0.125
        assert norm["seed"] == 2014
        assert norm["launch"] == 0
        assert set(norm) == {"kind", "kernel", "scale", "seed", "launch"}

    def test_equivalent_requests_share_a_key(self):
        a = normalize_request("simulate", {"kernel": KERNEL, "scale": 0.125})
        b = normalize_request("simulate", {"kernel": KERNEL, "seed": 2014})
        assert request_key(a) == request_key(b)

    def test_integral_floats_share_the_integer_key(self):
        a = normalize_request(
            "simulate", {"kernel": KERNEL, "seed": 2014.0, "launch": 1.0}
        )
        b = normalize_request(
            "simulate", {"kernel": KERNEL, "seed": 2014, "launch": 1}
        )
        assert a == b
        assert isinstance(a["seed"], int) and isinstance(a["launch"], int)
        assert request_key(a) == request_key(b)

    def test_every_parameter_shapes_the_key(self):
        base = {"kernel": KERNEL}
        variants = [
            {},
            {"scale": 0.25},
            {"seed": 7},
            {"launch": 1},
        ]
        keys = {
            request_key(normalize_request("simulate", {**base, **v}))
            for v in variants
        }
        keys.add(request_key(normalize_request("tbpoint", base)))
        assert len(keys) == len(variants) + 1

    def test_timeout_does_not_shape_the_key(self):
        a = normalize_request("simulate", {"kernel": KERNEL, "timeout": 5})
        b = normalize_request("simulate", {"kernel": KERNEL})
        assert request_key(a) == request_key(b)

    @pytest.mark.parametrize(
        "timeout", [True, "5", None, 0, -1, float("nan"), float("inf")]
    )
    def test_rejects_bad_timeouts(self, timeout):
        with pytest.raises(RequestError, match="timeout"):
            normalize_request("simulate", {"kernel": KERNEL, "timeout": timeout})

    @pytest.mark.parametrize("params", [
        {"kernel": "bogus"},
        {"kernel": KERNEL, "scale": 0},
        {"kernel": KERNEL, "scale": 2},
        {"kernel": KERNEL, "launch": -1},
        # Numbers are type-checked, never coerced.
        {"kernel": KERNEL, "seed": 2.7},
        {"kernel": KERNEL, "launch": 1.9},
        {"kernel": KERNEL, "seed": 2.7, "launch": 1.9},
        {"kernel": KERNEL, "seed": True},
        {"kernel": KERNEL, "launch": False},
        {"kernel": KERNEL, "scale": True},
        {"kernel": KERNEL, "seed": "7"},
        {"kernel": KERNEL, "scale": "0.125"},
        {"kernel": KERNEL, "seed": None},
        {"kernel": KERNEL, "scale": 10**400},
        {"kernel": KERNEL, "seed": float("inf")},
        # Removed parameters are rejected as unknown.
        {"kernel": KERNEL, "engine": "compact"},
        {"kernel": KERNEL, "mem_front_end": "fast"},
        {"kernel": KERNEL, "surprise": 1},
        {},
    ])
    def test_rejects_bad_requests(self, params):
        with pytest.raises(RequestError):
            normalize_request("simulate", params)

    def test_rejects_launch_on_tbpoint(self):
        with pytest.raises(RequestError):
            normalize_request("tbpoint", {"kernel": KERNEL, "launch": 1})

    def test_rejects_unknown_kind(self):
        with pytest.raises(RequestError):
            normalize_request("banana", {"kernel": KERNEL})


class TestBitIdentity:
    def test_served_simulate_equals_direct(self, serve_dir):
        with start_server(serve_dir) as handle:
            with ServeClient(handle.socket_path) as client:
                cold = client.simulate(KERNEL, scale=SCALE)
                warm = client.simulate(KERNEL, scale=SCALE)
        direct = direct_payload(normalize_request("simulate", sim_params()))
        assert payloads_equal(cold, direct)
        assert payloads_equal(warm, direct)
        # Warm repeats are fully identical, regeneration count included.
        assert cold == warm
        # The enlarged resident window means zero re-synthesis even on
        # the repeat pass over the same trace.
        assert warm["block_regenerations"] == 0

    def test_served_tbpoint_equals_direct(self, serve_dir):
        with start_server(serve_dir) as handle:
            with ServeClient(handle.socket_path) as client:
                served = client.tbpoint(KERNEL, scale=SCALE)
                again = client.tbpoint(KERNEL, scale=SCALE)
        direct = direct_payload(normalize_request("tbpoint", sim_params()))
        assert payloads_equal(served, direct)
        assert served == again

    def test_reference_oracles_equal_direct_payload(self):
        # The daemon always runs compact + fast; the engine parity
        # contract is checked here, off the wire, against the oracle
        # engine and memory front end.
        norm = normalize_request("simulate", sim_params(launch=1))
        kernel = get_workload(KERNEL, scale=SCALE, seed=norm["seed"])
        sim = GPUSimulator(
            GPUConfig(), engine="reference", mem_front_end="reference"
        )
        reference = result_payload(sim.run_launch(kernel.launches[1]))
        assert payloads_equal(reference, direct_payload(norm))


class TestWarmState:
    """One worker, so every request lands on the same warm stores; the
    ``JobMeta`` counters report what that worker reused."""

    def test_engine_and_kernel_reuse_counters(self, serve_dir):
        with start_server(serve_dir, workers=1) as handle:
            with ServeClient(handle.socket_path) as client:
                for _ in range(3):
                    client.simulate(KERNEL, scale=SCALE)
                stats = client.stats()
        c = stats["counters"]
        assert c["sims_run"] == 3
        assert c["engine_cold_acquisitions"] == 1
        assert c["engine_warm_acquisitions"] == 2
        assert c["kernels_built"] == 1
        assert c["kernel_warm_hits"] == 2
        assert c["block_regenerations"] == 0
        assert stats["workers"]["jobs_completed"] == 3
        # The queue record is the pool's: one wait per dispatched job.
        queue = stats["queue"]
        assert queue["depth"] == 0 and queue["samples"] == 3
        assert 0 <= queue["p50_ms"] <= queue["p90_ms"] <= queue["max_ms"]

    def test_forked_worker_starts_without_the_parents_simulator(self, serve_dir):
        # The registry the daemon's process holds must not reach a
        # forked worker: its first request still acquires cold.
        import repro.sim.worker as worker

        worker.get_simulator(GPUConfig())
        with start_server(serve_dir, workers=1) as handle:
            with ServeClient(handle.socket_path) as client:
                client.simulate(KERNEL, scale=SCALE)
                stats = client.stats()
        c = stats["counters"]
        assert c["engine_cold_acquisitions"] == 1
        assert c["engine_warm_acquisitions"] == 0

    def test_runner_holds_one_simulator_for_both_kinds(self, tmp_path):
        import repro.sim.worker as worker
        from repro.serve import JobRunner

        worker._SIMS.clear()
        runner = JobRunner(cache_dir=str(tmp_path))
        _, first = runner.run(normalize_request("simulate", sim_params()))
        assert list(worker._SIMS) == [GPUConfig()]
        sim = worker._SIMS[GPUConfig()]
        _, second = runner.run(normalize_request("tbpoint", sim_params()))
        assert (first.engine_warm, second.engine_warm) == (False, True)
        # The tbpoint request ran on the same simulator as the simulate
        # request, and the process holds nothing else.
        assert list(worker._SIMS) == [GPUConfig()]
        assert worker._SIMS[GPUConfig()] is sim

    def test_profile_cache_tiers(self, serve_dir):
        with start_server(serve_dir, workers=1) as handle:
            with ServeClient(handle.socket_path) as client:
                client.tbpoint(KERNEL, scale=SCALE)
                client.tbpoint(KERNEL, scale=SCALE, seed=7)
                # No journal: the repeat recomputes on the same worker,
                # whose memory tier holds the profile.
                client.tbpoint(KERNEL, scale=SCALE)
                stats = client.stats()
        c = stats["counters"]
        assert c["tbpoint_requests"] == 3
        # First estimate computes its profile; a different trace
        # identity computes its own; nothing was on disk yet.
        assert c["profile_computed"] == 2
        assert c["profile_memory_hits"] == 1
        assert c["profile_disk_hits"] == 0
        assert c["kernels_built"] == 2
        assert c["kernel_warm_hits"] == 1


class TestCoalescing:
    def test_pipelined_duplicates_simulate_once(self, serve_dir, monkeypatch):
        import asyncio

        n = 10
        all_arrived = threading.Event()
        original = Server._compute

        async def gated(self, norm, key, fut):
            # The simulation takes milliseconds; on a loaded host it
            # could finish before the last duplicate is read and turn
            # that one into a second run.  Hold the key's owner task
            # until all n arrived.  The gate sits on the event loop: a
            # forked worker would only see a copy of the event.
            await asyncio.to_thread(all_arrived.wait, 30)
            return await original(self, norm, key, fut)

        monkeypatch.setattr(Server, "_compute", gated)
        with start_server(serve_dir) as handle:
            with ServeClient(handle.socket_path) as client:
                try:
                    rids = [
                        client.submit("simulate", sim_params())
                        for _ in range(n)
                    ]
                    deadline = time.monotonic() + 30
                    while (
                        handle.server.counters.simulate_requests < n
                        and time.monotonic() < deadline
                    ):
                        time.sleep(0.001)
                finally:
                    all_arrived.set()
                payloads = [client.drain(rid) for rid in rids]
                stats = client.stats()
        assert all(p == payloads[0] for p in payloads)
        c = stats["counters"]
        assert c["sims_run"] == 1
        assert c["coalesced_hits"] == 9

    def test_distinct_requests_do_not_coalesce(self, serve_dir):
        with start_server(serve_dir) as handle:
            with ServeClient(handle.socket_path) as client:
                a = client.submit("simulate", sim_params())
                b = client.submit("simulate", sim_params(seed=7))
                client.drain(a), client.drain(b)
                stats = client.stats()
        assert stats["counters"]["sims_run"] == 2
        assert stats["counters"]["coalesced_hits"] == 0


class TestConcurrentIdempotency:
    def test_threaded_hammer_exactly_once_per_key(self, serve_dir):
        """Satellite: duplicate + distinct requests from many threads;
        with the journal on, each content key simulates exactly once,
        every response for a key is bit-identical, and the drain is
        clean with clients still connected."""
        distinct = [sim_params(), sim_params(seed=7), sim_params(launch=1)]
        threads_per_request = 4
        repeats = 3
        results: dict[int, list[dict]] = {i: [] for i in range(len(distinct))}
        errors: list[Exception] = []
        lock = threading.Lock()

        with start_server(serve_dir, journal=True) as handle:

            def hammer(idx: int) -> None:
                try:
                    with ServeClient(handle.socket_path) as client:
                        got = [
                            client.call("simulate", distinct[idx])
                            for _ in range(repeats)
                        ]
                    with lock:
                        results[idx].extend(got)
                except Exception as exc:  # surfaced after the join
                    with lock:
                        errors.append(exc)

            workers = [
                threading.Thread(target=hammer, args=(i,))
                for i in range(len(distinct))
                for _ in range(threads_per_request)
            ]
            for t in workers:
                t.start()
            for t in workers:
                t.join(120)
            with ServeClient(handle.socket_path) as client:
                stats = client.stats()

        assert not errors, errors
        c = stats["counters"]
        # Exactly one simulation per content key; every other answer
        # came from coalescing or the journal.
        assert c["sims_run"] == len(distinct)
        answered = len(distinct) * threads_per_request * repeats
        assert c["coalesced_hits"] + c["journal_hits"] == answered - c["sims_run"]
        for idx, payloads in results.items():
            assert len(payloads) == threads_per_request * repeats
            assert all(p == payloads[0] for p in payloads)
            direct = direct_payload(
                normalize_request("simulate", distinct[idx])
            )
            assert payloads_equal(payloads[0], direct)


class TestJournalReplay:
    def test_results_survive_a_restart(self, serve_dir):
        with start_server(serve_dir, journal=True) as handle:
            with ServeClient(handle.socket_path) as client:
                first = client.simulate(KERNEL, scale=SCALE)
        with start_server(serve_dir, journal=True) as handle:
            with ServeClient(handle.socket_path) as client:
                replayed = client.simulate(KERNEL, scale=SCALE)
                stats = client.stats()
        assert replayed == first
        assert stats["counters"]["journal_hits"] == 1
        assert stats["counters"]["sims_run"] == 0

    def test_no_journal_means_recompute(self, serve_dir):
        with start_server(serve_dir) as handle:
            with ServeClient(handle.socket_path) as client:
                client.simulate(KERNEL, scale=SCALE)
                client.simulate(KERNEL, scale=SCALE)
                stats = client.stats()
        assert stats["counters"]["sims_run"] == 2
        assert stats["counters"]["journal_hits"] == 0


class TestLifecycle:
    def test_drain_answers_accepted_requests(self, serve_dir):
        """Shutdown mid-queue: everything already accepted is answered
        before the socket goes away."""
        with start_server(serve_dir, workers=1) as handle:
            client = ServeClient(handle.socket_path)
            rids = [
                client.submit("simulate", sim_params(seed=seed))
                for seed in (1, 2, 3)
            ]
            with ServeClient(handle.socket_path) as other:
                other.shutdown()
            payloads = [client.drain(rid) for rid in rids]
            client.close()
        for seed, payload in zip((1, 2, 3), payloads):
            direct = direct_payload(
                normalize_request("simulate", sim_params(seed=seed))
            )
            assert payloads_equal(payload, direct)
        # The unix socket is gone after the drain.
        assert not (serve_dir / "serve.sock").exists()

    def test_requests_after_shutdown_are_rejected(self, serve_dir):
        metrics = serve_dir / "metrics.json"
        with start_server(
            serve_dir, workers=1, metrics_json=str(metrics)
        ) as handle:
            client = ServeClient(handle.socket_path)
            # Queue enough work that the drain is still in progress
            # when the post-shutdown request arrives.
            rids = [
                client.submit("simulate", sim_params(seed=seed))
                for seed in (1, 2, 3)
            ]
            client.shutdown()
            with pytest.raises(ServeError, match="draining"):
                client.simulate(KERNEL, scale=SCALE, seed=99)
            for rid in rids:
                client.drain(rid)  # accepted work still answered
            client.close()
        counters = json.loads(metrics.read_text())["counters"]
        assert counters["draining_rejections"] == 1
        assert counters["simulate_requests"] == 4

    def test_deadline_miss_rejects_the_wait_not_the_work(self, serve_dir):
        with start_server(serve_dir, journal=True, workers=1) as handle:
            with ServeClient(handle.socket_path) as client:
                # Occupy the only slot, then ask for the impossible.
                first = client.submit("simulate", sim_params())
                with pytest.raises(ServeError, match="deadline"):
                    client.call(
                        "simulate", sim_params(seed=9, timeout=1e-4)
                    )
                client.drain(first)
                # The timed-out simulation still ran to completion and
                # journaled; asking again returns it.
                payload = client.simulate(KERNEL, scale=SCALE, seed=9)
                stats = client.stats()
        assert stats["counters"]["deadline_misses"] == 1
        direct = direct_payload(
            normalize_request("simulate", sim_params(seed=9))
        )
        assert payloads_equal(payload, direct)

    def test_metrics_json_written_on_shutdown(self, serve_dir):
        import json

        metrics = serve_dir / "metrics.json"
        with start_server(serve_dir, metrics_json=str(metrics)) as handle:
            with ServeClient(handle.socket_path) as client:
                client.simulate(KERNEL, scale=SCALE)
                client.shutdown()
        handle.stop()
        payload = json.loads(metrics.read_text())
        assert payload["counters"]["sims_run"] == 1
        assert payload["counters"]["requests_total"] >= 2

    def test_stats_payload_exports_every_counter_field(self, serve_dir):
        """Every declared counter reaches ``stats``/``--metrics-json``:
        ``ServeCounters`` whole, ``SupervisorCounters`` field by field
        (``snapshot()`` lists those by hand)."""
        from dataclasses import fields

        from repro.serve.server import ServeCounters
        from repro.exec.pool import SupervisorCounters

        with start_server(serve_dir, workers=1) as handle:
            with ServeClient(handle.socket_path) as client:
                stats = client.stats()
        assert set(stats["counters"]) == {f.name for f in fields(ServeCounters)}
        missing = {f.name for f in fields(SupervisorCounters)} - set(
            stats["workers"]
        )
        assert not missing, missing

    def test_tcp_transport(self, serve_dir):
        config_overrides = {"host": "127.0.0.1", "port": 0}
        with start_tcp_server(serve_dir, **config_overrides) as handle:
            host, port = handle.address
            wait_for_server(host=host, port=port)
            with ServeClient(host=host, port=port) as client:
                assert client.ping()["protocol"] == PROTOCOL_VERSION
                payload = client.simulate(KERNEL, scale=SCALE)
        direct = direct_payload(normalize_request("simulate", sim_params()))
        assert payloads_equal(payload, direct)

    def test_malformed_request_keeps_server_alive(self, serve_dir):
        with start_server(serve_dir) as handle:
            with ServeClient(handle.socket_path) as client:
                with pytest.raises(ServeError, match="unknown"):
                    client.call("simulate", {"kernel": "bogus"})
                pings = client.stats()["counters"]["ping_requests"]
                assert client.ping()["protocol"] == PROTOCOL_VERSION
                c = client.stats()["counters"]
        assert c["ping_requests"] == pings + 1
        assert c["stats_requests"] == 2  # the reply counts its own request
        assert c["simulate_requests"] == 1 and c["errors"] == 1

    def test_garbage_frame_drops_connection_not_server(self, serve_dir):
        with start_server(serve_dir) as handle:
            raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            raw.connect(handle.socket_path)
            raw.sendall(b"\xff\xff\xff\xff garbage")
            raw.close()
            with ServeClient(handle.socket_path) as client:
                assert client.ping()["protocol"] == PROTOCOL_VERSION


def start_tcp_server(tmp_path, **overrides) -> ServerThread:
    config = ServeConfig(cache_dir=str(tmp_path / "cache"), **overrides)
    return ServerThread.start(config)


class TestEventLoopHygiene:
    """Regression tests for the ASYNC001 fixes (lint PR): the fsync'd
    journal write and the metrics flush are real disk work and must run
    on executor threads, never on the ``repro-serve-loop`` thread."""

    def test_journal_record_runs_off_loop_thread(self, serve_dir, monkeypatch):
        from repro.exec.journal import SweepJournal

        seen: list[str] = []
        original = SweepJournal.record

        def spy(self, key, payload):
            seen.append(threading.current_thread().name)
            return original(self, key, payload)

        monkeypatch.setattr(SweepJournal, "record", spy)
        with start_server(serve_dir, journal=True) as handle:
            with ServeClient(handle.socket_path) as client:
                client.simulate(KERNEL, scale=SCALE)
                client.shutdown()
        handle.stop()
        assert seen, "journal.record was never reached"
        assert all(name != "repro-serve-loop" for name in seen), seen

    def test_metrics_flush_runs_off_loop_thread(self, serve_dir, monkeypatch):
        import json

        from repro.serve.server import Server

        seen: list[str] = []
        original = Server._write_metrics

        def spy(self):
            seen.append(threading.current_thread().name)
            return original(self)

        monkeypatch.setattr(Server, "_write_metrics", spy)
        metrics = serve_dir / "metrics.json"
        with start_server(serve_dir, metrics_json=str(metrics)) as handle:
            with ServeClient(handle.socket_path) as client:
                client.simulate(KERNEL, scale=SCALE)
                client.shutdown()
        handle.stop()
        assert seen, "_write_metrics was never reached"
        assert all(name != "repro-serve-loop" for name in seen), seen
        # The flush still lands: same payload the operator reads.
        assert json.loads(metrics.read_text())["counters"]["sims_run"] == 1
