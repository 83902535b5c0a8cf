"""serve-mix: a ``repro serve --journal`` daemon in a subprocess, driven
by one generator process with two closed-loop client connections.

A round spawns a fresh daemon (fresh cache root and socket), then runs:

* the TBPoint phase: both clients ask for every ``tbpoint`` key at once,
  so one computes and the other coalesces onto it;
* the compute phase: ``simulate`` for every launch, split between the
  clients, with a fixed share of keys requested by both at once;
* replay passes: both clients ask for every key again, which the daemon
  answers from its journal without simulating.

The daemon always runs on its default flags apart from ``--journal``
and the per-round socket and cache paths.
"""

from __future__ import annotations

import math
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.core.estimates import sampling_error
from repro.serve import (
    ServeClient,
    ServeError,
    direct_payload,
    normalize_request,
    payloads_equal,
    request_key,
)
from repro.serve.jobs import percentile
from repro.workloads import get_workload

from hostspeed import Clock
from library import BASE_GPU, SCALE, summary_metrics, task_key

#: Share of compute keys that both clients request at the same moment.
SHARED_SHARE = 0.2
#: Replay requests per round (whole passes), so that more than ten
#: samples lie beyond the 99th percentile.
MIN_REPLAYS = 1200
#: Rounds per untraced run at least; ``setup_s`` is their median.
MIN_ROUNDS = 3
#: Served payloads re-computed from scratch for the check.
PAYLOAD_SAMPLE = 3
KEY_CALLS = 4000
PING_INTERVAL = 0.002
START_TIMEOUT = 60.0
PHASE_TIMEOUT = 150.0


@dataclass(frozen=True)
class Request:
    kind: str
    params: dict
    key: str


def make_request(kind: str, **params) -> Request:
    return Request(kind, params, request_key(normalize_request(kind, params)))


def session_requests(tbpoint_kernels, simulate_kernel, kernel_seed):
    """(tbpoint requests, simulate requests) of one session."""
    base = {"scale": SCALE, "seed": kernel_seed}
    tbpoint = [make_request("tbpoint", kernel=k, **base) for k in tbpoint_kernels]
    simulate = []
    if simulate_kernel is not None:
        launches = get_workload(simulate_kernel, scale=SCALE, seed=kernel_seed).num_launches
        simulate = [
            make_request("simulate", kernel=simulate_kernel, launch=i, **base)
            for i in range(launches)
        ]
    return tbpoint, simulate


def aligned_steps(requests, rng) -> list[list[tuple]]:
    """Two clients' request lists, aligned at the shared keys: a shared
    step has both clients send the same key after a barrier; the other
    keys are split between them."""
    requests = list(requests)
    rng.shuffle(requests)
    n_shared = round(len(requests) * SHARED_SHARE)
    shared, rest = requests[:n_shared], requests[n_shared:]
    own = (rest[0::2], rest[1::2])
    steps = [("shared", r) for r in shared]
    steps += [("own", i) for i in range(len(own[0]))]
    rng.shuffle(steps)
    lists: list[list[tuple]] = [[], []]
    for kind, item in steps:
        for client in (0, 1):
            if kind == "shared":
                lists[client].append((item, True))
            elif item < len(own[client]):
                lists[client].append((own[client][item], False))
    return lists


def replay_steps(requests, rng) -> list[list[tuple]]:
    passes = math.ceil(MIN_REPLAYS / (2 * len(requests)))
    lists: list[list[tuple]] = [[], []]
    for client in (0, 1):
        for _ in range(passes):
            order = list(requests)
            rng.shuffle(order)
            lists[client] += [(r, False) for r in order]
    return lists


class Daemon:
    """One ``repro serve`` subprocess with its own cache root and socket
    (paths relative to the repository root keep the socket path short)."""

    def __init__(self, root: Path, workdir: Path):
        self.root = root
        self.socket = str(workdir / "serve.sock")
        self.cache_dir = str(workdir / "cache")
        self.log_path = root / workdir / "daemon.log"
        self.proc: subprocess.Popen | None = None

    def start(self) -> float:
        """Spawn the daemon; seconds until it answers ``ping``."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        env["TBPOINT_CACHE_DIR"] = self.cache_dir
        cmd = [sys.executable, "-m", "repro", "--cache-dir", self.cache_dir,
               "serve", "--socket", self.socket, "--journal"]
        t0 = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                cmd, cwd=self.root, env=env, stdout=log, stderr=subprocess.STDOUT
            )
        while True:
            try:
                with ServeClient(self.socket, retry_connect=False) as client:
                    client.ping()
                return time.perf_counter() - t0
            except (ServeError, OSError):
                pass
            if self.proc.poll() is not None:
                raise RuntimeError(
                    "daemon exited early: " + self.log_path.read_text()[-2000:]
                )
            if time.perf_counter() - t0 > START_TIMEOUT:
                raise RuntimeError("daemon did not answer ping in time")
            time.sleep(PING_INTERVAL)

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """Drain the daemon; kill it if it does not exit."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            try:
                with ServeClient(self.socket, retry_connect=False,
                                 connect_timeout=5.0) as client:
                    client.shutdown()
            except (ServeError, OSError):
                pass
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def run_phase(socket_path: str, lists: list[list[tuple]]) -> list:
    """Run the clients' request lists concurrently, each in a closed
    loop; returns [(request, seconds, payload or ServeError)]."""
    barrier = threading.Barrier(len(lists))
    logs: list[list] = [[] for _ in lists]
    errors: list[BaseException] = []

    def client_loop(index: int) -> None:
        try:
            with ServeClient(socket_path, retry_connect=False) as client:
                for request, shared in lists[index]:
                    if shared:
                        barrier.wait(PHASE_TIMEOUT)
                    t0 = time.perf_counter()
                    try:
                        answer = client.call(request.kind, request.params)
                    except ServeError as exc:
                        answer = exc
                    logs[index].append((request, time.perf_counter() - t0, answer))
        except Exception as exc:  # the phase fails; the caller reports it
            errors.append(exc)
            barrier.abort()

    threads = [
        threading.Thread(target=client_loop, args=(i,), daemon=True)
        for i in range(len(lists))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(PHASE_TIMEOUT)
    if errors or any(thread.is_alive() for thread in threads):
        raise RuntimeError(f"a client failed: {errors!r}")
    return [entry for log in logs for entry in log]


@dataclass
class Round:
    #: Times in reference-host seconds (``hostspeed``).
    setup_s: float
    tbpoint_s: float
    full_s: float
    #: Requests answered, and the seconds of all phases together.
    ops: int
    wall_s: float
    peak_rss_mb: float
    #: Latencies of the TBPoint and compute phases' requests.
    compute_s: list[float]
    replay_s: list[float]
    stats: dict
    payloads: dict


def serve_round(root, scratch, tbpoint, simulate, seed, outcome, clock,
                payload_sample=PAYLOAD_SAMPLE) -> Round:
    rng = random.Random(seed)
    tbpoint_lists = [[(r, True) for r in tbpoint] for _ in (0, 1)]
    for order in tbpoint_lists:
        random.Random(seed).shuffle(order)  # same order on both clients
    compute_lists = aligned_steps(simulate, rng)
    everything = tbpoint + simulate
    replay_lists = replay_steps(everything, rng)

    daemon = Daemon(root, scratch.new_dir())
    try:
        ping_s, _, _ = clock.call(daemon.start)
        setup_s = ping_s * clock.speed
        walls, logs = [], {}
        for phase, lists in (("tbpoint", tbpoint_lists), ("compute", compute_lists),
                             ("replay", replay_lists)):
            if not any(lists):
                walls.append(0.0)
                logs[phase] = []
                continue
            log, _, seconds = clock.call(run_phase, daemon.socket, lists)
            walls.append(seconds)
            logs[phase] = log
        with ServeClient(daemon.socket, retry_connect=False) as client:
            stats = client.stats()
        peak_rss_mb = daemon.peak_rss_mb()
    finally:
        daemon.stop()

    # -- output checks (outside the timed region) ----------------------
    payloads: dict = {}
    for phase in ("tbpoint", "compute", "replay"):
        for request, _, answer in logs[phase]:
            outcome.attempted += 1
            if isinstance(answer, ServeError):
                outcome.fail(f"{request.kind} {request.params}: {answer}")
                continue
            first = payloads.setdefault(request.key, (request, answer))[1]
            outcome.check(answer == first,
                          f"{request.kind} {request.params}: answers disagree")
    counters = stats["counters"]
    outcome.check(
        counters["sims_run"] + counters["tbpoint_runs"] == len(everything),
        f"daemon ran {counters['sims_run'] + counters['tbpoint_runs']} "
        f"computations for {len(everything)} distinct keys",
    )
    outcome.check(counters["errors"] == 0,
                  f"daemon counted {counters['errors']} errors")
    for request in random.Random(seed).sample(
        everything, min(payload_sample, len(everything))
    ):
        if request.key in payloads:
            served = payloads[request.key][1]
            direct = direct_payload(normalize_request(request.kind, request.params))
            outcome.check(payloads_equal(served, direct),
                          f"{request.kind} {request.params}: served payload "
                          "differs from a direct run")

    n_ops = sum(len(log) for log in logs.values())
    return Round(
        setup_s=setup_s,
        tbpoint_s=walls[0],
        full_s=walls[1],
        ops=n_ops,
        wall_s=sum(walls),
        peak_rss_mb=peak_rss_mb,
        compute_s=[s for phase in ("tbpoint", "compute") for _, s, _ in logs[phase]],
        replay_s=[s for _, s, _ in logs["replay"]],
        stats=stats,
        payloads={key: answer for key, (_, answer) in payloads.items()},
    )


def served_values(tbpoint, simulate, payloads) -> dict:
    """Deterministic outputs of a session, keyed like the library's."""
    values = {}
    for request in tbpoint:
        answer = payloads[request.key]
        values[task_key(request.params["kernel"], BASE_GPU)] = {
            "tbpoint_ipc": answer["overall_ipc"],
            "sample_size": answer["sample_size"],
        }
    if simulate:
        kernel = simulate[0].params["kernel"]
        answers = [payloads[r.key] for r in simulate]
        insts = sum(a["issued_warp_insts"] for a in answers)
        cycles = sum(a["wall_cycles"] for a in answers)
        entry = values.setdefault(task_key(kernel, BASE_GPU), {})
        entry["full_ipc"] = insts / max(1, cycles)
        if "tbpoint_ipc" in entry:
            entry["error"] = sampling_error(entry["tbpoint_ipc"], entry["full_ipc"])
    return values


def measure(root, seed, seconds, kernel_seed, scratch, outcome):
    """The untraced serve-mix run: (end-to-end metrics, values)."""
    tbpoint, simulate = session_requests(("stream",), "stream", kernel_seed)
    clock = Clock()
    rounds, last = [], 0.0
    t_start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or (
        time.perf_counter() - t_start + last <= seconds
    ):
        # Each round lays out its own schedule, so a run averages over
        # several layouts of the seed's request stream.  Rounds serve
        # identical payloads (checked below), so only the first one is
        # also checked against direct runs.
        t_round = time.perf_counter()
        rounds.append(serve_round(
            root, scratch, tbpoint, simulate, f"{seed}:{len(rounds)}", outcome,
            clock, payload_sample=0 if rounds else PAYLOAD_SAMPLE,
        ))
        last = time.perf_counter() - t_round
    values = served_values(tbpoint, simulate, rounds[0].payloads)
    for later in rounds[1:]:
        outcome.check(served_values(tbpoint, simulate, later.payloads) == values,
                      "a repeated round served different results")
    print(f"summary: served time reduction, compute phase / TBPoint phase = "
          f"{sum(r.full_s for r in rounds) / sum(r.tbpoint_s for r in rounds):.2f}x"
          " (not gated; the TBPoint phase includes the daemon's profiling)",
          flush=True)
    # Phase times (reference-host seconds) are averaged over the rounds,
    # not their median: the host's speed drifts over seconds, and each
    # phase lasts about one second, so only the run-long total averages
    # that drift out.
    metrics = {
        "setup_s": statistics.median(r.setup_s for r in rounds),
        "tbpoint_s": statistics.fmean(r.tbpoint_s for r in rounds),
        "full_s": statistics.fmean(r.full_s for r in rounds),
        "ops_per_s": sum(r.ops for r in rounds) / sum(r.wall_s for r in rounds),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in rounds),
        **summary_metrics(values),
    }
    return metrics, values


def trace_session(root, seed, kernel_seed, scratch, outcome,
                  tbpoint_kernels, simulate_kernel) -> dict:
    """The traced run's serve part: one round of the workload's own
    requests, with the serve layer's counters and its key derivation."""
    tbpoint, simulate = session_requests(tbpoint_kernels, simulate_kernel, kernel_seed)
    everything = tbpoint + simulate
    calls = 0
    t0 = time.perf_counter()
    while calls < KEY_CALLS:
        for request in everything:
            request_key(normalize_request(request.kind, request.params))
        calls += len(everything)
    key_us = (time.perf_counter() - t0) / calls * 1e6

    served = serve_round(root, scratch, tbpoint, simulate, seed, outcome, Clock())
    counters, queue = served.stats["counters"], served.stats["queue"]
    computations = counters["sims_run"] + counters["tbpoint_runs"]
    replays = sorted(served.replay_s)
    compute = sorted(served.compute_s)
    return {
        "serve.compute_ms_p50": percentile(compute, 0.50) * 1e3,
        "serve.compute_ms_p90": percentile(compute, 0.90) * 1e3,
        "serve.key_us": key_us,
        "serve.sims_run": computations,
        "serve.journal_hits": counters["journal_hits"],
        "serve.coalesced_hits": counters["coalesced_hits"],
        "serve.queue_wait_ms_p50": queue["p50_ms"],
        "serve.queue_wait_ms_p90": queue["p90_ms"],
        "serve.sims_per_key": computations / len(everything),
        "serve.replay_ms_p50": percentile(replays, 0.50) * 1e3,
        "serve.replay_ms_p99": percentile(replays, 0.99) * 1e3,
    }
