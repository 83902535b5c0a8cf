"""Warm-state simulation service: cold process vs warm daemon.

Measures what ``repro serve`` exists for and records it to
``BENCH_serve.json`` at the repo root (DESIGN.md §13):

* **cold per-process invocation** — ``python -m repro simulate`` in a
  fresh subprocess: interpreter start, imports, workload synthesis and
  a cold-cache simulation, paid on *every* call;
* **warm first request** — the same simulation on the daemon's warm
  engine and resident (full-window) trace: the process overhead and
  block synthesis are gone, only the simulation remains;
* **warm repeated request** — the same content key again on a
  journal-enabled daemon: replayed idempotently from the serve journal
  (the PR 4 keying), which is where repeated-request latency collapses.
  The acceptance gate (≥5x vs cold process) is on this path;
  re-simulation latency is reported alongside, honestly — for
  paper-scale launches the simulation itself dominates, so warm
  re-simulation alone buys the process+synthesis overhead, not 5x;
  these three run on one worker, so every request meets the same warm
  stores;
* **sustained throughput** — ≥4 concurrent client threads driving
  distinct warm requests against supervised pools of 1, 2 and 4 worker
  processes (``--workers``, DESIGN.md §14); requests/sec plus the
  sims-run counter so coalescing can't inflate the number.  No
  speedup is gated: a pool wider than the host's cores has nothing to
  scale onto.

Every served payload in this bench is asserted bit-identical to a
fresh direct run (:func:`repro.serve.direct_payload`) before any
latency number is reported.

Environment knobs: ``REPRO_BENCH_SERVE_KERNELS`` (default
``hotspot,lbm`` — both >256-block launches at the default scale),
``REPRO_BENCH_SCALE`` (default 0.125), ``REPRO_BENCH_SERVE_REPEATS``
(default 5), ``REPRO_BENCH_SERVE_CLIENTS`` (default 4).
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.analysis.report import render_table
from repro.serve import (
    ServeClient,
    ServeConfig,
    ServerThread,
    direct_payload,
    normalize_request,
    payloads_equal,
    wait_for_server,
)
from repro.workloads import get_workload

from conftest import emit

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_serve.json"
#: Top-level keys of the record, in order (checked against the
#: checked-in file by ``tests/test_bench_records.py``).
RECORD_KEYS = ("scale", "repeats", "cpus", "kernels", "workers_throughput")

KERNELS = tuple(
    k.strip()
    for k in os.environ.get("REPRO_BENCH_SERVE_KERNELS", "hotspot,lbm").split(",")
    if k.strip()
)
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.125"))
REPEATS = int(os.environ.get("REPRO_BENCH_SERVE_REPEATS", "5"))
CLIENTS = int(os.environ.get("REPRO_BENCH_SERVE_CLIENTS", "4"))
THROUGHPUT_KERNEL = os.environ.get("REPRO_BENCH_SERVE_TP_KERNEL", "stream")


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def _cold_process_seconds(kernel: str, scale: float, tmp_path: Path) -> float:
    """One full ``python -m repro simulate`` subprocess: the per-call
    price a scripted sweep pays without the daemon."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)
    env["TBPOINT_CACHE_DIR"] = str(tmp_path / "cold-cache")
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "repro", "--scale", str(scale),
         "simulate", kernel],
        check=True, capture_output=True, cwd=REPO_ROOT, env=env,
    )
    return time.perf_counter() - t0


def _start(tmp_path: Path, name: str, **overrides) -> ServerThread:
    config = ServeConfig(
        socket_path=str(tmp_path / f"{name}.sock"),
        cache_dir=str(tmp_path / f"{name}-cache"),
        **overrides,
    )
    handle = ServerThread.start(config)
    wait_for_server(handle.socket_path)
    return handle


def _bench_kernel(kernel: str, scale: float, tmp_path: Path) -> dict:
    params = {"kernel": kernel, "scale": scale}
    norm = normalize_request("simulate", params)
    trace = get_workload(kernel, scale=scale, seed=2014)
    blocks = trace.launches[0].num_blocks

    cold_s = _cold_process_seconds(kernel, scale, tmp_path)

    # Journal-enabled daemon: first request simulates (warm engine,
    # resident trace), repeats replay from the journal.
    with _start(tmp_path, f"{kernel}-journal", journal=True, workers=1) as handle:
        with ServeClient(handle.socket_path) as client:
            first, first_s = _timed(lambda: client.call("simulate", params))
            repeat_samples = []
            for _ in range(REPEATS):
                payload, s = _timed(lambda: client.call("simulate", params))
                assert payload == first
                repeat_samples.append(s)
            stats = client.stats()
    assert stats["counters"]["sims_run"] == 1
    assert stats["counters"]["journal_hits"] == REPEATS

    # No-journal daemon: repeats genuinely re-simulate on warm state.
    with _start(tmp_path, f"{kernel}-resim", workers=1) as handle:
        with ServeClient(handle.socket_path) as client:
            warm0 = client.call("simulate", params)
            resim_samples = []
            for _ in range(max(2, REPEATS // 2)):
                payload, s = _timed(lambda: client.call("simulate", params))
                assert payload == warm0
                resim_samples.append(s)
            resim_stats = client.stats()
    assert resim_stats["counters"]["journal_hits"] == 0
    assert resim_stats["counters"]["block_regenerations"] == 0

    # The oracle: a fresh direct run must match every served payload.
    direct, direct_s = _timed(lambda: direct_payload(norm))
    assert payloads_equal(first, direct)
    assert payloads_equal(warm0, direct)

    repeat_s = statistics.median(repeat_samples)
    resim_s = statistics.median(resim_samples)
    return {
        "kernel": kernel,
        "scale": scale,
        "launch_blocks": blocks,
        "cold_process_seconds": round(cold_s, 4),
        "warm_first_seconds": round(first_s, 4),
        "warm_resim_seconds": round(resim_s, 4),
        "warm_repeat_seconds": round(repeat_s, 6),
        "repeat_speedup_vs_cold": round(cold_s / repeat_s, 1),
        "resim_speedup_vs_cold": round(cold_s / resim_s, 2),
        "direct_oracle_seconds": round(direct_s, 4),
        "bit_identical_to_direct": True,
    }


def _drive_concurrent(handle: ServerThread) -> tuple[float, dict]:
    """CLIENTS concurrent threads, each driving its own seed stream of
    warm re-simulations (distinct content keys across clients, so
    coalescing and the journal cannot answer for the simulator).
    Returns (elapsed seconds, final stats payload)."""
    per_client = max(3, REPEATS)
    errors: list[Exception] = []
    # Pre-warm: one request per client seed builds trace + engine.
    with ServeClient(handle.socket_path) as client:
        for i in range(CLIENTS):
            client.call("simulate", {
                "kernel": THROUGHPUT_KERNEL, "scale": SCALE,
                "seed": 100 + i,
            })

    def drive(idx: int) -> None:
        try:
            with ServeClient(handle.socket_path) as client:
                for _ in range(per_client):
                    client.call("simulate", {
                        "kernel": THROUGHPUT_KERNEL, "scale": SCALE,
                        "seed": 100 + idx,
                    })
        except Exception as exc:
            errors.append(exc)

    threads = [
        threading.Thread(target=drive, args=(i,)) for i in range(CLIENTS)
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - t0
    with ServeClient(handle.socket_path) as client:
        stats = client.stats()
    assert not errors, errors
    return elapsed, stats


def _bench_worker_throughput(tmp_path: Path) -> list[dict]:
    """The concurrent drive against supervised worker pools of 1, 2
    and 4 processes: workers scale with cores — reported honestly,
    including on hosts where there are no extra cores to scale onto."""
    per_client = max(3, REPEATS)
    total = CLIENTS * per_client
    rows = []
    for workers in (1, 2, 4):
        with _start(
            tmp_path,
            f"workers{workers}",
            workers=workers,
            max_backlog=4 * CLIENTS,
        ) as handle:
            elapsed, stats = _drive_concurrent(handle)
        c = stats["counters"]
        w = stats["workers"]
        assert c["sims_run"] >= total
        assert not w["degraded"]
        assert w["crashes"] == 0 and w["hangs"] == 0
        rows.append({
            "kernel": THROUGHPUT_KERNEL,
            "scale": SCALE,
            "workers": workers,
            "clients": CLIENTS,
            "requests": total,
            "elapsed_seconds": round(elapsed, 4),
            "requests_per_second": round(total / elapsed, 2),
            "sims_run": c["sims_run"],
            "coalesced_hits": c["coalesced_hits"],
            "shed_requests": c["shed_requests"],
            "queue_p90_ms": round(stats["queue"].get("p90_ms", 0.0), 3),
            "avg_job_ms": w.get("avg_job_ms", 0.0),
        })
    return rows


def test_serve_warm_vs_cold(tmp_path):
    kernels = [_bench_kernel(k, SCALE, tmp_path) for k in KERNELS]
    workers_throughput = _bench_worker_throughput(tmp_path)
    record = {
        "scale": SCALE,
        "repeats": REPEATS,
        "cpus": os.cpu_count(),
        "kernels": kernels,
        "workers_throughput": workers_throughput,
    }
    assert tuple(record) == RECORD_KEYS
    OUTPUT.write_text(json.dumps(record, indent=2) + "\n")
    emit(render_table(
        ["kernel", "blocks", "cold proc (s)", "warm 1st (s)",
         "warm resim (s)", "warm repeat (s)", "repeat speedup"],
        [
            (r["kernel"], str(r["launch_blocks"]),
             f"{r['cold_process_seconds']:.2f}",
             f"{r['warm_first_seconds']:.2f}",
             f"{r['warm_resim_seconds']:.2f}",
             f"{r['warm_repeat_seconds']:.4f}",
             f"{r['repeat_speedup_vs_cold']:.0f}x")
            for r in kernels
        ],
        title=f"repro serve: warm vs cold (scale {SCALE:g})",
    ))
    emit(render_table(
        ["workers", "req/s", "elapsed (s)", "shed", "queue p90 (ms)"],
        [
            (str(r["workers"]),
             f"{r['requests_per_second']:.2f}",
             f"{r['elapsed_seconds']:.2f}",
             str(r["shed_requests"]),
             f"{r['queue_p90_ms']:.1f}")
            for r in workers_throughput
        ],
        title=f"Sustained throughput ({CLIENTS} concurrent clients, "
              f"{THROUGHPUT_KERNEL})",
    ))

    # Acceptance gates -------------------------------------------------
    assert len(kernels) >= 2
    assert any(r["launch_blocks"] > 256 for r in kernels)
    for r in kernels:
        assert r["bit_identical_to_direct"]
        assert r["repeat_speedup_vs_cold"] >= 5.0, r
        # Warm re-simulation must at least beat the cold process —
        # the overhead it removes is real even when the sim dominates.
        assert r["warm_resim_seconds"] < r["cold_process_seconds"], r
    # Worker pools must answer everything correctly; no speedup gate —
    # on a single-core host the honest numbers show no scaling.
    for r in workers_throughput:
        assert r["requests_per_second"] > 0
        assert r["sims_run"] >= r["requests"]


def test_serve_smoke(tmp_path):
    """CI-sized serve check: one cheap kernel, daemon vs direct process,
    bit-identity plus a tolerant warm-vs-cold gate (the full bench
    enforces the 5x headline on paper-scale kernels)."""
    kernel, scale = "stream", 0.02
    params = {"kernel": kernel, "scale": scale}
    cold_s = _cold_process_seconds(kernel, scale, tmp_path)
    with _start(tmp_path, "smoke", journal=True) as handle:
        with ServeClient(handle.socket_path) as client:
            first = client.call("simulate", params)
            repeat, repeat_s = _timed(lambda: client.call("simulate", params))
    assert repeat == first
    direct = direct_payload(normalize_request("simulate", params))
    assert payloads_equal(first, direct)
    assert cold_s / repeat_s >= 2.0, (cold_s, repeat_s)
