"""Batch-execution engine: serial vs parallel, cold vs warm cache.

Measures the two speedups the execution layer exists for and records
them to ``BENCH_exec.json`` at the repo root:

* fanning representative-launch simulations across worker processes
  (``jobs=N`` vs ``jobs=1``) — must be bit-identical, and ≥2x faster on
  a machine with ≥4 CPUs;
* reusing the persistent profile cache (warm vs cold) — the second run
  of any experiment performs zero ``profile_kernel`` calls.

Environment knobs: ``REPRO_BENCH_JOBS`` (default 4) and
``REPRO_BENCH_EXEC_KERNEL`` (default ``mst`` — many launches, several
clusters, so the launch fan-out has real work to spread).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.analysis.report import render_table
from repro.core.pipeline import run_tbpoint
from repro.exec import ExecutionConfig, ProfileCache
from repro.workloads import get_workload

from conftest import emit

KERNEL = os.environ.get("REPRO_BENCH_EXEC_KERNEL", "mst")
JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "4"))
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.125"))
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_exec.json"
#: Top-level keys of the record, in order (checked against the
#: checked-in file by ``tests/test_bench_records.py``).
RECORD_KEYS = (
    "kernel", "scale", "jobs", "cpus", "representative_launches",
    "serial_seconds", "parallel_seconds", "parallel_speedup",
    "exec_path", "exec_workers", "exec_reason",
    "profile_cold_seconds", "profile_warm_seconds", "cache_speedup",
    "identical_estimates",
)


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def test_parallel_speedup_and_cache_reuse(tmp_path):
    kernel = get_workload(KERNEL, scale=SCALE, seed=2014)
    cache_dir = str(tmp_path / "cache")

    # --- profile cache: cold (computes + stores) vs warm (loads) -------
    cache = ProfileCache(cache_dir)
    profile, cold_s = _timed(lambda: cache.profile(kernel))
    _, warm_s = _timed(lambda: cache.profile(kernel))
    assert cache.session_misses == 1 and cache.session_hits == 1

    # --- launch fan-out: serial vs parallel, bit-identical -------------
    serial, serial_s = _timed(lambda: run_tbpoint(
        kernel, profile=profile,
        exec_config=ExecutionConfig(jobs=1, use_cache=False),
    ))
    par, par_s = _timed(lambda: run_tbpoint(
        kernel, profile=profile,
        exec_config=ExecutionConfig(jobs=JOBS, use_cache=False),
    ))
    assert par.overall_ipc == serial.overall_ipc
    assert par.sample_size == serial.sample_size
    assert sorted(par.rep_results) == sorted(serial.rep_results)

    speedup = serial_s / par_s if par_s else float("inf")
    cache_speedup = cold_s / warm_s if warm_s else float("inf")
    record = {
        "kernel": KERNEL,
        "scale": SCALE,
        "jobs": JOBS,
        "cpus": os.cpu_count(),
        "representative_launches": len(serial.rep_results),
        "serial_seconds": round(serial_s, 4),
        "parallel_seconds": round(par_s, 4),
        "parallel_speedup": round(speedup, 3),
        # With explicit --jobs honored, the fan-out engages even where
        # os.cpu_count() under-reports (containers); the speedup above
        # then honestly measures what the host can actually deliver.
        "exec_path": par.exec_meta.get("path"),
        "exec_workers": par.exec_meta.get("workers"),
        "exec_reason": par.exec_meta.get("reason"),
        "profile_cold_seconds": round(cold_s, 4),
        "profile_warm_seconds": round(warm_s, 4),
        "cache_speedup": round(cache_speedup, 3),
        "identical_estimates": True,
    }
    assert tuple(record) == RECORD_KEYS
    OUTPUT.write_text(json.dumps(record, indent=2) + "\n")
    emit(render_table(
        ["metric", "value"],
        [(k, str(v)) for k, v in record.items()],
        title=f"Batch execution scaling ({KERNEL}, jobs={JOBS})",
    ))

    # A warm cache must beat re-profiling outright.
    assert warm_s < cold_s
    # An explicit jobs=N request over several launches must engage the
    # pool — cpu_count is advisory only (the old gating clamped jobs to
    # a container-under-reported cpu_count and silently ran serial).
    if len(serial.rep_results) > 1:
        assert par.exec_meta["path"] == "parallel" or (
            par.exec_meta["reason"] == "process pool unavailable"
        ), par.exec_meta
    # The headline parallel claim only holds where the hardware can: on
    # a single-CPU box the pool adds overhead and proves nothing.
    if (os.cpu_count() or 1) >= 4 and len(serial.rep_results) >= JOBS:
        assert speedup >= 2.0, (
            f"expected >=2x speedup with {JOBS} jobs, got {speedup:.2f}x"
        )
