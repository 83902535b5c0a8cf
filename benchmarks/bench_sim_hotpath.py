"""Timing-simulator hot path: the fast system vs the reference oracle.

Measures single-process simulator throughput (warp-insts/sec) of the
fast system — compact engine (trace interning + heap pool + segment
batching) on the batched memory front end — against the pre-overhaul
reference system (per-instruction reference engine on the
per-transaction reference memory front end), asserts both produce
bit-identical ``LaunchResult``\\ s (memory statistics included), and
records everything to ``BENCH_sim.json`` at the repo root.

Methodology — every choice here exists to make the ratio mean
"simulator speed" and nothing else:

* **Pre-materialized blocks.**  ``LaunchTrace.block`` synthesizes block
  traces through a bounded LRU, so repeated runs of a >256-block launch
  would re-synthesize numpy arrays every rep — identical cost for both
  systems, pure dilution of the ratio.  The harness materializes every
  block once up front; both systems then measure pure simulation.
* **Paired reps, median of ratios.**  Shared hosts drift by 10-20% on
  scales of seconds, which no best-of-N scheme cancels.  Each rep times
  reference and compact back to back (order alternating) and yields one
  ratio; slow drift hits both sides of a pair equally, so the median of
  per-pair ratios is the robust speedup estimate.  Best-of times are
  still recorded for the absolute throughput columns.
* **Warm engines.**  Both systems run once untimed first.  This also
  lets the compact engine's simulator-lifetime trace interning engage,
  exactly as it does across launches/relaunches in real experiment
  drivers (one conversion per unique trace skeleton per simulator).
* **Equivalence gate.**  Every rep's results are compared field by
  field — memory-hierarchy statistics included, so the fast front end
  cannot drift silently; a throughput number for a wrong simulation is
  meaningless.

Each record carries the memory-hierarchy statistics (L1/L2 hit rates,
DRAM row-hit rate, mean queue delay) and the fast-path engagement
counters (batched instructions, transactions per memory instruction,
in-batch level hits, dedup savings), so a regression that silently
disables a fast path shows up as a counter going to zero even when the
timing noise hides it.

Environment knobs: ``REPRO_BENCH_SIM_KERNELS`` (default
``hotspot,black,kmeans,stream,spmv,lbm,mri`` — compute-saturated and
memory-bound), ``REPRO_BENCH_SIM_SCALE`` (default 0.125),
``REPRO_BENCH_SIM_REPS`` (default 5).

The smoke test compares *relative* throughput (fast-system speedup vs
the in-process reference, which is machine- and load-independent)
against the checked-in per-kernel baselines
``benchmarks/sim_smoke_baseline.json`` and fails on a >30% drop — the
CI guard against hot-path regressions, now covering one compute-bound
and one memory-bound kernel.  It also times a sampled run (a
``RegionSampler`` that skips nothing) against an unsampled run of the
same launch and fails when that ratio rises >30% above its pin, the
guard that keeps sampled launches on the fast window loop.  Recorded
runs (the Random and Ideal-SimPoint baselines' per-unit measurement)
get the same guard: a run with a ``FixedUnitRecorder`` against a plain
run of the same launch, pinned as ``recorder_overhead``.
"""

from __future__ import annotations

import json
import os
import time
from statistics import median
from pathlib import Path

import numpy as np

from repro.analysis.report import render_table
from repro.config import GPUConfig
from repro.core import RegionSampler
from repro.profiler import profile_launch
from repro.sim.gpu import FixedUnitRecorder, GPUSimulator
from repro.workloads import get_workload

from conftest import emit

KERNELS = [
    n.strip()
    for n in os.environ.get(
        "REPRO_BENCH_SIM_KERNELS",
        "hotspot,black,kmeans,stream,spmv,lbm,mri",
    ).split(",")
    if n.strip()
]
SCALE = float(os.environ.get("REPRO_BENCH_SIM_SCALE", "0.125"))
REPS = int(os.environ.get("REPRO_BENCH_SIM_REPS", "5"))
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_sim.json"
#: Top-level keys of the record, in order (checked against the
#: checked-in file by ``tests/test_bench_records.py``).
RECORD_KEYS = ("method", "reps", "cpus", "kernels", "best_speedup")
SMOKE_BASELINE = Path(__file__).resolve().parent / "sim_smoke_baseline.json"

#: A >30% relative-throughput drop against the checked-in baseline
#: fails CI; so does a sampled/plain or recorded/plain time ratio >30%
#: above its pin.
SMOKE_TOLERANCE = 0.30
#: Equal units a recorded run is cut into by :func:`recorder_overhead`
#: (the setup the ``recorder_overhead`` pin was measured on).
RECORDER_UNITS = 100


def _materialize(launch):
    """Replace the launch's LRU-backed factory with prebuilt blocks so
    reps measure the simulator, not repeated trace synthesis."""
    blocks = [launch._factory(i) for i in range(launch.num_blocks)]
    launch._factory = blocks.__getitem__
    return launch


def _fingerprint(result):
    return (
        result.issued_warp_insts,
        result.wall_cycles,
        tuple(result.per_sm_issued),
        tuple(result.per_sm_busy_cycles),
        result.skipped_warp_insts,
        result.extra_cycles,
        tuple(sorted(result.mem_stats.items())),
    )


def bench_launch(launch, reps: int = REPS, gpu: GPUConfig | None = None):
    """Paired-rep comparison of the fast system against the
    pre-overhaul reference on one launch; returns the per-launch record
    (asserts bit-identical results, memory statistics included)."""
    gpu = gpu or GPUConfig()
    ref_sim = GPUSimulator(gpu, engine="reference", mem_front_end="reference")
    compact_sim = GPUSimulator(gpu, engine="compact", mem_front_end="fast")
    ref_res = ref_sim.run_launch(launch)  # warm-up (untimed)
    compact_res = compact_sim.run_launch(launch)
    assert _fingerprint(ref_res) == _fingerprint(compact_res)

    ratios = []
    best_ref = best_compact = float("inf")
    # Each rep times both systems back to back, with the order
    # alternating so slow host drift never consistently favours one side.
    orders = (("ref", "fast"), ("fast", "ref"))
    sims = {"ref": ref_sim, "fast": compact_sim}
    for rep in range(reps):
        seconds = {}
        results = {}
        for system in orders[rep % len(orders)]:
            t0 = time.perf_counter()
            results[system] = sims[system].run_launch(launch)
            seconds[system] = time.perf_counter() - t0
        ref_res = results["ref"]
        compact_res = results["fast"]
        assert _fingerprint(ref_res) == _fingerprint(compact_res)
        ratios.append(seconds["ref"] / seconds["fast"])
        best_ref = min(best_ref, seconds["ref"])
        best_compact = min(best_compact, seconds["fast"])

    insts = ref_res.issued_warp_insts
    counters = compact_res.counters
    mem_stats = compact_res.mem_stats
    mem_insts = max(1, counters.mem_insts)
    return {
        "warp_insts": insts,
        "reference_seconds": round(best_ref, 4),
        "compact_seconds": round(best_compact, 4),
        "reference_ips": round(insts / best_ref),
        "compact_ips": round(insts / best_compact),
        "speedup": round(median(ratios), 3),
        "identical_results": True,
        "segment_insts_pct": round(
            100.0 * counters.segment_insts / max(1, insts), 2
        ),
        "interning_hit_rate": round(
            counters.interning_hits
            / max(1, counters.interning_hits + counters.interning_misses),
            4,
        ),
        "events_per_inst": round(counters.events_popped / max(1, insts), 3),
        "mem": {
            "l1_hit_rate": round(mem_stats["l1_hit_rate"], 4),
            "l2_hit_rate": round(mem_stats["l2_hit_rate"], 4),
            "dram_requests": mem_stats["dram_requests"],
            "dram_row_hit_rate": round(mem_stats["dram_row_hit_rate"], 4),
            "dram_mean_queue_delay": round(
                mem_stats["dram_mean_queue_delay"], 2
            ),
            "mem_insts": counters.mem_insts,
            "txns_per_mem_inst": round(counters.mem_txns / mem_insts, 3),
            "batched_insts": counters.mem_batches,
            "batched_insts_pct": round(
                100.0 * counters.mem_batches / mem_insts, 2
            ),
            "batch_l1_hits": counters.mem_batch_l1_hits,
            "batch_l2_hits": counters.mem_batch_l2_hits,
            "dedup_txns": counters.mem_dedup_txns,
        },
    }


def _paired_ratio(run, reps: int):
    """Median, over order-alternating paired reps, of the time of
    ``run(True)`` over the time of ``run(False)``.  ``run`` returns
    ``(seconds, result)``; both sides must simulate identically."""
    run(False)  # warm-up (untimed)
    run(True)
    ratios = []
    orders = ((False, True), (True, False))
    for rep in range(reps):
        seconds = {}
        results = {}
        for mode in orders[rep % len(orders)]:
            seconds[mode], results[mode] = run(mode)
        assert _fingerprint(results[True]) == _fingerprint(results[False])
        ratios.append(seconds[True] / seconds[False])
    return median(ratios)


def sampler_overhead(launch, reps: int = REPS, gpu: GPUConfig | None = None):
    """Time of a run under a :class:`RegionSampler` that skips nothing
    (every block's region is -1) over the time of a ``sampler=None``
    run of the same launch on the same simulator (:func:`_paired_ratio`):
    the pure cost of carrying the sampler hooks."""
    gpu = gpu or GPUConfig()
    sim = GPUSimulator(gpu)
    n = launch.num_blocks
    insts = profile_launch(launch).warp_insts
    occupancy = gpu.system_occupancy(launch.warps_per_block)

    def run(sampled):
        sampler = None
        if sampled:
            sampler = RegionSampler(np.full(n, -1), insts, occupancy=occupancy)
        t0 = time.perf_counter()
        result = sim.run_launch(launch, sampler=sampler)
        return time.perf_counter() - t0, result

    return _paired_ratio(run, reps)


def recorder_overhead(launch, reps: int = REPS):
    """Time of a run with a :class:`FixedUnitRecorder` (``RECORDER_UNITS``
    units of equal size, BBVs recorded, as the baselines record them)
    over the time of a plain run of the same launch on the same default
    simulator (:func:`_paired_ratio`): the cost of the recorded route."""
    sim = GPUSimulator(GPUConfig())
    total = int(profile_launch(launch).warp_insts.sum())
    unit_insts = max(1, total // RECORDER_UNITS)

    def run(recorded):
        recorder = None
        if recorded:
            recorder = FixedUnitRecorder(unit_insts, launch.num_bbs)
        t0 = time.perf_counter()
        result = sim.run_launch(launch, recorder=recorder)
        seconds = time.perf_counter() - t0
        if recorder is not None:
            assert sum(u.insts for u in recorder.units) == result.issued_warp_insts
        return seconds, result

    return _paired_ratio(run, reps)


def test_sim_hotpath_throughput():
    rows = []
    records = []
    for name in KERNELS:
        kernel = get_workload(name, scale=SCALE)
        launch = _materialize(kernel.launches[0])
        rec = {"kernel": name, "scale": SCALE, "launch_id": 0}
        rec.update(bench_launch(launch))
        records.append(rec)
        rows.append((
            name,
            f"{rec['warp_insts']:,}",
            f"{rec['compact_ips']:,}",
            f"{rec['speedup']:.2f}x",
            f"{rec['mem']['l1_hit_rate']:.0%}",
            f"{rec['mem']['dram_row_hit_rate']:.0%}",
            f"{rec['mem']['batched_insts_pct']:.0f}%",
        ))

    payload = {
        "method": (
            "pre-materialized blocks, warm engines; reference = "
            "per-instruction engine + per-transaction memory front end "
            "(the pre-overhaul system); speedup = median of per-rep "
            "ratios against the fast (compact+fast) system over "
            f"{REPS} order-alternating paired reps (robust to clock "
            "drift); throughput = issued warp insts / best rep seconds; "
            "results asserted bit-identical (memory statistics "
            "included) every rep"
        ),
        "reps": REPS,
        "cpus": os.cpu_count(),
        "kernels": records,
        "best_speedup": max(r["speedup"] for r in records),
    }
    assert tuple(payload) == RECORD_KEYS
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    emit(render_table(
        ["kernel", "warp insts", "compact insts/s", "fast spd",
         "L1 hit", "DRAM row hit", "batched mem"],
        rows,
        title=f"Simulator hot-path throughput (scale={SCALE}, "
              f"median of {REPS} paired reps)",
    ))
    for rec in records:
        assert rec["identical_results"]
        assert rec["speedup"] > 1.0, (
            f"{rec['kernel']}: fast system slower than reference "
            f"({rec['speedup']:.2f}x)"
        )


def test_sim_hotpath_smoke():
    """CI perf smoke: one compute-bound and one memory-bound kernel,
    compared against checked-in baseline *relative* throughputs (fast
    system vs in-process reference, so the check holds on any machine);
    >30% drop on either kernel fails.  The sampled path is held to its
    pinned sampled/plain time ratio (:func:`sampler_overhead`); a rise
    of >30% above the pin fails, and so is the recorded path
    (:func:`recorder_overhead`)."""
    baseline = json.loads(SMOKE_BASELINE.read_text())
    rows = []
    failures = []
    for entry in baseline["kernels"]:
        kernel = get_workload(entry["kernel"], scale=entry["scale"])
        launch = _materialize(kernel.launches[0])
        rec = bench_launch(launch, reps=max(REPS, 7))
        floor = entry["speedup"] * (1 - SMOKE_TOLERANCE)
        rows.extend([
            (f"{entry['kernel']}: speedup now", f"{rec['speedup']:.3f}x"),
            (f"{entry['kernel']}: baseline", f"{entry['speedup']:.3f}x"),
            (f"{entry['kernel']}: floor", f"{floor:.3f}x"),
        ])
        assert rec["identical_results"]
        if rec["speedup"] < floor:
            failures.append(
                f"{entry['kernel']}: fast/reference speedup "
                f"{rec['speedup']:.3f}x fell below {floor:.3f}x "
                f"(baseline {entry['speedup']:.3f}x - {SMOKE_TOLERANCE:.0%})"
            )
    for key, mode, measure in (
        ("sampler_overhead", "sampled", sampler_overhead),
        ("recorder_overhead", "recorded", recorder_overhead),
    ):
        entry = baseline[key]
        kernel = get_workload(entry["kernel"], scale=entry["scale"])
        launch = _materialize(kernel.launches[entry["launch_id"]])
        ratio = measure(launch, reps=max(REPS, 9))
        ceiling = entry["ratio"] * (1 + SMOKE_TOLERANCE)
        rows.extend([
            (f"{entry['kernel']}: {mode}/plain now", f"{ratio:.3f}x"),
            (f"{entry['kernel']}: {mode}/plain pin", f"{entry['ratio']:.3f}x"),
            (f"{entry['kernel']}: ceiling", f"{ceiling:.3f}x"),
        ])
        if ratio > ceiling:
            failures.append(
                f"{entry['kernel']}: {mode}/plain time ratio {ratio:.3f}x "
                f"rose above {ceiling:.3f}x (pin {entry['ratio']:.3f}x + "
                f"{SMOKE_TOLERANCE:.0%})"
            )
    emit(render_table(
        ["metric", "value"], rows,
        title="Simulator hot-path smoke vs baseline",
    ))
    assert not failures, "hot-path regression: " + "; ".join(failures)
