"""The library workload, paper-mix, and the library view of serve-mix.

Both call the program's public functions in-process.  The untraced
measurement times ``get_workload`` + ``cached_profile`` (set-up),
``run_tbpoint`` with the profile supplied, and ``run_full``; the traced
decomposition calls the functions those are built from one by one, so
each layer's time is recorded from outside the program.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import (
    GPUConfig,
    GPUSimulator,
    SamplingConfig,
    get_workload,
    run_full,
    run_tbpoint,
)
from repro.core import RegionSampler, build_epochs, identify_regions, plan_inter_launch
from repro.core.estimates import (
    KernelEstimate,
    compose_kernel_estimate,
    geometric_mean,
    sampling_error,
)
from repro.exec import ExecutionConfig, ProfileCache, cached_profile, kernel_cache_key
from repro.profiler import profile_launch
from repro.profiler.functional import KernelProfile
from repro.sim.gpu import LaunchResult

from hostspeed import Clock
from spans import Spans

HERE = Path(__file__).resolve().parent
SCALE = 0.125
BASE_GPU = GPUConfig()
#: The Sec. V-C design points: warps/SM x SMs in {24, 48} x {7, 14}.
SWEEP_GPUS = tuple(
    GPUConfig(warps_per_sm=w, num_sms=s) for w in (24, 48) for s in (7, 14)
)
#: Cold set-ups per run, each in a fresh process; ``setup_s`` is their
#: median.
SETUP_REPS = 3
SETUP_TIMEOUT = 60.0


@dataclass(frozen=True)
class LibraryWorkload:
    kernels: tuple[str, ...]
    #: Timed operations per kernel: ``kernel -> ((kind, gpu), ...)``,
    #: kind ``"tbpoint"`` or ``"full"``.
    ops: dict


def at_base(*kinds: str) -> tuple:
    return tuple((kind, BASE_GPU) for kind in kinds)


# TBPoint and a full run at the base machine per kernel, where the
# errors are the EXPERIMENTS.md rows.  lbm, whose profiling costs most
# against its TBPoint run, also reuses its one profile at every Sec. V-C
# design point; its ~11-s full run is too long to repeat in a run, so
# it runs only in the warm-up, for its error.
PAPER_MIX = LibraryWorkload(
    kernels=("stream", "hotspot", "lbm", "mst"),
    ops={
        "stream": at_base("tbpoint", "full"),
        "hotspot": at_base("tbpoint", "full"),
        "lbm": tuple(("tbpoint", gpu) for gpu in SWEEP_GPUS),
        "mst": at_base("tbpoint", "full"),
    },
)
#: The library view of serve-mix's kernel, decomposed in its traced run.
SERVE_VIEW = LibraryWorkload(
    kernels=("stream",),
    ops={"stream": at_base("tbpoint", "full")},
)


def task_key(kernel: str, gpu: GPUConfig) -> str:
    return f"{kernel}@{gpu.warps_per_sm}x{gpu.num_sms}"


def schedule(spec: LibraryWorkload, seed: int) -> tuple[list[str], list[tuple]]:
    """The seeded order of kernels and of timed (kind, kernel, gpu)
    operations: each kernel's TBPoint estimates, then its full runs."""
    rng = random.Random(seed)
    kernels = list(spec.kernels)
    rng.shuffle(kernels)
    tasks = []
    for kernel in kernels:
        for kind in ("tbpoint", "full"):
            gpus = [gpu for k, gpu in spec.ops[kernel] if k == kind]
            rng.shuffle(gpus)
            tasks += [(kind, kernel, gpu) for gpu in gpus]
    return kernels, tasks


def launch_fingerprint(result: LaunchResult) -> tuple:
    """Every simulated field of a launch result (counters excluded: they
    describe the engine's caches, not the simulated machine)."""
    return (
        result.launch_id, result.issued_warp_insts, result.wall_cycles,
        tuple(result.per_sm_issued), tuple(result.per_sm_busy_cycles),
        result.skipped_warp_insts, result.extra_cycles,
        tuple(sorted(result.mem_stats.items())),
    )


# ----------------------------------------------------------------------
# Untraced measurement
# ----------------------------------------------------------------------
def set_up(kernels, kernel_seed, cache_dir) -> tuple[float, dict, dict]:
    """One set-up: build every kernel and get its profile through the
    profile cache in ``cache_dir``."""
    config = ExecutionConfig(jobs=1, cache_dir=str(cache_dir))
    t0 = time.perf_counter()
    traces, profiles = {}, {}
    for kernel in kernels:
        traces[kernel] = get_workload(kernel, scale=SCALE, seed=kernel_seed)
        profiles[kernel] = cached_profile(traces[kernel], config)
    return time.perf_counter() - t0, traces, profiles


def cold_set_up(kernels, kernel_seed, cache_dir) -> dict:
    """One cold set-up in a fresh process (``coldsetup.py``), so that no
    sample reuses the synthesis caches an earlier one filled; returns
    its ``setup_s`` (reference-host seconds), ``wall_s`` and
    ``peak_rss_mb``."""
    done = subprocess.run(
        [sys.executable, str(HERE / "coldsetup.py"), str(kernel_seed),
         str(cache_dir), *kernels],
        env={**os.environ, "PYTHONPATH": str(HERE.parent / "src")},
        capture_output=True, text=True, timeout=SETUP_TIMEOUT, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def op_values(kind: str, result) -> dict:
    """The deterministic outputs of one operation."""
    if kind == "tbpoint":
        return {"tbpoint_ipc": result.overall_ipc, "sample_size": result.sample_size}
    return {"full_ipc": result.overall_ipc}


def accuracy(results: dict) -> dict:
    """Deterministic per-operation outputs, keyed like the reference file;
    ``results`` maps (kind, key) to a ``run_tbpoint``/``run_full`` result."""
    values: dict = {}
    for (kind, key), result in sorted(results.items(), reverse=True):  # TBPoint first
        entry = values.setdefault(key, {})
        entry.update(op_values(kind, result))
        if kind == "full" and "tbpoint_ipc" in entry:
            entry["error"] = sampling_error(entry["tbpoint_ipc"], entry["full_ipc"])
    return values


def summary_metrics(values: dict) -> dict:
    errors = [v["error"] for v in values.values() if "error" in v]
    sizes = [v["sample_size"] for v in values.values() if "sample_size" in v]
    return {
        "ipc_error_gmean": geometric_mean(errors),
        "sample_size_gmean": geometric_mean(sizes),
    }


def run_op(kind, trace, gpu, profile):
    if kind == "tbpoint":
        return run_tbpoint(trace, gpu, profile=profile)
    return run_full(trace, gpu)


def measure(spec, seed, seconds, kernel_seed, scratch, outcome) -> tuple[dict, dict]:
    """The untraced run: returns (end-to-end metrics, per-operation
    deterministic values).

    A warm-up comes first, untimed: every kernel's full run at the base
    config.  It gives the full IPC values, and it synthesizes the blocks
    that each trace keeps in memory, which a user pays once per trace.
    The timed operations then run in the seeded order, cycling through
    it until the next one would end after ``seconds``; the first cycle
    always runs in full.  Every time is in reference-host seconds
    (``hostspeed``).  Each operation's time is the median of its
    samples, and ``tbpoint_s`` and ``full_s`` sum those over one cycle.
    """
    kernels, tasks = schedule(spec, seed)
    setups = []
    for _ in range(SETUP_REPS):
        cache_dir = scratch.new_dir()
        setups.append(cold_set_up(kernels, kernel_seed, cache_dir))
    # The operations use the profiles the last cold set-up cached.
    _, traces, profiles = set_up(kernels, kernel_seed, cache_dir)
    clock = Clock()

    samples: dict = {}
    wall_samples: dict = {}
    results: dict = {}

    def record(op, kernel, result):
        kind = op[0]
        total = (result.estimate if kind == "tbpoint" else result).total_warp_insts
        outcome.check(total == profiles[kernel].total_warp_insts,
                      f"{op[1]}: {kind} result does not cover the profile")
        results[op] = result

    t0 = time.perf_counter()
    for kernel in kernels:
        outcome.attempted += 1
        record(("full", task_key(kernel, BASE_GPU)), kernel,
               run_full(traces[kernel], BASE_GPU))
    print(f"summary: warm-up, one full run per kernel, took "
          f"{time.perf_counter() - t0:.2f} wall s (not gated)", flush=True)
    t_start = time.perf_counter()
    for kind, kernel, gpu in itertools.cycle(tasks):
        op = (kind, task_key(kernel, gpu))
        if op in samples and (time.perf_counter() - t_start
                              + wall_samples[op][-1] > seconds):
            break
        outcome.attempted += 1
        result, wall, ref = clock.call(run_op, kind, traces[kernel], gpu,
                                       profiles[kernel])
        samples.setdefault(op, []).append(ref)
        wall_samples.setdefault(op, []).append(wall)
        # -- output checks (outside the timed region) ------------------
        if op in results:
            outcome.check(op_values(kind, result) == op_values(kind, results[op]),
                          f"{op[1]}: a repeated {kind} run gave different results")
        else:
            record(op, kernel, result)
    peak_rss_mb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                      statistics.median(s["peak_rss_mb"] for s in setups))

    op_s = {op: statistics.median(times) for op, times in samples.items()}
    counts = sorted(len(times) for times in samples.values())
    # The paper's time reduction compares like with like: full runs
    # against TBPoint on the same machine.  Printed, never gated.
    full_keys = [key for kind, key in op_s if kind == "full"]
    reduction = sum(op_s["full", k] for k in full_keys) / sum(
        op_s["tbpoint", k] for k in full_keys
    )
    print(f"summary: {len(tasks)} timed operations, {counts[0]}-{counts[-1]} "
          f"samples each; time reduction full / TBPoint on "
          f"{', '.join(full_keys)} = {reduction:.2f}x (not gated)", flush=True)
    print(f"summary: set-up median {statistics.median(s['wall_s'] for s in setups):.2f} "
          "wall s", flush=True)
    wall_sum = sum(statistics.median(t) for t in wall_samples.values())
    print(f"summary: one cycle takes {sum(op_s.values()):.2f} reference-host s, "
          f"{wall_sum:.2f} wall s", flush=True)
    print("samples (reference-host s): " + json.dumps(
        {f"{kind} {key}": [round(t, 4) for t in times]
         for (kind, key), times in samples.items()}), flush=True)
    tbpoint_s = sum(s for (kind, _), s in op_s.items() if kind == "tbpoint")
    full_s = sum(s for (kind, _), s in op_s.items() if kind == "full")
    values = accuracy(results)
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "tbpoint_s": tbpoint_s,
        "full_s": full_s,
        "ops_per_s": len(tasks) / (tbpoint_s + full_s),
        "peak_rss_mb": peak_rss_mb,
        **summary_metrics(values),
    }
    return metrics, values


# ----------------------------------------------------------------------
# Traced decomposition
# ----------------------------------------------------------------------
class SimTally:
    """Engine and memory counters summed over simulated launches."""

    def __init__(self) -> None:
        self.issued = self.events = self.segment_insts = 0
        self.intern_hits = self.intern_misses = 0
        self.mem_insts = self.mem_txns = self.mem_batches = 0
        self.dram_requests = 0
        self.l1_weighted = self.l2_weighted = 0.0

    def add(self, result: LaunchResult) -> None:
        c = result.counters
        self.issued += result.issued_warp_insts
        self.events += c.events_popped
        self.segment_insts += c.segment_insts
        self.intern_hits += c.interning_hits
        self.intern_misses += c.interning_misses
        self.mem_insts += c.mem_insts
        self.mem_txns += c.mem_txns
        self.mem_batches += c.mem_batches
        stats = result.mem_stats
        self.dram_requests += stats["dram_requests"]
        # Hit rates are per launch; weight them by the launch's traffic.
        self.l1_weighted += stats["l1_hit_rate"] * c.mem_txns
        self.l2_weighted += stats["l2_hit_rate"] * c.mem_txns

    def metrics(self) -> dict:
        def ratio(a, b):
            return a / b if b else 0.0

        return {
            "sim.events_per_inst": ratio(self.events, self.issued),
            "sim.segment_insts_share": ratio(self.segment_insts, self.issued),
            "sim.interning_hit_rate": ratio(
                self.intern_hits, self.intern_hits + self.intern_misses
            ),
            "sim.mem.txns_per_inst": ratio(self.mem_txns, self.mem_insts),
            "sim.mem.l1_hit_rate": ratio(self.l1_weighted, self.mem_txns),
            "sim.mem.l2_hit_rate": ratio(self.l2_weighted, self.mem_txns),
            "sim.mem.dram_requests": self.dram_requests,
            "sim.mem.batched_share": ratio(self.mem_batches, self.mem_insts),
        }


def decompose_tbpoint(trace, profile, gpu, spans: Spans, counts: dict,
                      tally: SimTally) -> KernelEstimate:
    """``run_tbpoint``'s steps as separate public calls: plan ->
    epochs/regions -> sampled ``run_launch`` -> composition."""
    sampling = SamplingConfig()
    simulator = GPUSimulator(gpu)
    with spans.span("core.plan"):
        plan = plan_inter_launch(profile, sampling)
    counts["core.launches"] = counts.get("core.launches", 0) + plan.num_launches
    counts["core.representatives"] = (
        counts.get("core.representatives", 0) + plan.num_clusters
    )
    rep_results = {}
    for lid in plan.simulated_launches:
        launch, launch_profile = trace.launches[lid], profile.launches[lid]
        with spans.span("core.regions"):
            occupancy = gpu.system_occupancy(launch.warps_per_block)
            epochs = build_epochs(launch_profile, occupancy)
            table = identify_regions(epochs, sampling)
            sampler = RegionSampler(
                region_of=table.region_of,
                block_warp_insts=launch_profile.warp_insts,
                config=sampling,
                occupancy=occupancy,
                cluster_of_region={r.region_id: r.cluster for r in table.regions},
            )
        with spans.span("sim.sampled"):
            result = simulator.run_launch(launch, sampler=sampler)
        rep_results[lid] = result
        for name, value in (
            ("core.epochs", epochs.num_epochs),
            ("core.regions", table.num_regions),
            ("core.sampler.ff_regions", sampler.fast_forwarded_regions),
            ("sim.sampled.issued_insts", result.issued_warp_insts),
            ("sim.sampled.skipped_insts", result.skipped_warp_insts),
        ):
            counts[name] = counts.get(name, 0) + value
        tally.add(result)
    with spans.span("core.compose"):
        return compose_kernel_estimate(profile, plan, rep_results)


def trace_layers(spec, seed, kernel_seed, scratch, outcome) -> tuple[dict, dict]:
    """The traced run's library part: (per-layer metrics of ``spec``'s
    operations, deterministic values), with the checks that the
    decomposition reproduces the untraced calls exactly."""
    kernels, tasks = schedule(spec, seed)
    spans = Spans()
    counts: dict = {"exec.cache.hits": 0, "exec.cache.misses": 0,
                    "workloads.blocks": 0, "sim.full.insts": 0}
    tally = SimTally()
    cache = ProfileCache(scratch.new_dir())

    def profile_layers(trace):
        """``profile_kernel`` with the synthesis it triggers split out:
        each launch's blocks are first synthesized into a memo window
        that holds the whole launch, then profiled from it."""
        launches = []
        for launch in trace.launches:
            window = launch.block_memo
            launch.resize_block_memo(launch.num_blocks)
            with spans.span("workloads.synth"):
                for tb_id in range(launch.num_blocks):
                    launch.block(tb_id)
            with spans.span("profiler.profile"):
                launches.append(profile_launch(launch))
            launch.resize_block_memo(window)
        counts["workloads.blocks"] += trace.num_blocks
        return KernelProfile(kernel_name=trace.name, launches=launches)

    def through_cache(trace):
        """``ProfileCache.profile`` as separate get / profile / put calls."""
        key = kernel_cache_key(trace)
        with spans.span("exec.cache.get"):
            profile = cache.get(key, trace.name)
        if profile is not None:
            counts["exec.cache.hits"] += 1
            return profile
        counts["exec.cache.misses"] += 1
        profile = profile_layers(trace)
        with spans.span("exec.cache.put"):
            cache.put(key, profile)
        return profile

    traces, profiles, estimates, full_results = {}, {}, {}, {}
    with spans.segment():
        for kernel in kernels:
            traces[kernel] = get_workload(kernel, scale=SCALE, seed=kernel_seed)
            profiles[kernel] = through_cache(traces[kernel])
        for kind, kernel, gpu in tasks:
            key = task_key(kernel, gpu)
            outcome.attempted += 1
            if kind == "tbpoint":
                estimates[key] = decompose_tbpoint(
                    traces[kernel], profiles[kernel], gpu, spans, counts, tally
                )
                continue
            simulator = GPUSimulator(gpu)
            results = []
            for launch in traces[kernel].launches:
                with spans.span("sim.full"):
                    result = simulator.run_launch(launch)
                results.append(result)
                tally.add(result)
                counts["sim.full.insts"] += result.issued_warp_insts
            full_results[key] = results

    # A later session's set-up reads the cached profiles back.
    for kernel in kernels:
        again = through_cache(traces[kernel])
        outcome.check(
            all(np.array_equal(getattr(a, col), getattr(b, col))
                for a, b in zip(again.launches, profiles[kernel].launches)
                for col in ("warp_insts", "thread_insts", "mem_requests")),
            f"{kernel}: cached profile differs from the computed one",
        )

    # The decomposition must compose exactly what the untraced calls give.
    untraced = {}
    for kind, kernel, gpu in tasks:
        key = task_key(kernel, gpu)
        if kind == "tbpoint":
            result = run_tbpoint(traces[kernel], gpu, profile=profiles[kernel])
            outcome.check(result.estimate == estimates[key],
                          f"{key}: traced decomposition differs from run_tbpoint")
        else:
            result = run_full(traces[kernel], gpu)
            outcome.check(
                [launch_fingerprint(r) for r in result.launch_results]
                == [launch_fingerprint(r) for r in full_results[key]],
                f"{key}: per-launch run_launch differs from run_full",
            )
        untraced[kind, key] = result
    # A full run that only the warm-up makes gives its values, not layer
    # times.
    for kernel in kernels:
        key = task_key(kernel, BASE_GPU)
        if ("full", key) not in untraced:
            untraced["full", key] = run_full(traces[kernel], BASE_GPU)

    sampled_s = spans.total("sim.sampled")
    full_s = spans.total("sim.full")
    hits, misses = counts["exec.cache.hits"], counts["exec.cache.misses"]
    metrics = {
        "workloads.synth_s": spans.total("workloads.synth"),
        "profiler.profile_s": spans.total("profiler.profile"),
        "exec.cache.put_s": spans.total("exec.cache.put"),
        "exec.cache.get_s": spans.total("exec.cache.get"),
        "exec.cache.hit_ratio": hits / (hits + misses),
        "core.plan_s": spans.total("core.plan"),
        "core.regions_s": spans.total("core.regions"),
        "core.compose_s": spans.total("core.compose"),
        "sim.sampled_s": sampled_s,
        "sim.sampled.us_per_inst": (
            sampled_s / counts["sim.sampled.issued_insts"] * 1e6
        ),
        "sim.full_s": full_s,
        "sim.full.us_per_inst": full_s / counts["sim.full.insts"] * 1e6,
        "trace.total_s": spans.segment_wall,
        "trace.self_sum_s": spans.covered_sum,
        "trace.unattributed_s": spans.segment_wall - spans.covered_sum,
        **counts,
        **tally.metrics(),
    }
    return metrics, accuracy(untraced)
