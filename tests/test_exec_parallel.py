"""Determinism of the batch execution engine.

The contract (``repro.exec.engine``): results of a parallel run are
bit-identical to the serial run — same estimates, same sample sizes,
same per-launch results — for any job count.  Property-tested over
randomly shaped kernels and ``jobs ∈ {1, 2, 4}``.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import run_full
from repro.config import GPUConfig
from repro.core.pipeline import run_tbpoint
from repro.exec import ExecutionConfig, parallel_map
from repro.workloads import get_workload
from repro.workloads.base import LaunchSpec, Segment, build_kernel

from tests.conftest import make_uniform_kernel

GPU = GPUConfig(num_sms=2, warps_per_sm=8)

JOBS = st.sampled_from([1, 2, 4])


@st.composite
def small_kernels(draw):
    """Tiny but shape-diverse kernels: varying launch counts, block
    counts, instruction mixes, and seeds."""
    num_launches = draw(st.integers(min_value=2, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    specs = []
    for _ in range(num_launches):
        blocks = draw(st.integers(min_value=8, max_value=24))
        insts = draw(st.sampled_from([16, 24, 32]))
        mem_ratio = draw(st.sampled_from([0.05, 0.1, 0.2]))
        specs.append(
            LaunchSpec(
                segments=(
                    Segment(
                        count=blocks,
                        insts_per_warp=insts,
                        mem_ratio=mem_ratio,
                    ),
                ),
                warps_per_block=2,
            )
        )
    return build_kernel("prop", "test", "regular", specs, seed)


def _fingerprint(tbp):
    """Everything observable about a TBPoint run, for exact comparison."""
    return (
        tbp.overall_ipc,
        tbp.sample_size,
        tbp.inter_skipped_insts,
        tbp.intra_skipped_insts,
        tuple(sorted(tbp.rep_results)),
        tuple(
            (lid, r.issued_warp_insts, r.wall_cycles, r.skipped_warp_insts,
             r.extra_cycles)
            for lid, r in sorted(tbp.rep_results.items())
        ),
        tuple(
            (e.launch_id, e.warp_insts, e.est_cycles, e.simulated_insts)
            for e in tbp.estimate.launches
        ),
    )


@pytest.mark.slow
class TestParallelDeterminism:
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(kernel=small_kernels(), jobs=JOBS)
    def test_tbpoint_parallel_matches_serial(self, kernel, jobs):
        serial = run_tbpoint(
            kernel, GPU, exec_config=ExecutionConfig(jobs=1, use_cache=False)
        )
        par = run_tbpoint(
            kernel, GPU,
            exec_config=ExecutionConfig(jobs=jobs, use_cache=False),
        )
        assert _fingerprint(par) == _fingerprint(serial)

    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(kernel=small_kernels(), jobs=JOBS)
    def test_full_parallel_matches_serial(self, kernel, jobs):
        serial = run_full(
            kernel, GPU, exec_config=ExecutionConfig(jobs=1, use_cache=False)
        )
        par = run_full(
            kernel, GPU,
            exec_config=ExecutionConfig(jobs=jobs, use_cache=False),
        )
        assert par.overall_ipc == serial.overall_ipc
        assert par.total_cycles == serial.total_cycles
        assert len(par.launch_results) == len(serial.launch_results)
        for a, b in zip(par.launch_results, serial.launch_results):
            assert (a.issued_warp_insts, a.wall_cycles) == (
                b.issued_warp_insts, b.wall_cycles
            )


class TestWorkloadTracesAreParallelizable:
    """The fan-out only engages when tasks pickle; registry-built traces
    must stay picklable or parallelism silently degrades to serial."""

    def test_workload_trace_picklable(self):
        kernel = get_workload("stream", scale=0.0625)
        clone = pickle.loads(pickle.dumps(kernel))
        assert clone.num_launches == kernel.num_launches
        a = clone.launches[0].block(0)
        b = kernel.launches[0].block(0)
        assert a.op.tolist() == b.op.tolist()

    def test_uniform_kernel_picklable(self):
        kernel = make_uniform_kernel(num_launches=2, blocks_per_launch=16)
        clone = pickle.loads(pickle.dumps(kernel))
        assert clone.launches[1].num_blocks == 16


class TestDegradeToSerial:
    """parallel_map must not spawn a pool that cannot pay for itself
    (jobs <= 1, too few items to amortize the spawn) — but an
    *explicit* jobs request is honoured exactly, even past the
    apparent CPU count: cgroup quotas make ``os.cpu_count()``
    under-report, and silently rewriting ``--jobs`` was the gating bug
    that forced every run on such hosts to serial."""

    def test_explicit_jobs_honored_past_cpu_count(self, monkeypatch):
        import repro.exec.pool as pool

        monkeypatch.setattr(pool.os, "cpu_count", lambda: 1)
        meta: dict = {}
        out = parallel_map(_square, list(range(10)), jobs=4, meta=meta)
        assert out == [i * i for i in range(10)]
        # The request must not be rewritten to the CPU count; either
        # the pool spawned with the requested width, or pools are
        # genuinely unavailable in this sandbox.
        if meta["path"] == "parallel":
            assert meta["workers"] == 4
        else:
            assert meta["reason"] == "process pool unavailable"

    def test_effective_jobs_property(self, monkeypatch):
        import repro.exec.pool as pool

        monkeypatch.setattr(pool.os, "cpu_count", lambda: 2)
        # Explicit requests pass through untouched; only the automatic
        # request (0) is sized to the machine.
        assert ExecutionConfig(jobs=8).effective_jobs == 8
        assert ExecutionConfig(jobs=0).effective_jobs == 2
        assert ExecutionConfig(jobs=1).effective_jobs == 1

    def test_single_item_stays_serial(self):
        meta: dict = {}
        assert parallel_map(_square, [3], jobs=4, meta=meta) == [9]
        assert meta["path"] == "serial"
        assert meta["reason"] == "jobs=4, 1 item(s)"

    def test_two_items_take_the_pool(self):
        # One fan-out rule for every caller: a pool whenever jobs > 1
        # and there are at least two items (each caller maps whole
        # launches or kernels, which dwarf a worker's spawn cost).
        meta: dict = {}
        out = parallel_map(_square, [2, 3], jobs=2, meta=meta)
        assert out == [4, 9]
        if meta["path"] == "serial":  # pool may be unavailable in sandboxes
            assert meta["reason"] == "process pool unavailable"
        else:
            assert meta["workers"] == 2

    def test_meta_records_unpicklable_reason(self, monkeypatch):
        import repro.exec.pool as pool

        monkeypatch.setattr(pool.os, "cpu_count", lambda: 4)
        meta: dict = {}
        fn = lambda x: x + 1  # noqa: E731 — deliberately unpicklable
        parallel_map(fn, list(range(10)), jobs=4, meta=meta)
        assert meta["path"] == "serial"
        assert meta["reason"] == "fn or first item not picklable"

    def test_parallel_path_records_meta(self, monkeypatch):
        import repro.exec.pool as pool

        monkeypatch.setattr(pool.os, "cpu_count", lambda: 2)
        meta: dict = {}
        out = parallel_map(_square, list(range(6)), jobs=2, meta=meta)
        if meta["path"] == "parallel":  # pool may be unavailable in sandboxes
            assert meta["workers"] == 2
            assert meta["reason"] is None
        assert out == [i * i for i in range(6)]

    def test_run_tbpoint_records_exec_meta(self):
        kernel = make_uniform_kernel(num_launches=2, blocks_per_launch=12)
        tbp = run_tbpoint(
            kernel, GPU, exec_config=ExecutionConfig(jobs=1, use_cache=False)
        )
        assert tbp.exec_meta["path"] == "serial"
        assert tbp.exec_meta["workers"] == 1

    def test_run_full_records_exec_meta(self):
        kernel = make_uniform_kernel(num_launches=2, blocks_per_launch=12)
        full = run_full(
            kernel, GPU, exec_config=ExecutionConfig(jobs=1, use_cache=False)
        )
        assert full.exec_meta["path"] == "serial"


class TestLaunchFanOutEngages:
    """Regression for the gating bug (BENCH_exec.json: ``--jobs 4``
    over 8 launches reported ``exec_reason: "jobs=1, 8 launch(es)"``):
    with jobs > 1 and at least two launches to simulate, the launch
    fan-out must actually take the parallel path."""

    @staticmethod
    def _assert_parallel(meta: dict, workers: int) -> None:
        if meta["path"] == "parallel":
            assert meta["workers"] == workers
            assert meta["reason"] is None
        else:  # pool may be unavailable in sandboxes — but never a cap
            assert meta["reason"] == "process pool unavailable"

    def test_run_full_parallel_engages_for_two_launches(self):
        kernel = make_uniform_kernel(num_launches=2, blocks_per_launch=12)
        full = run_full(
            kernel, GPU, exec_config=ExecutionConfig(jobs=2, use_cache=False)
        )
        self._assert_parallel(full.exec_meta, workers=2)

    def test_run_tbpoint_parallel_engages_for_multi_reps(self):
        # use_inter=False keeps every launch a representative (identical
        # launches would otherwise cluster into one, which is correctly
        # serial); 8 launches with --jobs 4 is exactly the recorded
        # BENCH_exec.json failure shape.
        kernel = make_uniform_kernel(num_launches=8, blocks_per_launch=12)
        tbp = run_tbpoint(
            kernel, GPU, use_inter=False,
            exec_config=ExecutionConfig(jobs=4, use_cache=False),
        )
        assert len(tbp.rep_results) == 8
        self._assert_parallel(tbp.exec_meta, workers=4)


class TestWarmWorkerSimulator:
    """Per-worker simulator reuse (``repro.sim.worker``): the pool
    initializer builds one simulator per worker; tasks reuse it when
    the config matches and rebuild it otherwise.  Reuse must be
    invisible in results."""

    def test_get_simulator_reuses_warm_instance(self):
        import repro.sim.worker as worker

        worker.init_worker(GPU)
        first = worker.get_simulator(GPU)
        assert first is worker.get_simulator(GPU)

    def test_get_simulator_rebuilds_on_config_change(self):
        import repro.sim.worker as worker

        worker.init_worker(GPU)
        warm = worker.get_simulator(GPU)
        other = worker.get_simulator(GPU.with_(num_sms=3))
        assert other is not warm
        assert other.config.num_sms == 3
        assert worker.get_simulator(GPU.with_(num_sms=3)) is other

    def test_registry_holds_at_most_one_simulator(self):
        import repro.sim.worker as worker

        other_gpu = GPU.with_(num_sms=3)
        worker.init_worker(GPU)
        first = worker.get_simulator(GPU)
        assert list(worker._SIMS) == [GPU]
        worker.get_simulator(other_gpu)
        assert list(worker._SIMS) == [other_gpu]
        # Switching back rebuilds: the first machine was dropped.
        assert worker.get_simulator(GPU) is not first
        assert list(worker._SIMS) == [GPU]

    def test_init_worker_without_config_empties_registry(self):
        # A serve worker starts from nothing, whatever its parent held.
        import repro.sim.worker as worker

        worker.get_simulator(GPU)
        assert worker.is_warm(GPU)
        worker.init_worker()
        assert not worker.is_warm(GPU)
        assert not worker._SIMS

    def test_warm_simulator_results_bit_identical_to_fresh(self):
        import repro.sim.worker as worker

        kernel = make_uniform_kernel(num_launches=3, blocks_per_launch=12)
        worker.init_worker(GPU)
        sim = worker.get_simulator(GPU)
        from repro.sim.gpu import GPUSimulator

        warm = [sim.run_launch(l) for l in kernel.launches]
        fresh = [GPUSimulator(GPU).run_launch(l) for l in kernel.launches]
        for a, b in zip(warm, fresh):
            assert (a.issued_warp_insts, a.wall_cycles) == (
                b.issued_warp_insts, b.wall_cycles
            )


class TestOneSerialPath:
    """Serial runs go through ``parallel_map`` like pooled ones and run
    on the process's one warm simulator (``repro.sim.worker``)."""

    @staticmethod
    def _misses(results) -> int:
        return sum(r.counters.interning_misses for r in results)

    def test_second_serial_run_full_reuses_interned_traces(self):
        import repro.sim.worker as worker

        kernel = make_uniform_kernel(num_launches=2, blocks_per_launch=12)
        worker.init_worker()
        first = run_full(kernel, GPU)
        second = run_full(kernel, GPU)
        assert self._misses(first.launch_results) > 0
        assert self._misses(second.launch_results) == 0
        assert [r.wall_cycles for r in first.launch_results] == [
            r.wall_cycles for r in second.launch_results
        ]

    def test_second_serial_run_tbpoint_reuses_interned_traces(self):
        import repro.sim.worker as worker

        kernel = make_uniform_kernel(num_launches=2, blocks_per_launch=12)
        worker.init_worker()
        first = run_tbpoint(kernel, GPU, use_inter=False)
        second = run_tbpoint(kernel, GPU, use_inter=False)
        assert self._misses(first.rep_results.values()) > 0
        assert self._misses(second.rep_results.values()) == 0
        assert _fingerprint(first) == _fingerprint(second)

    @pytest.mark.parametrize("runner", ["run_full", "run_tbpoint"])
    def test_serial_exec_meta_has_the_pool_keys(self, runner):
        kernel = make_uniform_kernel(num_launches=2, blocks_per_launch=12)

        def meta(jobs: int) -> dict:
            cfg = ExecutionConfig(jobs=jobs, use_cache=False)
            if runner == "run_full":
                return run_full(kernel, GPU, exec_config=cfg).exec_meta
            return run_tbpoint(
                kernel, GPU, use_inter=False, exec_config=cfg
            ).exec_meta

        serial, pooled = meta(1), meta(2)
        assert serial["path"] == "serial"
        assert set(serial) == set(pooled)
        assert serial["attempts"] == serial["items"] == 2

    def test_serial_run_shares_the_retry_budget(self):
        from repro.exec import InjectedFault, raise_plan

        kernel = make_uniform_kernel(num_launches=2, blocks_per_launch=12)
        clean = run_full(kernel, GPU)
        cfg = ExecutionConfig(
            jobs=1, use_cache=False, retries=1,
            fault_plan=raise_plan((1, 0)),
        )
        flaky = run_full(kernel, GPU, exec_config=cfg)
        assert flaky.exec_meta["retries"] == 1
        assert [r.wall_cycles for r in flaky.launch_results] == [
            r.wall_cycles for r in clean.launch_results
        ]
        # Past the budget the fault propagates, as it does from a pool.
        fatal = cfg.with_(fault_plan=raise_plan((1, 0), (1, 1)))
        with pytest.raises(InjectedFault):
            run_full(kernel, GPU, exec_config=fatal)


class TestSweepFanOut:
    """One fan-out rule for sweeps and their tasks: the sweep-level map
    and ``ExecutionConfig.for_tasks`` agree on when a pool is used, so
    a sweep of few tasks parallelizes at exactly one level."""

    @pytest.mark.parametrize(
        "jobs, tasks, inner_jobs",
        [(2, 2, 1), (4, 3, 1), (2, 1, 2), (1, 5, 1)],
    )
    def test_for_tasks_follows_the_map(self, jobs, tasks, inner_jobs):
        assert ExecutionConfig(jobs=jobs).for_tasks(tasks).jobs == inner_jobs

    def test_for_tasks_keeps_sweep_state_at_the_sweep(self):
        from repro.exec import raise_plan

        outer = ExecutionConfig(
            jobs=2, resume=True, fault_plan=raise_plan((0, 0)), retries=5,
        )
        for tasks in (1, 2):
            inner = outer.for_tasks(tasks)
            assert (inner.resume, inner.fault_plan) == (False, None)
            assert inner.retries == 5

    @pytest.mark.slow
    def test_two_kernel_sweep_fans_out(self):
        from repro.analysis.experiments import run_fig9_fig10
        from repro.config import ExperimentConfig

        experiment = ExperimentConfig(scale=0.02)
        kernels = ("stream", "hotspot")
        serial = run_fig9_fig10(
            kernels, experiment,
            exec_config=ExecutionConfig(jobs=1, use_cache=False),
        )
        swept = run_fig9_fig10(
            kernels, experiment,
            exec_config=ExecutionConfig(jobs=2, use_cache=False),
        )
        meta = swept.exec_meta
        if meta["path"] == "parallel":
            assert meta["workers"] == 2
            # Pools never nest: each kernel ran its launches serially.
            for c in swept.comparisons:
                assert c.tbpoint.exec_meta["workers"] == 1
        else:  # pool may be unavailable in sandboxes — but never a cap
            assert meta["reason"] == "process pool unavailable"
        assert [
            (c.full_ipc, c.tbpoint.overall_ipc, c.tbpoint.sample_size)
            for c in swept.comparisons
        ] == [
            (c.full_ipc, c.tbpoint.overall_ipc, c.tbpoint.sample_size)
            for c in serial.comparisons
        ]

    @pytest.mark.slow
    def test_resume_with_one_kernel_left_fans_out_its_launches(self, tmp_path):
        from repro.analysis.experiments import run_fig9_fig10
        from repro.config import ExperimentConfig
        from repro.exec import InjectedFault, raise_plan

        experiment = ExperimentConfig(scale=0.02)
        kernels = ("stream", "hotspot", "mst")
        cfg = ExecutionConfig(
            jobs=1, use_cache=True, cache_dir=str(tmp_path),
            retries=0, fault_plan=raise_plan((2, 0)),
        )
        with pytest.raises(InjectedFault):
            run_fig9_fig10(kernels, experiment, exec_config=cfg)
        resumed = run_fig9_fig10(
            kernels, experiment,
            exec_config=cfg.with_(jobs=2, fault_plan=None, resume=True),
        )
        assert resumed.exec_meta["items"] == 1
        assert resumed.exec_meta["path"] == "serial"
        # The one kernel left gets the workers for its own launches.
        mst = resumed.comparisons[2]
        assert mst.kernel == "mst"
        TestLaunchFanOutEngages._assert_parallel(
            mst.tbpoint.exec_meta, workers=2
        )


class TestParallelMap:
    def test_preserves_input_order(self):
        items = list(range(20))
        assert parallel_map(_square, items, jobs=4) == [i * i for i in items]

    def test_serial_path_identical(self):
        items = list(range(7))
        assert parallel_map(_square, items, jobs=1) == parallel_map(
            _square, items, jobs=3
        )

    def test_unpicklable_falls_back_to_serial(self):
        items = [1, 2, 3]
        fn = lambda x: x + 1  # noqa: E731 — deliberately unpicklable
        assert parallel_map(fn, items, jobs=4) == [2, 3, 4]

    def test_single_item_stays_in_process(self):
        assert parallel_map(_square, [5], jobs=8) == [25]


def _square(x: int) -> int:
    return x * x
