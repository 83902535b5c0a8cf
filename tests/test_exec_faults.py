"""Chaos suite: the execution layer under deterministic fault injection.

The fault-tolerance contract (DESIGN.md §9): under every injected
failure mode — worker crash, task exception, hung task, broken pool,
corrupt cache entry — ``parallel_map`` and the sweep drivers built on it
produce results bit-identical to a clean serial run, and a sweep killed
mid-run resumes from its journal without recomputing completed kernels.

Fault plans are seeded scripts (``repro.exec.faults``) that fire at
exact ``(task index, attempt)`` coordinates, so every scenario here is
reproducible; nothing in this file depends on timing except through the
injected faults themselves.

The machine may report a single CPU, which would (correctly) degrade
every map to the serial path; tests that need the *pool* path patch
``cpu_count`` the way ``tests/test_exec_parallel.py`` does.
"""

from __future__ import annotations

import multiprocessing
import time

import pytest

from repro.config import ExperimentConfig, GPUConfig
from repro.core.pipeline import run_tbpoint
from repro.exec import (
    ExecutionConfig,
    InjectedFault,
    SweepJournal,
    crash_plan,
    hang_plan,
    parallel_map,
    raise_plan,
)
from repro.exec.faults import CORRUPT_CACHE, CRASH, RAISE, Fault, FaultPlan
from repro.workloads.base import LaunchSpec, Segment, build_kernel

from tests.test_exec_parallel import _fingerprint

GPU = GPUConfig(num_sms=2, warps_per_sm=8)

#: Retry budget used throughout: 2 extra pool attempts then serial.
RETRIES = 2


@pytest.fixture
def four_cpus(monkeypatch):
    """Force the pool path on single-CPU machines."""
    import repro.exec.pool as pool

    monkeypatch.setattr(pool.os, "cpu_count", lambda: 4)


def _cfg(**kwargs) -> ExecutionConfig:
    kwargs.setdefault("jobs", 4)
    kwargs.setdefault("use_cache", False)
    kwargs.setdefault("retries", RETRIES)
    return ExecutionConfig(**kwargs)


def _square(x: int) -> int:
    return x * x


def _slow_square(x: int) -> int:
    time.sleep(0.3)
    return x * x


ITEMS = list(range(8))
WANT = [i * i for i in ITEMS]


# ----------------------------------------------------------------------
# FaultPlan as pure data (PR 9: plans cross a JSON file into a daemon)
# ----------------------------------------------------------------------
class TestFaultPlanJSON:
    PLAN = FaultPlan(
        faults=(
            Fault(CRASH, 0, 0),
            Fault(RAISE, 3, 1),
            Fault("hang", 2, 0, duration=1.5),
            Fault(CORRUPT_CACHE, 1, 2),
        ),
        cache_dir="/tmp/somewhere",
    )

    def test_round_trips_through_json(self):
        import json

        data = json.loads(json.dumps(self.PLAN.as_dict()))
        assert FaultPlan.from_dict(data) == self.PLAN

    def test_parent_pid_preserved_verbatim(self):
        """The crash guard protects the plan's *builder*, not whoever
        deserialized it — a daemon loading a test's plan must keep the
        test's PID so CRASH faults still fire in the daemon's workers
        but never in the degraded in-parent path of the builder."""
        data = self.PLAN.as_dict()
        data["parent_pid"] = 12345
        assert FaultPlan.from_dict(data).parent_pid == 12345

    def test_from_dict_fills_defaults(self):
        plan = FaultPlan.from_dict(
            {"faults": [{"kind": "raise", "index": 2}], "parent_pid": 7}
        )
        assert plan.faults == (Fault(RAISE, 2, 0),)
        assert plan.cache_dir is None


# ----------------------------------------------------------------------
# parallel_map under every fault mode
# ----------------------------------------------------------------------
class TestFaultModes:
    def test_worker_crash_recovers(self, four_cpus):
        """One worker dies: it is respawned and the task it was running
        retried — that task alone, though slow neighbours are still in
        flight when it dies.  Results unchanged."""
        meta: dict = {}
        cfg = _cfg(fault_plan=crash_plan(3))
        assert parallel_map(_slow_square, ITEMS, 4, meta, cfg) == WANT
        assert meta["path"] == "parallel"
        assert meta["pool_respawns"] == 1
        assert meta["retries"] == 1
        assert meta["serial_fallback"] == []

    def test_task_exception_retried(self, four_cpus):
        """A task failing twice succeeds on its third attempt."""
        meta: dict = {}
        cfg = _cfg(fault_plan=raise_plan((2, 0), (2, 1)))
        assert parallel_map(_square, ITEMS, 4, meta, cfg) == WANT
        assert meta["retries"] >= 2
        assert meta["pool_respawns"] == 0

    def test_hung_task_times_out_and_retries(self, four_cpus):
        """A stalled attempt trips the per-task timeout: the hung
        worker is killed and replaced, the task retried, results
        unchanged."""
        meta: dict = {}
        cfg = _cfg(task_timeout=0.5, fault_plan=hang_plan(5, duration=3.0))
        assert parallel_map(_square, ITEMS, 4, meta, cfg) == WANT
        assert meta["timed_out"] == [5]
        assert meta["pool_respawns"] == 1

    def test_repeated_worker_killer_degrades_to_serial(self, four_cpus):
        """A task that kills its worker on every pool attempt runs once
        in-parent (where the crash fault, like a real worker OOM,
        cannot reach) and still produces its result.  Slow tasks keep
        its neighbours in flight while it kills workers."""
        plan = FaultPlan(
            faults=tuple(Fault(CRASH, 1, a) for a in range(1 + RETRIES))
        )
        meta: dict = {}
        cfg = _cfg(fault_plan=plan)
        assert parallel_map(_slow_square, ITEMS, 4, meta, cfg) == WANT
        # Each death is charged to the killer alone, so it is the only
        # task that degrades to serial.
        assert meta["serial_fallback"] == [1]
        assert meta["pool_respawns"] >= 1 + RETRIES

    def test_queued_tasks_never_time_out(self, four_cpus):
        """A task's deadline starts when a worker takes it: 8 tasks of
        0.3 s on 2 workers wait up to 1.2 s in the queue, yet none
        times out at a 0.5 s per-task timeout."""
        meta: dict = {}
        cfg = _cfg(jobs=2, task_timeout=0.5)
        assert parallel_map(_slow_square, ITEMS, 2, meta, cfg) == WANT
        assert meta["path"] == "parallel"
        assert meta["timed_out"] == []
        assert meta["pool_respawns"] == 0
        assert meta["attempts"] == len(ITEMS)

    @pytest.mark.parametrize(
        "plan",
        [crash_plan(2), hang_plan(2, duration=30.0)],
        ids=["crash", "hang"],
    )
    def test_no_worker_outlives_the_map(self, four_cpus, plan):
        """Every worker — the respawned ones and the one left hung — is
        reaped before parallel_map returns."""
        meta: dict = {}
        cfg = _cfg(task_timeout=0.5, fault_plan=plan)
        assert parallel_map(_square, ITEMS, 4, meta, cfg) == WANT
        assert meta["path"] == "parallel"
        assert multiprocessing.active_children() == []

    def test_unpicklable_item_serial_fallback(self, four_cpus):
        """A stray unpicklable item costs one serial fallback, not the
        whole map (the probe checks only fn + the first item)."""
        items = [1, 2, 3, (lambda: 1), 5]  # noqa: E731
        meta: dict = {}
        out = parallel_map(str, items, 4, meta, _cfg())
        assert out[:3] == ["1", "2", "3"] and out[4] == "5"
        assert "lambda" in out[3]
        assert meta["path"] == "parallel"
        assert meta["serial_fallback"] == [3]
        assert meta["timed_out"] == []

    def test_exhausted_fault_propagates(self, four_cpus):
        """A task that raises on every attempt *including* the final
        serial one is a genuine failure: it propagates instead of
        hanging or fabricating a result."""
        plan = raise_plan(*[(0, a) for a in range(2 + RETRIES)])
        with pytest.raises(InjectedFault):
            parallel_map(_square, ITEMS, 4, {}, _cfg(fault_plan=plan))

    def test_completed_tasks_reported_before_fatal_failure(self, four_cpus):
        """on_result fires per completion, so work finished before a
        fatal failure is already checkpointed (what --resume recovers).
        The fatal task is the *last* index, so earlier tasks complete
        (and are reported) before it exhausts its attempts."""
        fatal = len(ITEMS) - 1
        plan = raise_plan(*[(fatal, a) for a in range(2 + RETRIES)])
        seen: dict[int, int] = {}
        with pytest.raises(InjectedFault):
            parallel_map(
                _square, ITEMS, 4, {}, _cfg(fault_plan=plan),
                on_result=lambda i, r: seen.__setitem__(i, r),
            )
        assert seen  # some neighbours completed and were reported
        assert all(seen[i] == i * i for i in seen)
        assert fatal not in seen

    def test_serial_path_honours_retries(self):
        """Without a pool (1 CPU, no patch) the same retry budget
        applies in-process — fault behaviour does not depend on whether
        a pool was available."""
        meta: dict = {}
        cfg = _cfg(jobs=1, fault_plan=raise_plan((2, 0)))
        assert parallel_map(_square, ITEMS, 1, meta, cfg) == WANT
        assert meta["path"] == "serial"
        assert meta["retries"] == 1

    def test_fault_free_plan_changes_nothing(self, four_cpus):
        meta: dict = {}
        assert parallel_map(_square, ITEMS, 4, meta, _cfg(fault_plan=FaultPlan())) == WANT
        assert meta["attempts"] == len(ITEMS)
        assert meta["retries"] == 0


# ----------------------------------------------------------------------
# Determinism through the pipeline: faulted parallel == clean serial
# ----------------------------------------------------------------------
def _diverse_kernel():
    """Four behaviourally distinct launches so inter-launch clustering
    keeps ≥4 representatives — enough for the pool path to engage."""
    specs = [
        LaunchSpec(
            segments=(
                Segment(count=blocks, insts_per_warp=insts, mem_ratio=mem),
            ),
            warps_per_block=2,
        )
        for blocks, insts, mem in (
            (8, 16, 0.05), (16, 32, 0.3), (12, 24, 0.1), (20, 48, 0.02)
        )
    ]
    return build_kernel("chaos", "test", "regular", specs, 5)


class TestPipelineDeterminismUnderFaults:
    def test_run_tbpoint_bit_identical_under_faults(self, four_cpus):
        kernel = _diverse_kernel()
        clean = run_tbpoint(
            kernel, GPU, exec_config=ExecutionConfig(jobs=1, use_cache=False)
        )
        plan = FaultPlan(
            faults=(
                Fault(CRASH, 1, 0),
                Fault(RAISE, 2, 0),
                Fault(RAISE, 2, 1),
            )
        )
        chaotic = run_tbpoint(kernel, GPU, exec_config=_cfg(fault_plan=plan))
        assert _fingerprint(chaotic) == _fingerprint(clean)
        if chaotic.exec_meta["path"] == "parallel":
            assert chaotic.exec_meta["retries"] >= 1


# ----------------------------------------------------------------------
# Sweep-level chaos: run_fig9_fig10 + journal + resume
# ----------------------------------------------------------------------
SWEEP_KERNELS = ("stream", "kmeans", "hotspot", "conv")
EXPERIMENT = ExperimentConfig(scale=0.0625)


def _sweep_fingerprint(summary):
    return [
        (
            c.kernel,
            c.full_ipc,
            c.tbpoint.overall_ipc,
            c.tbpoint.sample_size,
            c.simpoint.overall_ipc,
            c.random.overall_ipc,
            c.total_warp_insts,
        )
        for c in summary.comparisons
    ]


@pytest.mark.slow
class TestSweepChaos:
    @pytest.fixture(scope="class")
    def clean_sweep(self):
        from repro.analysis.experiments import run_fig9_fig10

        return run_fig9_fig10(
            SWEEP_KERNELS, EXPERIMENT,
            exec_config=ExecutionConfig(jobs=1, use_cache=False),
        )

    def test_sweep_bit_identical_under_mixed_faults(
        self, four_cpus, tmp_path, clean_sweep
    ):
        """Crash one kernel's worker, make another flaky, corrupt the
        profile cache mid-sweep: the summary must equal the clean one."""
        from repro.analysis.experiments import run_fig9_fig10

        cache_dir = str(tmp_path / "cache")
        plan = FaultPlan(
            faults=(
                Fault(CRASH, 0, 0),
                Fault(RAISE, 1, 0),
                Fault(CORRUPT_CACHE, 2, 0),
            ),
            cache_dir=cache_dir,
        )
        chaotic = run_fig9_fig10(
            SWEEP_KERNELS, EXPERIMENT,
            exec_config=_cfg(
                jobs=2, use_cache=True, cache_dir=cache_dir,
                fault_plan=plan,
            ),
        )
        assert _sweep_fingerprint(chaotic) == _sweep_fingerprint(clean_sweep)

    def test_killed_sweep_resumes_without_recompute(
        self, four_cpus, tmp_path, clean_sweep
    ):
        """A fault that exhausts every attempt of one kernel kills the
        sweep; rerunning with resume recovers the journaled kernels and
        computes only the rest (verified by exec_meta task counters)."""
        from repro.analysis.experiments import run_fig9_fig10

        cache_dir = str(tmp_path / "cache")
        fatal = raise_plan(*[(3, a) for a in range(2 + RETRIES)])
        cfg = _cfg(
            jobs=2, use_cache=True, cache_dir=cache_dir, fault_plan=fatal,
        )
        with pytest.raises(InjectedFault):
            run_fig9_fig10(SWEEP_KERNELS, EXPERIMENT, exec_config=cfg)

        from repro.config import GPUConfig as _GPU
        from repro.config import SamplingConfig

        journal = SweepJournal.for_sweep(
            "fig9_fig10",
            (SWEEP_KERNELS, EXPERIMENT, _GPU(), SamplingConfig()),
            tmp_path / "cache" / "journals",
        )
        completed = journal.load()
        assert completed  # the kill landed mid-sweep, after some work
        assert "conv" not in completed  # the fatal task never finished

        resumed = run_fig9_fig10(
            SWEEP_KERNELS, EXPERIMENT,
            exec_config=cfg.with_(fault_plan=None, resume=True),
        )
        assert _sweep_fingerprint(resumed) == _sweep_fingerprint(clean_sweep)
        # Journaled kernels were not recomputed: the resumed run's map
        # saw only the missing tasks.
        assert resumed.exec_meta["items"] == len(SWEEP_KERNELS) - len(completed)

    def test_corrupt_cache_entries_recomputed_mid_sweep(
        self, four_cpus, tmp_path, clean_sweep
    ):
        """Cache corruption injected *between* runs: a second sweep over
        poisoned entries quarantines and recomputes, identically."""
        from repro.analysis.experiments import run_fig9_fig10
        from repro.exec.cache import ProfileCache

        cache_dir = str(tmp_path / "cache")
        cfg = _cfg(jobs=2, use_cache=True, cache_dir=cache_dir)
        first = run_fig9_fig10(SWEEP_KERNELS, EXPERIMENT, exec_config=cfg)
        assert _sweep_fingerprint(first) == _sweep_fingerprint(clean_sweep)

        cache = ProfileCache(cache_dir)
        assert cache.entries()
        for path in cache.entries():
            data = path.read_bytes()
            path.write_bytes(data[: len(data) // 3])

        again = run_fig9_fig10(SWEEP_KERNELS, EXPERIMENT, exec_config=cfg)
        assert _sweep_fingerprint(again) == _sweep_fingerprint(clean_sweep)


@pytest.mark.slow
class TestScalingResume:
    def test_scaling_sweep_resumes(self, tmp_path):
        """run_scaling journals per scale and resumes identically."""
        from repro.analysis.scaling import run_scaling

        cache_dir = str(tmp_path / "cache")
        scales = (0.0625, 0.125)
        cfg = ExecutionConfig(jobs=1, use_cache=True, cache_dir=cache_dir)
        clean = run_scaling("stream", scales=scales, exec_config=cfg)

        resumed = run_scaling(
            "stream", scales=scales, exec_config=cfg.with_(resume=True)
        )
        assert resumed == clean  # ScalePoint is a frozen dataclass
