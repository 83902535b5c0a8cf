"""Equivalence of the compact engine's window loop (interned,
segment-batched) and the per-instruction reference loop.

The window loop's entire claim is *bit-identical results, faster* —
every test here compares the two engines on the same inputs and demands
exact equality of every observable ``LaunchResult`` field and sampler
callback stream.  Sampler callback streams are logged call by call
(arguments and return values) under TBPoint's ``RegionSampler`` on
registry representatives and under random launches and region layouts.
Recorded launches run on the per-instruction loop under either engine;
recorded runs are compared against plain window-loop runs of the same
launch instead.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import GPUConfig, SamplingConfig
from repro.core import RegionSampler, build_epochs, identify_regions, plan_inter_launch
from repro.profiler import profile_kernel, profile_launch
from repro.sim import FixedUnitRecorder, GPUSimulator, SimCounters
from repro.sim.sampler_hooks import NullSampler
from repro.trace import BlockTrace, LaunchTrace
from repro.trace.instruction import OP_ALU, OP_MEM_GLOBAL
from repro.workloads import ALL_KERNELS, get_workload
from repro.workloads.base import LaunchSpec, Segment, build_kernel

from tests.conftest import make_manual_launch, make_uniform_kernel, tile_block


def result_fingerprint(result):
    """Every observable field of a LaunchResult."""
    return (
        result.issued_warp_insts,
        result.wall_cycles,
        tuple(result.per_sm_issued),
        tuple(result.per_sm_busy_cycles),
        result.skipped_warp_insts,
        result.extra_cycles,
    )


class CallbackLog:
    """A :class:`DispatchSampler` wrapper that records every callback
    with its arguments and return value, in call order."""

    def __init__(self, inner):
        self.inner = inner
        self.log = []

    @property
    def skipped_warp_insts(self):
        return self.inner.skipped_warp_insts

    @property
    def extra_cycles(self):
        return self.inner.extra_cycles

    def _call(self, name, *args):
        out = getattr(self.inner, name)(*args)
        self.log.append((name, *args, out))
        return out

    def on_dispatch(self, tb_id, now, issued):
        return self._call("on_dispatch", tb_id, now, issued)

    def on_retire(self, tb_id, now, issued):
        return self._call("on_retire", tb_id, now, issued)

    def on_unit_start(self, now):
        return self._call("on_unit_start", now)

    def on_unit_complete(self, insts, cycles, now, issued):
        return self._call("on_unit_complete", insts, cycles, now, issued)

    def finalize(self, now, issued):
        return self._call("finalize", now, issued)


def run_both(launch, gpu=None, sampler=None):
    """Run both engines on ``launch``; return their fingerprints.

    ``sampler`` is a zero-argument factory of a fresh sampler per
    engine; its callback log (every call, arguments and return value)
    is appended to the fingerprint."""
    fps = []
    for engine in ("reference", "compact"):
        sim = GPUSimulator(gpu or GPUConfig(), engine=engine)
        hooks = None if sampler is None else CallbackLog(sampler())
        result = sim.run_launch(launch, sampler=hooks)
        fp = result_fingerprint(result)
        if hooks is not None:
            fp += (tuple(hooks.log),)
        fps.append(fp)
    return fps


class TestRegistryKernelEquivalence:
    """Acceptance: identical LaunchResult fields (issued insts, wall
    cycles, per-SM arrays) on registry kernels."""

    @pytest.mark.slow
    @pytest.mark.parametrize("name", ["black", "kmeans", "lbm"])
    def test_kernel_equivalent_plain(self, name):
        kernel = get_workload(name, scale=0.125)
        ref, compact = run_both(kernel.launches[0])
        assert ref == compact


@st.composite
def random_launches(draw, max_blocks=20):
    """Small launches diverse in block count, trace length, and memory
    intensity — enough shape variety to hit every issue-loop branch."""
    num_blocks = draw(st.integers(min_value=1, max_value=max_blocks))
    insts = draw(st.integers(min_value=8, max_value=48))
    mem_ratio = draw(st.sampled_from([0.0, 0.05, 0.2, 0.5]))
    warps = draw(st.integers(min_value=1, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    spec = LaunchSpec(
        segments=(
            Segment(count=num_blocks, insts_per_warp=insts,
                    mem_ratio=mem_ratio),
        ),
        warps_per_block=warps,
    )
    kernel = build_kernel("prop", "test", "regular", [spec], seed)
    return kernel.launches[0]


def _profiled(name):
    """(kernel, profile, inter-launch plan) at the paper-mix scale."""
    kernel = get_workload(name, scale=0.125)
    profile = profile_kernel(kernel)
    return kernel, profile, plan_inter_launch(profile, SamplingConfig())


def region_sampler_factory(launch, launch_profile, gpu):
    """Factory of TBPoint's sampler for one launch, as the pipeline
    builds it."""
    sampling = SamplingConfig()
    occupancy = gpu.system_occupancy(launch.warps_per_block)
    table = identify_regions(build_epochs(launch_profile, occupancy), sampling)
    return lambda: RegionSampler(
        region_of=table.region_of,
        block_warp_insts=launch_profile.warp_insts,
        config=sampling,
        occupancy=occupancy,
        cluster_of_region={r.region_id: r.cluster for r in table.regions},
    )


@lru_cache(maxsize=None)
def _first_representative(name):
    """(launch, launch profile) of the first launch TBPoint simulates
    for ``name`` at a small scale."""
    kernel = get_workload(name, scale=0.03125)
    profile = profile_kernel(kernel)
    lid = plan_inter_launch(profile, SamplingConfig()).simulated_launches[0]
    return kernel.launches[lid], profile.launches[lid]


#: Machines the per-kernel sampler oracle runs on: the default 48x14
#: and the paper's smaller 24x7 design point.
SAMPLED_GPUS = {
    "48x14": GPUConfig(),
    "24x7": GPUConfig(warps_per_sm=24, num_sms=7),
}


class TestSamplerCallbackStreams:
    """Every sampler callback — order, arguments (``now``, ``issued``)
    and return value — is identical across engines, so a sampler's
    decisions cannot depend on which engine ran it."""

    @pytest.mark.parametrize("gpu_id", list(SAMPLED_GPUS))
    @pytest.mark.parametrize("name", ALL_KERNELS)
    def test_region_sampler_every_kernel(self, name, gpu_id):
        gpu = SAMPLED_GPUS[gpu_id]
        launch, launch_profile = _first_representative(name)
        factory = region_sampler_factory(launch, launch_profile, gpu)
        ref, compact = run_both(launch, gpu=gpu, sampler=factory)
        assert ref[-1], "sampler saw no callbacks"
        assert ref == compact

    @pytest.mark.parametrize("num_sms", [2, 3, 4, 5, 6, 7])
    def test_simultaneous_retires_across_sms(self, num_sms):
        # Identical ALU-only blocks retire on every SM in the same
        # cycle, so each hook's exact ``issued`` depends on the
        # (cycle, SM) tie order across the other SMs' run-ahead tails;
        # alternating region runs make the sampler fast-forward.
        launch = make_manual_launch([40] * (6 * num_sms), mem_every=0)
        gpu = GPUConfig(num_sms=num_sms, warps_per_sm=4)
        n = launch.num_blocks
        region_of = np.array([(i // (2 * num_sms)) % 2 for i in range(n)])
        insts = profile_launch(launch).warp_insts
        occupancy = gpu.system_occupancy(launch.warps_per_block)
        factory = lambda: RegionSampler(
            region_of, insts,
            SamplingConfig(min_warm_units=2, min_region_epochs=1),
            occupancy,
        )
        ref, compact = run_both(launch, gpu=gpu, sampler=factory)
        assert len(ref[-1]) >= 2 * n
        assert ref == compact

    @pytest.mark.parametrize("name", ["hotspot", "mst", "lbm", "stream"])
    def test_region_sampler_on_representatives(self, name):
        kernel, profile, plan = _profiled(name)
        for gpu in (GPUConfig(), GPUConfig(warps_per_sm=24, num_sms=7)):
            for lid in plan.simulated_launches:
                launch = kernel.launches[lid]
                factory = region_sampler_factory(
                    launch, profile.launches[lid], gpu
                )
                ref, compact = run_both(launch, gpu=gpu, sampler=factory)
                assert ref[-1], "sampler saw no callbacks"
                assert ref == compact, (gpu.warps_per_sm, gpu.num_sms, lid)

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        launch=random_launches(),
        num_sms=st.sampled_from([1, 2, 3, 4]),
    )
    def test_null_sampler_streams(self, launch, num_sms):
        gpu = GPUConfig(num_sms=num_sms, warps_per_sm=8)
        ref, compact = run_both(launch, gpu=gpu, sampler=NullSampler)
        assert ref == compact

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        launch=random_launches(max_blocks=80),
        num_sms=st.sampled_from([1, 2, 3]),
        runs=st.lists(
            st.tuples(
                st.integers(min_value=-1, max_value=1),
                st.integers(min_value=1, max_value=40),
            ),
            min_size=1, max_size=4,
        ),
    )
    def test_region_sampler_streams_random_regions(self, launch, num_sms, runs):
        # Random runs of region labels make the sampler warm,
        # fast-forward and exit mid-launch, so skip decisions feed back
        # into dispatch.
        gpu = GPUConfig(num_sms=num_sms, warps_per_sm=4)
        n = launch.num_blocks
        labels = [label for label, length in runs for _ in range(length)]
        region_of = np.array([labels[i % len(labels)] for i in range(n)])
        insts = profile_launch(launch).warp_insts
        occupancy = gpu.system_occupancy(launch.warps_per_block)
        factory = lambda: RegionSampler(
            region_of, insts,
            SamplingConfig(min_warm_units=2, min_region_epochs=1),
            occupancy,
        )
        ref, compact = run_both(launch, gpu=gpu, sampler=factory)
        assert ref == compact


class TestRecordedRuns:
    """A recorded launch runs on the per-instruction loop and a plain one
    on the window loop, so recording must change no result field and no
    sampler callback; and the recorded units must tile the run."""

    @staticmethod
    def run_pair(launch, gpu, unit_insts, sampler=None):
        """(plain, recorded) fingerprints of ``launch`` on two fresh
        compact-engine simulators; asserts the units tile the run."""
        fps = []
        for recorder in (None, FixedUnitRecorder(unit_insts, launch.num_bbs)):
            hooks = None if sampler is None else CallbackLog(sampler())
            result = GPUSimulator(gpu).run_launch(
                launch, sampler=hooks, recorder=recorder
            )
            fp = result_fingerprint(result)
            if hooks is not None:
                fp += (tuple(hooks.log),)
            fps.append(fp)
            if recorder is None:
                assert result.counters is not None  # the window loop ran
                continue
            assert result.counters is None  # the per-instruction loop ran
            units = recorder.units
            assert units[0].start_cycle == 0
            for a, b in zip(units, units[1:]):
                assert a.end_cycle == b.start_cycle
                assert a.insts == unit_insts
            assert units[-1].end_cycle == result.wall_cycles
            assert sum(u.insts for u in units) == result.issued_warp_insts
            assert all(int(u.bbv.sum()) == u.insts for u in units)
        return fps

    @pytest.mark.parametrize("name", ["bfs", "hotspot", "stream"])
    def test_recorded_equals_plain(self, name):
        kernel = get_workload(name, scale=0.0625)
        for launch in kernel.launches[:2]:
            plain, recorded = self.run_pair(launch, GPUConfig(), 997)
            assert plain == recorded

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        launch=random_launches(),
        unit_insts=st.integers(min_value=1, max_value=64),
        num_sms=st.sampled_from([1, 2, 4]),
    )
    def test_random_units_tile_the_run(self, launch, unit_insts, num_sms):
        gpu = GPUConfig(num_sms=num_sms, warps_per_sm=8)
        plain, recorded = self.run_pair(launch, gpu, unit_insts)
        assert plain == recorded

    def test_sampler_with_recorder(self):
        kernel, profile, plan = _profiled("hotspot")
        lid = plan.simulated_launches[0]
        launch = kernel.launches[lid]
        gpu = GPUConfig()
        factory = region_sampler_factory(launch, profile.launches[lid], gpu)
        plain, recorded = self.run_pair(launch, gpu, 997, sampler=factory)
        assert plain[-1], "sampler saw no callbacks"
        assert plain == recorded


class TestSampledWindowLoop:
    """A sampler that changes nothing must not change how the compact
    engine runs: sampled launches take the same window loop, with the
    same per-SM run-ahead, as unsampled ones."""

    ENGAGEMENT = (
        "events_popped", "heap_pushes", "segment_hits", "segment_insts",
    )

    def test_no_skip_sampler_keeps_full_run_counters(self):
        launch = get_workload("mst", scale=0.125).launches[0]
        n = launch.num_blocks
        gpu = GPUConfig()
        sim = GPUSimulator(gpu)
        plain = sim.run_launch(launch)
        sampler = RegionSampler(
            np.full(n, -1), profile_launch(launch).warp_insts,
            occupancy=gpu.system_occupancy(launch.warps_per_block),
        )
        sampled = sim.run_launch(launch, sampler=sampler)
        assert sampled.skipped_warp_insts == 0
        assert result_fingerprint(sampled) == result_fingerprint(plain)
        for name in self.ENGAGEMENT:
            assert getattr(sampled.counters, name) == getattr(
                plain.counters, name
            ), name

    @pytest.mark.parametrize("kind", ["null", "region-no-skip"])
    @pytest.mark.parametrize("name", ALL_KERNELS)
    def test_every_kernel_keeps_full_run_counters(self, name, kind):
        launch, launch_profile = _first_representative(name)
        gpu = GPUConfig()
        sim = GPUSimulator(gpu)
        plain = sim.run_launch(launch)
        if kind == "null":
            sampler = NullSampler()
        else:
            sampler = RegionSampler(
                np.full(launch.num_blocks, -1), launch_profile.warp_insts,
                occupancy=gpu.system_occupancy(launch.warps_per_block),
            )
        sampled = sim.run_launch(launch, sampler=sampler)
        assert sampled.skipped_warp_insts == 0
        assert result_fingerprint(sampled) == result_fingerprint(plain)
        for counter in self.ENGAGEMENT:
            assert getattr(sampled.counters, counter) == getattr(
                plain.counters, counter
            ), counter


class TestDegenerateTraces:
    """Unvalidated traces may carry a DRAM opcode with zero transactions
    (static stall 0) — the one case that can break the compact engine's
    segment prefix-sum reasoning, so it must be detected and excluded."""

    @staticmethod
    def _degenerate_launch(num_blocks=6, n=24):
        def factory(tb_id: int) -> BlockTrace:
            op = np.full(n, OP_ALU, dtype=np.uint8)
            op[::3] = OP_MEM_GLOBAL
            mem_req = np.zeros(n, dtype=np.uint8)
            # Half the DRAM ops carry a real transaction, half carry
            # none (degenerate: they stall 0 cycles statically).
            mem_req[::6] = 1
            addr = np.arange(n, dtype=np.int64) * 128 + tb_id * 4096
            return tile_block(
                tb_id, 2, op, np.full(n, 32), mem_req, addr,
                np.full(n, 128), validate=False,
            )

        return LaunchTrace(
            kernel_name="degenerate",
            launch_id=0,
            num_blocks=num_blocks,
            warps_per_block=2,
            factory=factory,
            num_bbs=1,
        )

    def test_zero_stall_mem_ops_equivalent(self):
        launch = self._degenerate_launch()
        gpu = GPUConfig(num_sms=2, warps_per_sm=8)
        ref, compact = run_both(launch, gpu=gpu)
        assert ref == compact

    def test_zero_stall_dense_blocks_equivalent(self):
        launch = self._degenerate_launch(num_blocks=20, n=40)
        ref, compact = run_both(launch, gpu=GPUConfig(num_sms=3))
        assert ref == compact


class TestIdleSmBusyCycles:
    """SMs that never issued an instruction must report 0 busy cycles,
    not the phantom ``last + 1 = 1`` the per-SM IPC sum used to see."""

    @pytest.mark.parametrize("engine", GPUSimulator.ENGINES)
    def test_idle_sms_report_zero(self, engine):
        launch = make_manual_launch([20, 20])
        result = GPUSimulator(
            GPUConfig(num_sms=14), engine=engine
        ).run_launch(launch)
        for issued, busy in zip(result.per_sm_issued, result.per_sm_busy_cycles):
            if issued == 0:
                assert busy == 0
            else:
                assert busy > 0
        assert result.per_sm_busy_cycles.count(0) == 12


class TestSimCounters:
    def test_compact_engine_attaches_counters(self):
        kernel = make_uniform_kernel(num_launches=1, blocks_per_launch=32)
        result = GPUSimulator(GPUConfig(num_sms=2)).run_launch(
            kernel.launches[0]
        )
        c = result.counters
        assert isinstance(c, SimCounters)
        assert c.events_popped > 0
        assert c.heap_pushes > 0
        # Identical blocks: every dispatch after the first hits the
        # interning cache.
        assert c.interning_hits > 0
        assert c.interning_misses >= 1
        d = c.as_dict()
        assert d["events_popped"] == c.events_popped

    def test_reference_engine_has_no_counters(self):
        kernel = make_uniform_kernel(num_launches=1, blocks_per_launch=8)
        result = GPUSimulator(
            GPUConfig(num_sms=2), engine="reference"
        ).run_launch(kernel.launches[0])
        assert result.counters is None

    def test_recorded_launches_take_per_instruction_loop(self):
        # The compact engine delegates a recorded launch to the
        # per-instruction loop, which attaches no counters.
        launch = make_uniform_kernel(num_launches=1, blocks_per_launch=8).launches[0]
        recorded = GPUSimulator(GPUConfig(num_sms=2)).run_launch(
            launch, recorder=FixedUnitRecorder(50, launch.num_bbs)
        )
        assert recorded.counters is None

    def test_segment_batching_engages_when_unsaturated(self):
        # One block of one warp per SM: a lone resident warp is the
        # canonical provably-equivalent segment-batching case.
        kernel = make_uniform_kernel(
            num_launches=1, blocks_per_launch=2, warps_per_block=1,
            insts_per_warp=64, mem_ratio=0.05,
        )
        result = GPUSimulator(GPUConfig(num_sms=2)).run_launch(
            kernel.launches[0]
        )
        c = result.counters
        assert c.segment_hits > 0
        assert c.segment_insts >= 2 * c.segment_hits
