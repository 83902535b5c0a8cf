"""Integration tests for the end-to-end TBPoint pipeline."""

import pytest

from repro.baselines import run_full
from repro.config import GPUConfig, SamplingConfig
from repro.core.pipeline import run_tbpoint
from repro.profiler import profile_kernel
from repro.sim import GPUSimulator

from tests.conftest import make_two_phase_kernel, make_uniform_kernel


@pytest.fixture(scope="module")
def gpu():
    return GPUConfig(num_sms=4, warps_per_sm=16)


@pytest.fixture(scope="module")
def homogeneous():
    # 4 identical launches of uniform blocks: the best case for both
    # sampling levels.
    return make_uniform_kernel(
        num_launches=4, blocks_per_launch=160, warps_per_block=4
    )


class TestRunTBPoint:
    def test_estimate_close_to_full(self, gpu, homogeneous):
        full = run_full(homogeneous, gpu)
        tbp = run_tbpoint(homogeneous, gpu)
        err = abs(tbp.overall_ipc - full.overall_ipc) / full.overall_ipc
        assert err < 0.08

    def test_sample_smaller_than_full(self, gpu, homogeneous):
        tbp = run_tbpoint(homogeneous, gpu)
        assert 0 < tbp.sample_size < 0.8

    def test_instruction_conservation(self, gpu, homogeneous):
        """Simulated + skipped instructions of a representative launch
        equal its functional profile count exactly."""
        profile = profile_kernel(homogeneous)
        tbp = run_tbpoint(homogeneous, gpu, profile=profile)
        for launch_id, result in tbp.rep_results.items():
            assert (
                result.total_warp_insts
                == profile.launches[launch_id].total_warp_insts
            )

    def test_estimate_totals_cover_whole_kernel(self, gpu, homogeneous):
        profile = profile_kernel(homogeneous)
        tbp = run_tbpoint(homogeneous, gpu, profile=profile)
        assert tbp.estimate.total_warp_insts == sum(
            p.total_warp_insts for p in profile.launches
        )

    def test_inter_only(self, gpu, homogeneous):
        tbp = run_tbpoint(homogeneous, gpu, use_intra=False)
        assert tbp.intra_skipped_insts == 0
        assert not tbp.region_tables
        # One cluster -> one simulated launch out of four.
        assert tbp.sample_size == pytest.approx(0.25, rel=0.05)

    def test_intra_only(self, gpu, homogeneous):
        tbp = run_tbpoint(homogeneous, gpu, use_inter=False)
        assert tbp.inter_skipped_insts == 0
        # Every launch simulated, each intra-sampled.
        assert len(tbp.rep_results) == 4

    def test_orthogonality(self, gpu, homogeneous):
        """The paper: inter- and intra-launch sampling are orthogonal —
        both enabled skips at least as much as either alone."""
        both = run_tbpoint(homogeneous, gpu)
        inter = run_tbpoint(homogeneous, gpu, use_intra=False)
        assert both.sample_size <= inter.sample_size + 1e-9

    def test_two_phase_kernel_regions(self, gpu):
        kernel = make_two_phase_kernel(blocks_per_segment=120)
        tbp = run_tbpoint(kernel, gpu)
        table = tbp.region_tables[0]
        assert table.num_regions >= 2

    def test_skip_breakdown_sums_to_one(self, gpu, homogeneous):
        tbp = run_tbpoint(homogeneous, gpu)
        inter, intra = tbp.skip_breakdown()
        if tbp.inter_skipped_insts + tbp.intra_skipped_insts:
            assert inter + intra == pytest.approx(1.0)

    def test_deterministic(self, gpu, homogeneous):
        a = run_tbpoint(homogeneous, gpu)
        b = run_tbpoint(homogeneous, gpu)
        assert a.overall_ipc == b.overall_ipc
        assert a.sample_size == b.sample_size

    def test_profile_reuse_gives_same_answer(self, gpu, homogeneous):
        profile = profile_kernel(homogeneous)
        a = run_tbpoint(homogeneous, gpu, profile=profile)
        b = run_tbpoint(homogeneous, gpu)
        assert a.overall_ipc == pytest.approx(b.overall_ipc)

    def test_hardware_independence_of_profile(self, homogeneous):
        """Section V-C: the same functional profile serves different
        hardware configurations; only clustering/simulation change."""
        profile = profile_kernel(homogeneous)
        for warps, sms in ((8, 2), (16, 4), (32, 4)):
            gpu = GPUConfig(num_sms=sms, warps_per_sm=warps)
            tbp = run_tbpoint(homogeneous, gpu, profile=profile)
            assert tbp.overall_ipc > 0

    def test_feature_mask_forwarded(self, gpu, homogeneous):
        tbp = run_tbpoint(
            homogeneous, gpu, feature_mask=(True, True, False, False)
        )
        assert tbp.plan.features.shape[1] == 2


class TestMachineIsTheOnlyInput:
    """A run's simulator is the process's warm one for ``gpu``; no
    caller passes one.  Everything after ``gpu`` (``run_full``) or
    ``sampling`` (``run_tbpoint``) is keyword-only, so a stale
    positional simulator fails loudly instead of landing in the next
    parameter."""

    @pytest.mark.parametrize(
        "call",
        ["full-positional", "full-keyword", "tbpoint-positional", "tbpoint-keyword"],
    )
    def test_simulator_argument_raises_type_error(self, gpu, homogeneous, call):
        sim = GPUSimulator(gpu)
        with pytest.raises(TypeError):
            if call == "full-positional":
                run_full(homogeneous, gpu, sim)
            elif call == "full-keyword":
                run_full(homogeneous, gpu, simulator=sim)
            elif call == "tbpoint-positional":
                run_tbpoint(homogeneous, gpu, SamplingConfig(), sim)
            else:
                run_tbpoint(homogeneous, gpu, simulator=sim)


class TestNoSamplingCorner:
    """use_inter=False + use_intra=False degenerates to full simulation:
    every launch is its own representative and nothing is skipped."""

    def test_matches_full_simulation_exactly(self, gpu, homogeneous):
        full = run_full(homogeneous, gpu)
        tbp = run_tbpoint(
            homogeneous, gpu, use_inter=False, use_intra=False
        )
        assert tbp.overall_ipc == full.overall_ipc
        assert tbp.sample_size == 1.0
        assert len(tbp.rep_results) == homogeneous.num_launches

    def test_nothing_skipped(self, gpu, homogeneous):
        tbp = run_tbpoint(
            homogeneous, gpu, use_inter=False, use_intra=False
        )
        assert tbp.inter_skipped_insts == 0
        assert tbp.intra_skipped_insts == 0
        assert tbp.skip_breakdown() == (0.0, 0.0)
        assert not tbp.region_tables
