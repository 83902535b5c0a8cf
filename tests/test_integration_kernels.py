"""End-to-end integration checks for every Table VI kernel.

Each kernel runs at a tiny scale through the full TBPoint pipeline
against a full-simulation reference, verifying the invariants that must
hold regardless of calibration: instruction conservation, bounded
sample size, and sane accuracy.
"""

import pytest

from repro.analysis.launch_accuracy import launch_accuracy
from repro.baselines import run_full
from repro.config import GPUConfig
from repro.core.pipeline import run_tbpoint
from repro.profiler import profile_kernel
from repro.workloads import ALL_KERNELS, get_workload

pytestmark = pytest.mark.slow

SCALE = 0.02
GPU = GPUConfig(num_sms=4, warps_per_sm=16)


@pytest.fixture(scope="module", params=ALL_KERNELS)
def kernel_run(request):
    name = request.param
    kernel = get_workload(name, scale=SCALE, seed=99)
    profile = profile_kernel(kernel)
    full = run_full(kernel, GPU)
    tbp = run_tbpoint(kernel, GPU, profile=profile)
    return name, kernel, profile, full, tbp


class TestEveryKernel:
    def test_instruction_conservation(self, kernel_run):
        name, kernel, profile, full, tbp = kernel_run
        assert full.total_warp_insts == profile.total_warp_insts
        assert tbp.estimate.total_warp_insts == profile.total_warp_insts
        for launch_id, result in tbp.rep_results.items():
            assert (
                result.total_warp_insts
                == profile.launches[launch_id].total_warp_insts
            ), f"{name} launch {launch_id}"

    def test_sample_size_bounds(self, kernel_run):
        name, _, _, _, tbp = kernel_run
        assert 0 < tbp.sample_size <= 1.0, name

    def test_estimate_in_reasonable_range(self, kernel_run):
        name, _, _, full, tbp = kernel_run
        err = abs(tbp.overall_ipc - full.overall_ipc) / full.overall_ipc
        # Generous bound at tiny scale; the calibrated bench scale does
        # far better (see EXPERIMENTS.md).
        assert err < 0.20, f"{name}: {err:.2%}"

    def test_every_cluster_has_a_result(self, kernel_run):
        name, _, _, _, tbp = kernel_run
        assert set(tbp.plan.simulated_launches) == set(tbp.rep_results)

    def test_per_launch_predictions_positive(self, kernel_run):
        name, _, _, full, tbp = kernel_run
        acc = launch_accuracy(tbp.estimate, full)
        assert (acc.errors >= 0).all()
        assert acc.max_error < 0.6, name
        assert len(acc.errors) == len(full.launch_results)

    def test_skip_breakdown_consistent(self, kernel_run):
        name, _, profile, _, tbp = kernel_run
        inter = tbp.inter_skipped_insts
        intra = tbp.intra_skipped_insts
        simulated = tbp.estimate.simulated_insts
        assert inter + intra + simulated == profile.total_warp_insts, name
