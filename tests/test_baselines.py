"""Tests for the Full / Random / Ideal-SimPoint baselines."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.baselines import estimate_random, estimate_simpoint, run_full
from repro.baselines.simpoint import _bbv_matrix
from repro.config import GPUConfig
from repro.sim import UnitRecord

from tests.conftest import make_uniform_kernel
from repro.workloads.base import LaunchSpec, Segment, build_kernel


@pytest.fixture(scope="module")
def gpu():
    return GPUConfig(num_sms=4, warps_per_sm=16)


@pytest.fixture(scope="module")
def full_run(gpu):
    kernel = make_uniform_kernel(num_launches=3, blocks_per_launch=120)
    return run_full(kernel, gpu, unit_insts=2000)


class TestRunFull:
    def test_all_launches_simulated(self, gpu):
        kernel = make_uniform_kernel(num_launches=3)
        full = run_full(kernel, gpu)
        assert len(full.launch_results) == 3
        assert full.total_warp_insts > 0
        assert full.overall_ipc > 0

    def test_units_cover_instructions(self, full_run):
        assert sum(u.insts for u in full_run.units) == full_run.total_warp_insts

    def test_no_units_without_unit_insts(self, gpu):
        kernel = make_uniform_kernel(num_launches=1)
        full = run_full(kernel, gpu)
        assert full.units == []

    def test_per_sm_ipc_sum_close_to_machine_ipc(self, full_run):
        # Balanced SMs: the paper's per-SM sum tracks the machine IPC.
        assert full_run.per_sm_ipc_sum == pytest.approx(
            full_run.overall_ipc, rel=0.1
        )


class TestRandomBaseline:
    def test_sample_size_tracks_fraction(self, full_run):
        est = estimate_random(full_run, 0.10, np.random.default_rng(1))
        assert est.sample_size == pytest.approx(0.10, abs=0.05)
        assert est.num_selected == max(1, round(est.num_units * 0.10))

    def test_estimate_near_full_for_homogeneous(self, full_run):
        full_ipc = full_run.overall_ipc
        est = estimate_random(full_run, 0.2, np.random.default_rng(2))
        assert abs(est.overall_ipc - full_ipc) / full_ipc < 0.15

    def test_fraction_one_is_nearly_exact(self, full_run):
        est = estimate_random(full_run, 1.0, np.random.default_rng(3))
        assert est.overall_ipc == pytest.approx(full_run.overall_ipc, rel=0.02)
        assert est.sample_size == 1.0

    def test_rejects_bad_fraction(self, full_run):
        with pytest.raises(ValueError):
            estimate_random(full_run, 0.0)

    def test_rejects_unitless_run(self, gpu):
        kernel = make_uniform_kernel(num_launches=1)
        full = run_full(kernel, gpu)
        with pytest.raises(ValueError):
            estimate_random(full, 0.1)

    def test_seed_determines_selection(self, full_run):
        a = estimate_random(full_run, 0.1, np.random.default_rng(7))
        b = estimate_random(full_run, 0.1, np.random.default_rng(7))
        assert a.overall_ipc == b.overall_ipc


class TestSimpointBaseline:
    def test_estimate_near_full_for_homogeneous(self, full_run):
        est = estimate_simpoint(full_run, max_k=10, rng=np.random.default_rng(1))
        full_ipc = full_run.overall_ipc
        assert abs(est.overall_ipc - full_ipc) / full_ipc < 0.1
        assert 0 < est.sample_size <= 1

    def test_representatives_belong_to_clusters(self, full_run):
        est = estimate_simpoint(full_run, max_k=10, rng=np.random.default_rng(2))
        for c, rep in enumerate(est.representatives):
            if rep >= 0:
                assert est.labels[rep] == c

    def test_two_code_variants_detected(self, gpu):
        """Launches running different basic blocks produce BBV-separable
        units, so SimPoint needs at least two clusters."""
        a = LaunchSpec(
            segments=(Segment(count=96, insts_per_warp=32, mem_ratio=0.05),),
            warps_per_block=4,
            bb_offset=0,
            data_key=0,
        )
        b = LaunchSpec(
            segments=(
                Segment(
                    count=96,
                    insts_per_warp=32,
                    mem_ratio=0.3,
                    coalesce_mean=5.0,
                    pattern="gather",
                ),
            ),
            warps_per_block=4,
            bb_offset=9,
            data_key=1,
        )
        kernel = build_kernel("variants", "test", "regular", [a, b, a, b], 5)
        full = run_full(kernel, gpu, unit_insts=2000)
        est = estimate_simpoint(full, max_k=8, rng=np.random.default_rng(3))
        assert len({c for c in est.labels}) >= 2

    def test_bbv_matrix_normalized(self, full_run):
        mat = _bbv_matrix(full_run)
        assert mat.shape[0] == len(full_run.units)
        np.testing.assert_allclose(mat.sum(axis=1), 1.0)

    def test_bbv_matrix_pads_to_widest_unit(self):
        # Launches with different basic-block counts give BBVs of
        # different lengths; the matrix zero-pads the shorter ones.
        units = [
            UnitRecord(start_cycle=0, end_cycle=5, insts=3, bbv=np.array([1, 2])),
            UnitRecord(start_cycle=5, end_cycle=9, insts=4, bbv=np.array([0, 0, 4])),
        ]
        mat = _bbv_matrix(SimpleNamespace(units=units))
        np.testing.assert_allclose(mat, [[1 / 3, 2 / 3, 0.0], [0.0, 0.0, 1.0]])

    def test_rejects_unitless_run(self, gpu):
        kernel = make_uniform_kernel(num_launches=1)
        full = run_full(kernel, gpu)
        with pytest.raises(ValueError):
            estimate_simpoint(full)
