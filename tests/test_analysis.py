"""Tests for the analysis layer: classification, reports, drivers."""

import pytest

from repro.analysis.experiments import (
    FIG5_CONFIGS,
    TABLE1_GPU_MS,
    run_fig5_model,
    run_table1,
)
from repro.analysis.kernel_types import (
    block_size_ratios,
    classify_kernel,
    launch_is_regular,
)
from repro.analysis.report import render_series, render_table
from repro.profiler import profile_kernel
from repro.workloads import get_workload

from tests.conftest import make_two_phase_kernel, make_uniform_kernel


class TestKernelTypes:
    def test_uniform_kernel_regular(self):
        profile = profile_kernel(make_uniform_kernel())
        assert classify_kernel(profile) == "regular"
        assert all(launch_is_regular(p) for p in profile.launches)

    def test_lognormal_kernel_irregular(self):
        kernel = make_uniform_kernel(size_cov=0.5, name="scattered")
        profile = profile_kernel(kernel)
        assert classify_kernel(profile) == "irregular"

    def test_quantized_levels_regular(self):
        """Fig. 8(a): few flat size levels count as regular even with a
        high CoV."""
        two_phase = make_two_phase_kernel(blocks_per_segment=400)
        profile = profile_kernel(two_phase)
        # two distinct-but-flat block sizes -> quantized -> regular
        assert all(launch_is_regular(p) for p in profile.launches)

    def test_block_size_ratios_concatenated(self):
        kernel = make_uniform_kernel(num_launches=2, blocks_per_launch=50)
        profile = profile_kernel(kernel)
        ratios = block_size_ratios(profile)
        assert len(ratios) == 100
        assert ratios.mean() == pytest.approx(1.0)

    @pytest.mark.parametrize("name,expected", [
        ("hotspot", "regular"), ("bfs", "irregular"), ("mst", "irregular"),
    ])
    def test_benchmark_classification(self, name, expected):
        profile = profile_kernel(get_workload(name, scale=0.05))
        assert classify_kernel(profile) == expected


class TestReport:
    def test_render_table_alignment(self):
        out = render_table(["a", "bb"], [(1, 2.5), (30, 4.0)], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_render_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [(1,)])

    def test_render_series_subsamples(self):
        out = render_series("s", list(range(100)), [float(i) for i in range(100)],
                            max_points=5)
        assert out.startswith("s:")
        assert out.count(":") == 6  # name + 5 points

    def test_render_series_length_mismatch(self):
        with pytest.raises(ValueError):
            render_series("s", [1, 2], [1.0])


class TestExperimentDrivers:
    def test_fig5_model_runs_all_configs(self):
        results = run_fig5_model(num_samples=200)
        assert len(results) == len(FIG5_CONFIGS)
        for var in results:
            assert 0 < var.mean_ipc <= 1

    def test_table1_rows(self):
        rows = run_table1(sim_insts_per_sec=1e5)
        assert len(rows) == len(TABLE1_GPU_MS)
        assert rows[0].benchmark == "NB"
        # slowdown = GPU rate / sim rate
        assert rows[0].slowdown == pytest.approx(5.6e9 / 1e5)
        # NB at 28.557 s of GPU time: weeks of simulation
        assert "weeks" in rows[0].human_sim_time

    def test_table1_time_formatting(self):
        rows = run_table1(sim_insts_per_sec=5.6e9)  # no slowdown
        assert rows[-1].projected_sim_seconds == pytest.approx(0.881)
