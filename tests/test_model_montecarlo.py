"""Tests for the Fig. 5 Monte-Carlo IPC-variation study."""

import numpy as np
import pytest

from repro.model.montecarlo import (
    GAUSS_SPREAD,
    ipc_variation,
    sample_stall_latencies,
)


class TestSampling:
    def test_shape_and_floor(self):
        ms = sample_stall_latencies(100.0, 4, 500, np.random.default_rng(0))
        assert ms.shape == (500, 4)
        assert (ms >= 1.0).all()

    def test_gaussian_spread_calibration(self):
        """sigma = 0.1 mu / 1.96 puts ~95% of draws within +-10% of mu."""
        ms = sample_stall_latencies(400.0, 1, 40_000, np.random.default_rng(1))
        within = np.abs(ms - 400.0) / 400.0 < GAUSS_SPREAD
        assert 0.94 < within.mean() < 0.96

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            sample_stall_latencies(0.5, 4, 10)
        with pytest.raises(ValueError):
            sample_stall_latencies(100.0, 0, 10)


class TestIPCVariation:
    def test_lemma_41_holds(self):
        """Lemma 4.1: >95% of samples within 10% of the mean IPC, for
        the paper's example configuration."""
        for p, m, n in [(0.05, 100, 4), (0.1, 400, 4), (0.2, 200, 8)]:
            var = ipc_variation(p, m, n, rng=np.random.default_rng(42))
            assert var.fraction_within(0.10) > 0.95, var.label

    def test_label_format(self):
        var = ipc_variation(0.05, 100, 4, num_samples=10)
        assert var.label == "p0.05M100N4"

    def test_mean_close_to_nominal(self):
        from repro.model.markov import analytic_ipc

        var = ipc_variation(0.1, 200, 4, rng=np.random.default_rng(7))
        nominal = analytic_ipc(0.1, 200.0, 4)
        assert var.mean_ipc == pytest.approx(nominal, rel=0.02)

    def test_cdf_monotone_and_bounded(self):
        var = ipc_variation(0.1, 100, 4, rng=np.random.default_rng(3))
        grid = np.linspace(0, 0.5, 21)
        cdf = var.deviation_cdf(grid)
        assert (np.diff(cdf) >= 0).all()
        assert cdf[-1] == pytest.approx(1.0)

    def test_deviation_nonnegative(self):
        var = ipc_variation(0.05, 400, 8, num_samples=100)
        assert (var.relative_deviation >= 0).all()

    def test_sample_count(self):
        var = ipc_variation(0.1, 100, 2, num_samples=123)
        assert len(var.ipcs) == 123
