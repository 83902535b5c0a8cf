"""Tests for the SimPoint-style k-means / BIC implementation."""

import numpy as np
import pytest

from repro.cluster.kmeans import (
    bic_score,
    kmeans,
    random_projection,
    select_k_bic,
)


def three_blobs(n_per=20, seed=0):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    pts = np.concatenate(
        [c + 0.3 * rng.standard_normal((n_per, 2)) for c in centers]
    )
    return pts


class TestKMeans:
    def test_k1_centroid_is_mean(self):
        pts = np.array([[0.0, 0.0], [2.0, 2.0], [4.0, 4.0]])
        res = kmeans(pts, 1)
        np.testing.assert_allclose(res.centroids[0], [2.0, 2.0])

    def test_separated_blobs_recovered(self):
        pts = three_blobs()
        res = kmeans(pts, 3, rng=np.random.default_rng(1))
        # Each blob's 20 points share a label.
        for start in (0, 20, 40):
            labels = res.labels[start : start + 20]
            assert len(set(labels)) == 1
        assert res.sse < 60 * 0.3**2 * 2 * 3  # tight clusters

    def test_labels_in_range(self):
        pts = three_blobs()
        res = kmeans(pts, 5)
        assert res.labels.min() >= 0 and res.labels.max() < 5

    def test_k_equals_n(self):
        pts = np.arange(8.0).reshape(4, 2)
        res = kmeans(pts, 4)
        assert res.sse == pytest.approx(0.0)

    def test_rejects_bad_k(self):
        pts = three_blobs()
        with pytest.raises(ValueError):
            kmeans(pts, 0)
        with pytest.raises(ValueError):
            kmeans(pts, len(pts) + 1)

    def test_deterministic_given_rng(self):
        pts = three_blobs()
        a = kmeans(pts, 3, rng=np.random.default_rng(5))
        b = kmeans(pts, 3, rng=np.random.default_rng(5))
        np.testing.assert_array_equal(a.labels, b.labels)


class TestBIC:
    def test_prefers_true_k_on_blobs(self):
        pts = three_blobs()
        rng = np.random.default_rng(2)
        scores = {
            k: bic_score(pts, kmeans(pts, k, rng=rng)) for k in (1, 2, 3, 6)
        }
        assert scores[3] > scores[1]
        assert scores[3] > scores[2]
        # Larger k buys little likelihood but pays the parameter penalty.
        assert scores[3] >= scores[6] - 1e-6

    def test_select_k_bic_finds_three(self):
        pts = three_blobs()
        run = select_k_bic(pts, max_k=8, rng=np.random.default_rng(3))
        assert run.k == 3

    def test_select_k_single_cluster_data(self):
        rng = np.random.default_rng(4)
        pts = rng.standard_normal((40, 2)) * 0.01
        run = select_k_bic(pts, max_k=6, rng=rng)
        assert run.k <= 2

    def test_select_k_caps_at_n(self):
        pts = np.arange(6.0).reshape(3, 2)
        run = select_k_bic(pts, max_k=10)
        assert run.k <= 3


class TestRandomProjection:
    def test_reduces_dimensionality(self):
        pts = np.random.default_rng(0).random((10, 40))
        proj = random_projection(pts, dims=15)
        assert proj.shape == (10, 15)

    def test_passthrough_when_small(self):
        pts = np.random.default_rng(0).random((10, 4))
        proj = random_projection(pts, dims=15)
        assert proj.shape == (10, 4)

    def test_preserves_separation(self):
        pts = np.zeros((4, 50))
        pts[:2, :25] = 1.0
        pts[2:, 25:] = 1.0
        proj = random_projection(pts, dims=5, rng=np.random.default_rng(1))
        # Same-group rows stay identical after projection.
        np.testing.assert_allclose(proj[0], proj[1])
        np.testing.assert_allclose(proj[2], proj[3])
        assert not np.allclose(proj[0], proj[2])
