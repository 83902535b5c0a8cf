"""Tests for homogeneous-region identification (Section IV-B1)."""

import numpy as np

from repro.config import SamplingConfig
from repro.core.epochs import EpochTable
from repro.core.regions import identify_regions


def make_table(stall_probs, variation=None, occupancy=4):
    """Epoch table with the given per-epoch stall probabilities."""
    stall = np.asarray(stall_probs, dtype=np.float64)
    n = len(stall)
    if variation is None:
        variation = np.zeros(n)
    counts = np.full(n, occupancy, dtype=np.int64)
    return EpochTable(
        occupancy=occupancy,
        starts=np.arange(n, dtype=np.int64) * occupancy,
        counts=counts,
        stall_probability=stall,
        variation_factor=np.asarray(variation, dtype=np.float64),
    )


class TestIdentifyRegions:
    def test_uniform_epochs_one_region(self):
        table = make_table([0.2] * 6)
        result = identify_regions(table)
        assert result.num_regions == 1
        region = result.regions[0]
        assert region.start_tb == 0
        assert region.end_tb == 24
        assert (result.region_of == 0).all()

    def test_two_phase_structure(self):
        """The Fig. 6 example: distinct stall probabilities split into
        two regions at the epoch boundary."""
        table = make_table([0.2, 0.2, 0.2, 0.05, 0.05, 0.05])
        result = identify_regions(table)
        assert result.num_regions == 2
        assert result.regions[0].end_tb == result.regions[1].start_tb == 12
        assert set(result.region_of[:12]) == {0}
        assert set(result.region_of[12:]) == {1}

    def test_outlier_epoch_excluded(self):
        """Fig. 6: epochs with outlier thread blocks get singleton
        clusters and are simulated as usual (region_of = -1)."""
        vf = [0.0, 0.0, 0.9, 0.0, 0.0, 0.0]
        table = make_table([0.2] * 6, variation=vf)
        result = identify_regions(table, SamplingConfig(variation_factor=0.3))
        # Epoch 2 breaks the run: regions [0,1] and [3..5].
        assert result.num_regions == 2
        assert (result.region_of[8:12] == -1).all()
        assert result.outlier_epochs[2]
        assert not result.outlier_epochs[1]

    def test_short_runs_unmarked(self):
        # Alternating epochs: every run has length 1 < min_region_epochs.
        table = make_table([0.05, 0.4] * 4)
        result = identify_regions(table, SamplingConfig(min_region_epochs=2))
        assert result.num_regions == 0
        assert (result.region_of == -1).all()

    def test_close_probabilities_merge(self):
        # 2% apart, threshold 0.2 (relative): same cluster, one region.
        table = make_table([0.20, 0.204, 0.199, 0.201])
        result = identify_regions(table)
        assert result.num_regions == 1

    def test_far_probabilities_split(self):
        table = make_table([0.1, 0.1, 0.5, 0.5])
        result = identify_regions(table)
        assert result.num_regions == 2

    def test_noncontiguous_same_cluster_distinct_regions(self):
        """Epochs with the same cluster separated by another phase form
        *separate* regions (regions are contiguous by definition)."""
        table = make_table([0.2, 0.2, 0.5, 0.5, 0.2, 0.2])
        result = identify_regions(table)
        assert result.num_regions == 3
        assert result.regions[0].cluster == result.regions[2].cluster
        assert result.regions[0].region_id != result.regions[2].region_id

    def test_rows_table_iii_format(self):
        table = make_table([0.2, 0.2, 0.05, 0.05])
        result = identify_regions(table)
        rows = result.rows()
        assert rows == [(0, 0, 7), (1, 8, 15)]

    def test_covered_blocks(self):
        vf = [0.0, 0.0, 0.9, 0.0]
        table = make_table([0.2] * 4, variation=vf)
        result = identify_regions(table, SamplingConfig(variation_factor=0.3))
        assert result.covered_blocks == 8  # only the first run of 2 epochs

    def test_single_epoch_launch(self):
        table = make_table([0.2])
        result = identify_regions(table)
        assert result.num_regions == 0  # shorter than min_region_epochs

    def test_region_ids_dense_and_match_region_of(self):
        table = make_table([0.1, 0.1, 0.4, 0.4, 0.1, 0.1, 0.7, 0.7])
        result = identify_regions(table)
        for region in result.regions:
            assert (
                result.region_of[region.start_tb : region.end_tb]
                == region.region_id
            ).all()
        assert [r.region_id for r in result.regions] == list(
            range(result.num_regions)
        )
