"""Inter-launch sampling: cluster launches, pick representatives.

Hierarchical clustering (distance threshold sigma_inter = 0.1) groups
kernel launches with homogeneous performance; within each cluster the
launch whose feature vector is closest to the cluster center becomes the
*simulation point* — the only launch of the cluster that is timing-
simulated (and further reduced by intra-launch sampling).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster import ClusterResult, hierarchical_cluster
from repro.config import SamplingConfig
from repro.core.features import inter_feature_matrix
from repro.profiler.functional import KernelProfile


@dataclass(frozen=True)
class InterLaunchPlan:
    """The inter-launch sampling decision for one kernel.

    Attributes
    ----------
    labels:
        Cluster ID per launch.
    representatives:
        Launch index simulated on behalf of each cluster.
    features:
        The Eq. 2 feature matrix the clustering saw.
    """

    labels: np.ndarray
    representatives: np.ndarray
    features: np.ndarray

    @property
    def num_launches(self) -> int:
        return len(self.labels)

    @property
    def num_clusters(self) -> int:
        return len(self.representatives)

    def cluster_of(self, launch_id: int) -> int:
        return int(self.labels[launch_id])

    def representative_of(self, launch_id: int) -> int:
        """The launch whose simulation stands in for ``launch_id``."""
        return int(self.representatives[self.labels[launch_id]])

    @property
    def simulated_launches(self) -> list[int]:
        """Sorted launch indices that actually get simulated."""
        return sorted(int(r) for r in self.representatives)

    def cluster_sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.num_clusters)


def plan_inter_launch(
    profile: KernelProfile,
    config: SamplingConfig | None = None,
    include: tuple[bool, bool, bool, bool] | None = None,
) -> InterLaunchPlan:
    """Cluster a kernel's launches and select representatives.

    Parameters
    ----------
    profile:
        One-time functional profile.
    config:
        Sampling parameters (uses ``inter_threshold``).
    include:
        Optional Eq. 2 feature mask (ablation).
    """
    config = config or SamplingConfig()
    feats = inter_feature_matrix(profile, include=include)
    result: ClusterResult = hierarchical_cluster(feats, config.inter_threshold)
    return InterLaunchPlan(
        labels=result.labels,
        representatives=result.representatives,
        features=feats,
    )


def trivial_plan(profile: KernelProfile) -> InterLaunchPlan:
    """A no-op plan that simulates every launch (used when inter-launch
    sampling is disabled, e.g. the intra-only ablation)."""
    n = profile.num_launches
    labels = np.arange(n, dtype=np.int64)
    return InterLaunchPlan(
        labels=labels,
        representatives=labels.copy(),
        features=inter_feature_matrix(profile),
    )


__all__ = [
    "InterLaunchPlan",
    "plan_inter_launch",
    "trivial_plan",
]
