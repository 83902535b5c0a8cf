"""Tests for inter-launch sampling (Section III)."""

from repro.config import SamplingConfig
from repro.core.interlaunch import plan_inter_launch, trivial_plan
from repro.profiler import profile_kernel

from tests.conftest import make_uniform_kernel
from repro.workloads.base import LaunchSpec, Segment, build_kernel


def two_cluster_kernel():
    """Four launches: two small light ones, two big heavy ones."""
    light = LaunchSpec(
        segments=(Segment(count=64, insts_per_warp=32, mem_ratio=0.05),),
        warps_per_block=4,
        data_key=0,
    )
    heavy = LaunchSpec(
        segments=(
            Segment(
                count=192,
                insts_per_warp=64,
                mem_ratio=0.25,
                coalesce_mean=4.0,
                pattern="gather",
            ),
        ),
        warps_per_block=4,
        data_key=1,
    )
    return build_kernel(
        "two", "test", "regular", [light, heavy, light, heavy], 3
    )


class TestPlanInterLaunch:
    def test_identical_launches_one_cluster(self):
        kernel = make_uniform_kernel(num_launches=4)
        # Identical specs but per-launch data: near-identical features.
        profile = profile_kernel(kernel)
        plan = plan_inter_launch(profile, SamplingConfig(inter_threshold=0.2))
        assert plan.num_clusters == 1
        assert len(plan.simulated_launches) == 1

    def test_two_behaviour_classes_two_clusters(self):
        profile = profile_kernel(two_cluster_kernel())
        plan = plan_inter_launch(profile)
        assert plan.num_clusters == 2
        assert plan.cluster_of(0) == plan.cluster_of(2)
        assert plan.cluster_of(1) == plan.cluster_of(3)
        assert plan.cluster_of(0) != plan.cluster_of(1)

    def test_representative_is_cluster_member(self):
        profile = profile_kernel(two_cluster_kernel())
        plan = plan_inter_launch(profile)
        for launch_id in range(plan.num_launches):
            rep = plan.representative_of(launch_id)
            assert plan.cluster_of(rep) == plan.cluster_of(launch_id)

    def test_zero_threshold_splits_everything_distinct(self):
        profile = profile_kernel(two_cluster_kernel())
        plan = plan_inter_launch(profile, SamplingConfig(inter_threshold=0.0))
        # Identical data_key launches remain together even at sigma=0.
        assert plan.num_clusters == 2

    def test_cluster_sizes_sum_to_launches(self):
        profile = profile_kernel(two_cluster_kernel())
        plan = plan_inter_launch(profile)
        assert plan.cluster_sizes().sum() == plan.num_launches


class TestTrivialPlan:
    def test_every_launch_simulated(self):
        profile = profile_kernel(make_uniform_kernel(num_launches=3))
        plan = trivial_plan(profile)
        assert plan.num_clusters == 3
        assert plan.simulated_launches == [0, 1, 2]
        for i in range(3):
            assert plan.representative_of(i) == i
