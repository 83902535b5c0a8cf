"""Ablation studies called out in DESIGN.md (beyond the paper's figures).

* Feature ablation: drop each Eq. 2 dimension and measure how the
  inter-launch clustering degrades.
* Threshold sweeps: sigma_inter / sigma_intra trade sample size against
  error, the knob behaviour Section III describes.
* Sampling-level ablation: inter-only vs intra-only vs both (they are
  orthogonal, per Table IV's note).
"""

from __future__ import annotations

import pytest

from repro.analysis.report import render_table
from repro.baselines import run_full
from repro.config import SamplingConfig
from repro.core.estimates import sampling_error
from repro.core.features import FEATURE_NAMES
from repro.core.pipeline import run_tbpoint
from repro.profiler import profile_kernel
from repro.workloads import get_workload

from conftest import emit

ABLATION_KERNEL = "sssp"  # many launches: inter-launch structure matters


@pytest.fixture(scope="module")
def setup(experiment):
    kernel = get_workload(ABLATION_KERNEL, experiment.scale, experiment.seed)
    profile = profile_kernel(kernel)
    full = run_full(kernel)
    return kernel, profile, full


def test_feature_ablation(benchmark, setup):
    kernel, profile, full = setup

    def sweep():
        rows = []
        tbp = run_tbpoint(kernel, profile=profile)
        rows.append(
            ("all four", tbp.plan.num_clusters,
             f"{sampling_error(tbp.overall_ipc, full.overall_ipc):.2%}",
             f"{tbp.sample_size:.2%}")
        )
        for drop in range(4):
            mask = tuple(i != drop for i in range(4))
            tbp = run_tbpoint(kernel, profile=profile, feature_mask=mask)
            rows.append(
                (f"minus {FEATURE_NAMES[drop]}", tbp.plan.num_clusters,
                 f"{sampling_error(tbp.overall_ipc, full.overall_ipc):.2%}",
                 f"{tbp.sample_size:.2%}")
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(render_table(
        ["features", "clusters", "error", "sample"],
        rows,
        title=f"Eq. 2 feature ablation ({ABLATION_KERNEL})",
    ))


def test_threshold_sweep(benchmark, setup):
    kernel, profile, full = setup

    def sweep():
        rows = []
        for sigma in (0.02, 0.05, 0.1, 0.2, 0.4):
            cfg = SamplingConfig(inter_threshold=sigma)
            tbp = run_tbpoint(kernel, sampling=cfg, profile=profile)
            rows.append(
                (f"{sigma:g}", tbp.plan.num_clusters,
                 f"{sampling_error(tbp.overall_ipc, full.overall_ipc):.2%}",
                 f"{tbp.sample_size:.2%}")
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(render_table(
        ["sigma_inter", "clusters", "error", "sample"],
        rows,
        title=f"Distance-threshold sweep ({ABLATION_KERNEL}): higher sigma"
              " -> fewer clusters -> smaller sample, larger error risk",
    ))
    # The paper's monotonic knob: clusters never increase with sigma.
    clusters = [r[1] for r in rows]
    assert all(a >= b for a, b in zip(clusters, clusters[1:]))


def test_sampling_level_ablation(benchmark, setup):
    kernel, profile, full = setup

    def sweep():
        rows = []
        for label, kw in (
            ("inter + intra", {}),
            ("inter only", {"use_intra": False}),
            ("intra only", {"use_inter": False}),
        ):
            tbp = run_tbpoint(kernel, profile=profile, **kw)
            rows.append(
                (label,
                 f"{sampling_error(tbp.overall_ipc, full.overall_ipc):.2%}",
                 f"{tbp.sample_size:.2%}")
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(render_table(
        ["levels", "error", "sample"],
        rows,
        title=f"Orthogonal sampling levels ({ABLATION_KERNEL})",
    ))
