"""Ideal-SimPoint baseline (Section V-A).

Per-sampling-unit basic-block vectors (collected during the full timing
run — hence "ideal": a real GPGPU deployment could not know them without
the very simulation it is trying to avoid) are clustered with the
SimPoint recipe — normalize, random-project, k-means with BIC model
selection — and the kernel IPC is predicted via Eq. 1: the weighted sum
of each cluster representative's CPI.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.full import FullRunResult
from repro.baselines.random_sampling import BaselineEstimate
from repro.cluster.kmeans import random_projection, select_k_bic


@dataclass(frozen=True)
class SimpointEstimate(BaselineEstimate):
    """Random-style estimate plus the clustering detail."""

    labels: np.ndarray = None  # cluster per unit
    representatives: np.ndarray = None  # unit index per cluster


def _bbv_matrix(full: FullRunResult) -> np.ndarray:
    rows = []
    width = max(len(u.bbv) for u in full.units)
    for u in full.units:
        row = np.zeros(width, dtype=np.float64)
        row[: len(u.bbv)] = u.bbv
        total = row.sum()
        rows.append(row / total if total else row)
    return np.stack(rows)


def estimate_simpoint(
    full: FullRunResult,
    max_k: int = 30,
    rng: np.random.Generator | None = None,
    projection_dims: int = 15,
) -> SimpointEstimate:
    """Cluster unit BBVs and predict the kernel IPC via Eq. 1."""
    if not full.units:
        raise ValueError("full run recorded no sampling units")
    rng = rng or np.random.default_rng(0)

    bbvs = _bbv_matrix(full)
    projected = random_projection(bbvs, dims=projection_dims, rng=rng)
    run = select_k_bic(projected, max_k=max_k, rng=rng)

    insts = np.array([u.insts for u in full.units], dtype=np.float64)
    cpis = np.array([u.cpi for u in full.units], dtype=np.float64)
    total_insts = float(insts.sum())

    # Representative per cluster: member closest to the centroid.
    k = run.k
    reps = np.full(k, -1, dtype=np.int64)
    est_cycles = 0.0
    sampled_insts = 0.0
    for c in range(k):
        members = np.flatnonzero(run.labels == c)
        if members.size == 0:
            continue
        dists = np.linalg.norm(projected[members] - run.centroids[c], axis=1)
        rep = int(members[np.argmin(dists)])
        reps[c] = rep
        # Eq. 1, instruction-weighted: the cluster's instructions are
        # predicted to run at the representative unit's CPI.
        cluster_insts = float(insts[members].sum())
        est_cycles += cluster_insts * cpis[rep]
        sampled_insts += float(insts[rep])

    return SimpointEstimate(
        name="ideal-simpoint",
        overall_ipc=total_insts / est_cycles,
        sample_size=sampled_insts / total_insts,
        num_selected=int((reps >= 0).sum()),
        num_units=len(full.units),
        labels=run.labels,
        representatives=reps,
    )


__all__ = ["SimpointEstimate", "estimate_simpoint"]
