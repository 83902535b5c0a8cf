"""Fig. 5 — IPC variation of the Markov/Monte-Carlo model.

Runs the Section IV-A study for the paper's (p, M, N) configurations:
10,000 Monte-Carlo samples each, per-warp stall latencies drawn from
N(mu, (0.1 mu / 1.96)^2).  Prints the deviation CDF summary per curve
and asserts Lemma 4.1: >95% of samples within 10% of the mean IPC.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.experiments import FIG5_CONFIGS, run_fig5_model
from repro.analysis.report import render_table
from repro.model import ipc_from_steady_state, steady_state, transition_matrix

from conftest import emit


def test_fig5_ipc_variation(benchmark):
    results = benchmark.pedantic(
        run_fig5_model, kwargs={"num_samples": 10_000}, rounds=1, iterations=1
    )

    rows = []
    for var in results:
        rows.append(
            (
                var.label,
                f"{var.mean_ipc:.4f}",
                f"{var.fraction_within(0.05):.2%}",
                f"{var.fraction_within(0.10):.2%}",
                f"{np.percentile(var.relative_deviation, 95):.2%}",
            )
        )
    emit(render_table(
        ["config", "mean IPC", "within 5%", "within 10%", "p95 dev"],
        rows,
        title="Fig. 5 — Monte-Carlo IPC variation (10,000 samples/curve)",
    ))

    # Lemma 4.1 for every configuration in the figure.
    for var in results:
        assert var.fraction_within(0.10) > 0.95, var.label
    assert len(results) == len(FIG5_CONFIGS)


def test_markov_chain_throughput(benchmark):
    """Micro-benchmark: building and solving one Eq. 3 chain (N = 8)."""

    def solve():
        T = transition_matrix(0.1, 400.0, 8)
        return ipc_from_steady_state(steady_state(T))

    ipc = benchmark(solve)
    assert 0 < ipc <= 1
