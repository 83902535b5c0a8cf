"""Figs. 9 & 10 — the headline evaluation.

Regenerates, for every Table VI kernel, the overall IPC of Full /
Random / Ideal-SimPoint / TBPoint (Fig. 9) and the total sample size of
the three sampling techniques (Fig. 10), then prints the per-kernel rows
and the geometric means the abstract quotes (paper: errors 7.95% /
1.74% / 0.47% and sizes 10% / 5.4% / 2.6%).

This is the expensive bench: each kernel needs one full simulation.
"""

from __future__ import annotations

import pytest

from repro.analysis.experiments import ComparisonSummary, run_kernel_comparison
from repro.analysis.report import render_table

from conftest import bench_kernels, emit


@pytest.fixture(scope="module")
def comparisons(experiment):
    return {
        name: run_kernel_comparison(name, experiment)
        for name in bench_kernels()
    }


def test_fig9_fig10_headline(benchmark, comparisons, experiment):
    """Print Fig. 9 (IPC/error) and Fig. 10 (sample size) rows."""

    def summarize():
        rows9, rows10 = [], []
        for name, c in comparisons.items():
            rows9.append(
                (
                    name,
                    c.kind,
                    f"{c.full_ipc:.3f}",
                    f"{c.random.overall_ipc:.3f}",
                    f"{c.simpoint.overall_ipc:.3f}",
                    f"{c.tbpoint.overall_ipc:.3f}",
                    f"{c.random_error:.2%}",
                    f"{c.simpoint_error:.2%}",
                    f"{c.tbpoint_error:.2%}",
                )
            )
            rows10.append(
                (
                    name,
                    f"{c.random_sample_size:.2%}",
                    f"{c.simpoint_sample_size:.2%}",
                    f"{c.tbpoint_sample_size:.2%}",
                )
            )
        return rows9, rows10

    rows9, rows10 = benchmark.pedantic(summarize, rounds=1, iterations=1)
    emit(render_table(
        ["kernel", "type", "full", "random", "simpoint", "tbpoint",
         "err(rnd)", "err(sp)", "err(tbp)"],
        rows9,
        title=f"Fig. 9 — overall IPC (scale={experiment.scale})",
    ))
    emit(render_table(
        ["kernel", "random", "ideal-simpoint", "tbpoint"],
        rows10,
        title="Fig. 10 — total sample size",
    ))

    summary = ComparisonSummary(comparisons=list(comparisons.values()))
    errs = summary.geomean_errors()
    sizes = summary.geomean_sample_sizes()
    emit(render_table(
        ["technique", "geomean error", "paper error",
         "geomean sample", "paper sample"],
        [
            ("random", f"{errs['random']:.2%}", "7.95%",
             f"{sizes['random']:.2%}", "10%"),
            ("ideal-simpoint", f"{errs['ideal-simpoint']:.2%}", "1.74%",
             f"{sizes['ideal-simpoint']:.2%}", "5.4%"),
            ("tbpoint", f"{errs['tbpoint']:.2%}", "0.47%",
             f"{sizes['tbpoint']:.2%}", "2.6%"),
        ],
        title="Headline geometric means (measured vs paper)",
    ))

    # The paper's qualitative claims must hold.
    assert errs["tbpoint"] < errs["random"]
    assert errs["ideal-simpoint"] < errs["random"]
    assert sizes["tbpoint"] < sizes["random"]
