"""Fig. 11 — breakdown of skipped instructions: inter vs intra.

For every kernel, runs TBPoint (no full reference needed) and prints the
relative share of skipped instructions contributed by inter-launch vs
intra-launch sampling.  The paper's observations to reproduce: regular
kernels skip mostly via inter-launch sampling, hotspot (one launch)
skips via intra only, and stream's hundreds of homogeneous launches make
inter dominant.
"""

from __future__ import annotations

from repro.analysis.experiments import run_breakdown
from repro.analysis.report import render_table
from repro.workloads import benchmark_info

from conftest import bench_kernels, emit


def test_fig11_skip_breakdown(benchmark, experiment):
    def run():
        rows = []
        names = bench_kernels()
        for name, tbp in zip(names, run_breakdown(names, experiment)):
            inter, intra = tbp.skip_breakdown()
            rows.append(
                (
                    name,
                    benchmark_info(name).kind,
                    f"{inter:.0%}",
                    f"{intra:.0%}",
                    f"{tbp.sample_size:.2%}",
                )
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(render_table(
        ["kernel", "type", "inter-launch", "intra-launch", "sample size"],
        rows,
        title="Fig. 11 — relative share of skipped instructions",
    ))

    by_name = {r[0]: r for r in rows}
    # hotspot has a single launch: all savings are intra-launch.
    if "hotspot" in by_name:
        assert by_name["hotspot"][2] == "0%"
    # stream's homogeneous launches are folded by inter-launch sampling.
    if "stream" in by_name:
        assert by_name["stream"][2] == "100%"
