#!/usr/bin/env python
"""One-time profiling, many hardware configurations (Section V-C).

TBPoint's selling point over Pinpoint-style sampling is *hardware
independence*: the functional profile is collected once, and only the
cheap epoch clustering is redone when the simulated machine changes.
This example profiles `lbm` once, then evaluates TBPoint against a full
simulation on four machines with different warp counts and SM counts —
the Figs. 12-13 sensitivity study in miniature.

Run:  python examples/hardware_exploration.py
"""

from repro import GPUConfig, get_workload, profile_kernel, run_tbpoint
from repro.analysis.report import render_table
from repro.baselines import run_full
from repro.core.estimates import sampling_error


def main() -> None:
    kernel = get_workload("lbm", scale=0.0625)
    profile = profile_kernel(kernel)  # ONE functional profile
    print(f"profiled {kernel.name} once: "
          f"{profile.total_warp_insts:,} warp instructions\n")

    configs = [(24, 7), (48, 7), (24, 14), (48, 14)]
    rows = []
    for warps, sms in configs:
        gpu = GPUConfig().with_(warps_per_sm=warps, num_sms=sms)
        # Both runs simulate the machine `gpu` names on the process's one
        # warm simulator, which is rebuilt only when the machine changes.
        full = run_full(kernel, gpu)
        # run_tbpoint re-derives epochs for this machine's occupancy but
        # reuses the profile unchanged.
        tbp = run_tbpoint(kernel, gpu, profile=profile)
        occupancy = gpu.system_occupancy(kernel.launches[0].warps_per_block)
        rows.append(
            (
                f"W{warps}S{sms}",
                occupancy,
                f"{full.overall_ipc:.3f}",
                f"{tbp.overall_ipc:.3f}",
                f"{sampling_error(tbp.overall_ipc, full.overall_ipc):.2%}",
                f"{tbp.sample_size:.2%}",
            )
        )
    print(render_table(
        ["config", "occupancy", "full IPC", "TBPoint IPC", "error", "sample"],
        rows,
        title="Hardware sensitivity (Figs. 12-13 in miniature)",
    ))
    print("\nThe same profile served every configuration; only the epoch")
    print("clustering (epoch size = system occupancy) was recomputed.")


if __name__ == "__main__":
    main()
