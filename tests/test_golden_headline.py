"""Golden regression pins for the headline pipeline numbers.

``tests/fixtures/golden_headline.json`` checks in the exact TBPoint
overall IPC, sample size, instruction totals and representative counts
for three cheap Table VI kernels at a small scale.  Any change to the
workload generator, profiler, clustering, region sampler or timing
simulator that moves these numbers shows up here immediately — with the
old and new values side by side — instead of silently shifting every
reproduced figure.

If a change is *intentional*, regenerate the fixture::

    PYTHONPATH=src python tests/test_golden_headline.py

and commit the diff together with the change that caused it.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import get_workload, run_tbpoint

FIXTURE = Path(__file__).parent / "fixtures" / "golden_headline.json"

# Tight enough to catch any behavioural drift; loose enough to tolerate
# floating-point differences across BLAS builds / platforms.
REL_TOL = 1e-9

#: Every registered memory front end must reproduce the pinned launch
#: IPCs exactly — a silent timing divergence in any of them fails
#: tier-1 here, not just the property suite.
FRONT_ENDS = ("fast", "reference")


def _golden() -> dict:
    with open(FIXTURE) as fh:
        return json.load(fh)["kernels"]


def _golden_front_end_ipc() -> dict:
    with open(FIXTURE) as fh:
        return json.load(fh)["front_end_ipc"]


def _measure(name: str, entry: dict) -> dict:
    kernel = get_workload(name, scale=entry["scale"], seed=entry["seed"])
    tbp = run_tbpoint(kernel)
    return {
        "scale": entry["scale"],
        "seed": entry["seed"],
        "overall_ipc": tbp.overall_ipc,
        "sample_size": tbp.sample_size,
        "total_warp_insts": tbp.estimate.total_warp_insts,
        "num_representatives": len(tbp.rep_results),
    }


@pytest.mark.parametrize("name", sorted(_golden()))
def test_headline_numbers_pinned(name):
    entry = _golden()[name]
    got = _measure(name, entry)
    assert got["overall_ipc"] == pytest.approx(
        entry["overall_ipc"], rel=REL_TOL
    ), f"{name}: overall IPC drifted from the golden value"
    assert got["sample_size"] == pytest.approx(
        entry["sample_size"], rel=REL_TOL
    ), f"{name}: sample size drifted from the golden value"
    assert got["total_warp_insts"] == entry["total_warp_insts"]
    assert got["num_representatives"] == entry["num_representatives"]


def test_fixture_covers_three_kernels():
    assert len(_golden()) == 3


def _measure_launch_ipc(
    name: str, entry: dict, front_end: str, engine: str = "compact"
) -> float:
    """Simulate the first launch of ``name`` through one engine and
    front end and return its IPC (issued warp instructions per wall
    cycle)."""
    from repro.config import GPUConfig
    from repro.sim.gpu import GPUSimulator

    kernel = get_workload(name, scale=entry["scale"], seed=entry["seed"])
    sim = GPUSimulator(GPUConfig(), engine=engine, mem_front_end=front_end)
    result = sim.run_launch(kernel.launches[0])
    return result.issued_warp_insts / result.wall_cycles


@pytest.mark.parametrize("front_end", list(FRONT_ENDS))
@pytest.mark.parametrize("name", sorted(["stream", "spmv", "lbm", "mri"]))
def test_front_end_launch_ipc_pinned(name, front_end):
    """Cross-front-end golden pins on the memory-bound kernels: the
    pinned launch IPC (generated via the ``fast`` front end) must be
    reproduced to float tolerance by every registered front end."""
    entry = _golden_front_end_ipc()[name]
    got = _measure_launch_ipc(name, entry, front_end)
    assert got == pytest.approx(entry["launch_ipc"], rel=REL_TOL), (
        f"{name}/{front_end}: launch IPC drifted from the golden value"
    )


@pytest.mark.parametrize("front_end", list(FRONT_ENDS))
@pytest.mark.parametrize("name", sorted(["stream", "spmv", "lbm", "mri"]))
def test_reference_engine_launch_ipc_pinned(name, front_end):
    """The same pins through the reference engine: the oracle engine
    must reproduce the pinned launch IPC on every front end, so the
    oracle is pinned itself, not only its agreement with the compact
    engine."""
    entry = _golden_front_end_ipc()[name]
    got = _measure_launch_ipc(name, entry, front_end, engine="reference")
    assert got == pytest.approx(entry["launch_ipc"], rel=REL_TOL), (
        f"{name}/{front_end}/reference engine: launch IPC drifted from "
        "the golden value"
    )


def test_front_end_ipc_fixture_covers_memory_bound_kernels():
    from repro.sim.memory import MEMORY_FRONT_ENDS

    assert sorted(_golden_front_end_ipc()) == ["lbm", "mri", "spmv", "stream"]
    assert set(FRONT_ENDS) == set(MEMORY_FRONT_ENDS)


def regenerate() -> None:
    """Recompute every golden entry in place (run as a script)."""
    with open(FIXTURE) as fh:
        doc = json.load(fh)
    for name, entry in doc["kernels"].items():
        doc["kernels"][name] = _measure(name, entry)
        print(f"{name}: {doc['kernels'][name]}")
    for name, entry in doc.setdefault("front_end_ipc", {}).items():
        entry["launch_ipc"] = _measure_launch_ipc(name, entry, "fast")
        print(f"{name}: {entry}")
    with open(FIXTURE, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":
    regenerate()
