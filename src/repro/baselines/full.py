"""Full-simulation reference runner.

Runs every launch of a kernel through the timing simulator with no
sampling, producing (a) the reference overall IPC that sampling errors
are measured against and (b) the stream of fixed-instruction-count
sampling units (per-unit IPC and BBV) that the Random and Ideal-SimPoint
baselines operate on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import GPUConfig
from repro.exec.engine import DEFAULT_EXECUTION, ExecutionConfig, parallel_map
from repro.sim.gpu import (
    FixedUnitRecorder,
    GPUSimulator,
    LaunchResult,
    UnitRecord,
    resolve_gpu,
)
from repro.sim.worker import get_simulator, init_worker
from repro.trace import KernelTrace
from repro.trace.launch import LaunchTrace


@dataclass
class FullRunResult:
    """Result of a full (unsampled) kernel simulation."""

    kernel_name: str
    launch_results: list[LaunchResult]
    units: list[UnitRecord]
    unit_insts: int | None
    #: How the per-launch fan-out actually executed
    #: (``path``/``workers``/``items``/``reason``, from ``parallel_map``).
    exec_meta: dict = field(default_factory=dict)

    @property
    def total_warp_insts(self) -> int:
        return sum(r.issued_warp_insts for r in self.launch_results)

    @property
    def total_cycles(self) -> int:
        return sum(r.wall_cycles for r in self.launch_results)

    @property
    def overall_ipc(self) -> float:
        """Machine-wide overall IPC (warp instructions / machine cycle);
        equals the paper's per-SM sum when SMs are balanced."""
        return self.total_warp_insts / max(1, self.total_cycles)

    @property
    def per_sm_ipc_sum(self) -> float:
        """The paper's literal Fig. 9 metric, cycle-weighted over
        launches: sum over SMs of instructions / busy cycles."""
        num_sms = len(self.launch_results[0].per_sm_issued)
        total = 0.0
        for k in range(num_sms):
            insts = sum(r.per_sm_issued[k] for r in self.launch_results)
            cycles = sum(r.per_sm_busy_cycles[k] for r in self.launch_results)
            if cycles:
                total += insts / cycles
        return total


def _simulate_full_launch(
    launch: LaunchTrace,
    gpu: GPUConfig,
    unit_insts: int | None,
    record_bbv: bool,
    simulator: GPUSimulator | None = None,
) -> tuple[LaunchResult, list[UnitRecord]]:
    """Simulate one launch in full; shared by the serial loop and the
    process-pool workers (launch timings are order-independent because
    the memory hierarchy is reset per launch)."""
    simulator = simulator or GPUSimulator(gpu)
    recorder = None
    if unit_insts is not None:
        recorder = FixedUnitRecorder(
            unit_insts=unit_insts,
            num_bbs=launch.num_bbs,
            record_bbv=record_bbv,
        )
    result = simulator.run_launch(launch, recorder=recorder)
    return result, recorder.units if recorder is not None else []


def _full_launch_task(task) -> tuple[LaunchResult, list[UnitRecord]]:
    """Picklable process-pool entry point (warm per-worker simulator,
    see :mod:`repro.sim.worker`)."""
    launch, gpu, unit_insts, record_bbv = task
    return _simulate_full_launch(
        launch, gpu, unit_insts, record_bbv, simulator=get_simulator(gpu)
    )


def run_full(
    kernel: KernelTrace,
    gpu: GPUConfig | None = None,
    simulator: GPUSimulator | None = None,
    unit_insts: int | None = None,
    record_bbv: bool = True,
    exec_config: ExecutionConfig | None = None,
) -> FullRunResult:
    """Simulate every launch of ``kernel`` in full.

    Parameters
    ----------
    unit_insts:
        If given, slice the run into sampling units of this many
        machine-wide warp instructions (units never span launches, since
        launches are serialized and timed independently).  ``None``
        skips unit recording (faster).
    record_bbv:
        Collect per-unit basic-block vectors (needed by Ideal-SimPoint,
        not by Random).
    exec_config:
        Batch execution: with ``jobs > 1``, launches are simulated in
        worker processes and merged in launch order — bit-identical to
        the serial run (the supplied ``simulator`` is then unused).

    ``gpu`` defaults to ``simulator``'s machine; a ``simulator`` built
    for another machine than ``gpu`` raises ``ValueError``.
    """
    gpu = resolve_gpu(gpu, simulator)
    exec_config = exec_config or DEFAULT_EXECUTION

    jobs = exec_config.effective_jobs
    exec_meta: dict = {}
    if jobs > 1 and kernel.num_launches > 1:
        tasks = [(l, gpu, unit_insts, record_bbv) for l in kernel.launches]
        # min_items=2: a whole-launch simulation dwarfs pool spawn
        # cost (same reasoning as the representative-launch fan-out).
        outcomes = parallel_map(
            _full_launch_task, tasks, jobs, meta=exec_meta, config=exec_config,
            min_items=2, initializer=init_worker, initargs=(gpu,),
        )
    else:
        exec_meta.update(
            path="serial", workers=1, items=kernel.num_launches,
            reason=f"jobs={jobs}, {kernel.num_launches} launch(es)",
        )
        simulator = simulator or GPUSimulator(gpu)
        outcomes = [
            _simulate_full_launch(
                launch, gpu, unit_insts, record_bbv, simulator=simulator
            )
            for launch in kernel.launches
        ]
    launch_results: list[LaunchResult] = []
    units: list[UnitRecord] = []
    for result, launch_units in outcomes:
        launch_results.append(result)
        units.extend(launch_units)
    return FullRunResult(
        kernel_name=kernel.name,
        launch_results=launch_results,
        units=units,
        unit_insts=unit_insts,
        exec_meta=exec_meta,
    )


__all__ = ["FullRunResult", "run_full"]
