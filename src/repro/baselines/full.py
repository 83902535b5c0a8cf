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
from repro.sim.gpu import FixedUnitRecorder, LaunchResult, UnitRecord
from repro.sim.worker import get_simulator, init_worker
from repro.trace import KernelTrace


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


def _simulate_full_launch(task) -> tuple[LaunchResult, list[UnitRecord]]:
    """Simulate one launch in full on the process's warm simulator
    (:mod:`repro.sim.worker`): the task :func:`run_full` maps, in a pool
    worker or in this process alike (launch timings are
    order-independent because the memory hierarchy is reset per
    launch)."""
    launch, gpu, unit_insts = task
    recorder = None
    if unit_insts is not None:
        recorder = FixedUnitRecorder(unit_insts=unit_insts, num_bbs=launch.num_bbs)
    result = get_simulator(gpu).run_launch(launch, recorder=recorder)
    return result, recorder.units if recorder is not None else []


def run_full(
    kernel: KernelTrace,
    gpu: GPUConfig | None = None,
    *,
    unit_insts: int | None = None,
    exec_config: ExecutionConfig | None = None,
) -> FullRunResult:
    """Simulate every launch of ``kernel`` in full.

    Parameters
    ----------
    gpu:
        The simulated machine (default Table V).  The simulator is the
        process's warm one for ``gpu`` (:mod:`repro.sim.worker`), never
        an argument: timing depends on the machine alone.
    unit_insts:
        If given, slice the run into sampling units of this many
        machine-wide warp instructions (units never span launches, since
        launches are serialized and timed independently).  ``None``
        skips unit recording (faster).
    exec_config:
        Batch execution: the launches go through ``parallel_map``, so
        with ``jobs > 1`` they are simulated in worker processes and
        merged in launch order — bit-identical to the serial run, which
        keeps the same retry budget and ``exec_meta`` record.
    """
    gpu = gpu or GPUConfig()
    exec_config = exec_config or DEFAULT_EXECUTION

    tasks = [(l, gpu, unit_insts) for l in kernel.launches]
    exec_meta: dict = {}
    outcomes = parallel_map(
        _simulate_full_launch, tasks, exec_config.effective_jobs,
        meta=exec_meta, config=exec_config,
        initializer=init_worker, initargs=(gpu,),
    )
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
