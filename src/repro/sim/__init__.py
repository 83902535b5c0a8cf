"""Cycle-approximate GPGPU timing simulator (the Macsim substitute).

An event-driven multi-SM model: a global event heap orders SM issue
slots; each SM issues one warp instruction per cycle from its
earliest-ready resident warp (in-order, scoreboarded — Table V); memory
instructions traverse per-SM L1s, a shared L2 and banked DRAM with
open-row and queueing behaviour, which produces the *variable* stall
latencies the paper's model calls ``M``.

One simulator path runs: the compact engine over the batched ``fast``
memory front end (``MemoryHierarchy``).  Its window loop runs every
full and TBPoint launch; launches with a ``FixedUnitRecorder`` observe
every instruction in global order and run on the per-instruction loop
of the ``reference`` engine instead.  That loop and the per-transaction
``ReferenceMemoryHierarchy`` are the equivalence oracles — every
engine x front-end pair produces bit-identical timing, cache/DRAM state
and statistics (property-tested in ``tests/test_sim_memory_fastpath.py``
and the engine tests).  Select an oracle via
``GPUSimulator(..., engine=..., mem_front_end=...)``.

The simulator exposes the hooks TBPoint's intra-launch sampling needs:
a dispatch-time skip decision and sampling-unit tracking where a unit is
the lifetime of a *specified* thread block (Section IV-B2).
Launch-level parallelism lives in the execution engine and stays exact.
"""

from repro.sim.caches import LRUCache
from repro.sim.dram import DRAMModel
from repro.sim.memory import (
    MEMORY_FRONT_ENDS,
    MemoryHierarchy,
    ReferenceMemoryHierarchy,
    make_memory,
)
from repro.sim.gpu import (
    FixedUnitRecorder,
    GPUSimulator,
    LaunchResult,
    SimCounters,
    UnitRecord,
)
from repro.sim.worker import get_simulator, init_worker

__all__ = [
    "LRUCache",
    "DRAMModel",
    "MemoryHierarchy",
    "ReferenceMemoryHierarchy",
    "MEMORY_FRONT_ENDS",
    "make_memory",
    "GPUSimulator",
    "LaunchResult",
    "SimCounters",
    "FixedUnitRecorder",
    "UnitRecord",
    "init_worker",
    "get_simulator",
]
