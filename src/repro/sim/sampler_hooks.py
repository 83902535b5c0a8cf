"""Hook protocol between the timing simulator and intra-launch sampling.

The simulator is sampling-agnostic: it calls these hooks and honours the
dispatch decision; all TBPoint policy (region entry, warming,
fast-forwarding — Section IV-B2) lives in the implementation
(:class:`repro.core.intralaunch.RegionSampler`).

Hooks and the compact engine: every callback fires at exactly the cycle
and issued-count the reference engine would report, so hook
observations are bit-identical across engines.
``tests/test_sim_compaction.py`` logs every callback, with its
arguments and return value, on both engines and compares the logs.
A sampler keeps the launch on the window loop: the hooks fire only at
block retirement, the cycle-0 fill and launch end, and the engine
recomputes the exact issued count at those moments from the other SMs'
recorded run-ahead.  A recorder sends the launch to the
per-instruction loop, where every hook sees the count directly.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable


@runtime_checkable
class DispatchSampler(Protocol):
    """Callbacks invoked by :class:`repro.sim.gpu.GPUSimulator`.

    The simulator guarantees the call order per thread block: one
    ``on_dispatch`` (whose return decides simulate-vs-skip), then — for
    simulated blocks only — one ``on_retire``.  Sampling units (the
    lifetime of the *specified* thread block) produce ``on_unit_start``
    / ``on_unit_complete`` pairs.

    Attributes
    ----------
    skipped_warp_insts:
        Warp instructions of all blocks the sampler chose to skip.
    extra_cycles:
        Predicted machine cycles those skipped instructions would have
        taken (skipped instructions divided by the predicted region IPC).
    """

    skipped_warp_insts: int
    extra_cycles: float

    def on_dispatch(self, tb_id: int, now: int, issued: int) -> bool:
        """Decide the fate of thread block ``tb_id`` about to be
        dispatched at cycle ``now`` (with ``issued`` machine-wide warp
        instructions issued so far); return True to simulate it, False
        to skip (fast-forward) it."""
        ...

    def on_retire(self, tb_id: int, now: int, issued: int) -> None:
        """A simulated thread block retired at cycle ``now``."""
        ...

    def on_unit_start(self, now: int) -> None:
        """A new sampling unit began (a specified thread block was
        dispatched)."""
        ...

    def on_unit_complete(self, insts: int, cycles: int, now: int, issued: int) -> None:
        """The specified thread block retired: the sampling unit covered
        ``insts`` machine-wide issued warp instructions over ``cycles``
        cycles."""
        ...

    def finalize(self, now: int, issued: int) -> None:
        """The launch finished simulating at cycle ``now`` (closes any
        fast-forward episode still in progress)."""
        ...


class NullSampler:
    """A sampler that simulates everything (used to exercise the hook
    path in tests).  It runs on the same window loop as
    ``sampler=None`` and yields the same timing."""

    def __init__(self) -> None:
        self.skipped_warp_insts = 0
        self.extra_cycles = 0.0
        self.units: list[tuple[int, int]] = []

    def on_dispatch(self, tb_id: int, now: int, issued: int) -> bool:
        return True

    def on_retire(self, tb_id: int, now: int, issued: int) -> None:
        return None

    def on_unit_start(self, now: int) -> None:
        return None

    def on_unit_complete(self, insts: int, cycles: int, now: int, issued: int) -> None:
        self.units.append((insts, cycles))

    def finalize(self, now: int, issued: int) -> None:
        return None


__all__ = ["DispatchSampler", "NullSampler"]
