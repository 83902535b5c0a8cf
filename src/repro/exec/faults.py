"""Deterministic fault injection for the execution layer.

The fault-tolerance machinery in :mod:`repro.exec.pool` is only
trustworthy if every failure mode it claims to survive can be produced
on demand, repeatably, in a test.  A :class:`FaultPlan` is a picklable
script of failures: it rides into worker processes attached to an
:class:`~repro.exec.engine.ExecutionConfig` (or a ``ServeConfig``) and
fires at exact ``(task index, attempt)`` coordinates, so a chaos test
can say "the worker running task 3 dies on its first attempt, task 5
raises on its second" and assert the sweep still produces results bit-identical to a
clean serial run.

Fault kinds
-----------

``CRASH``
    ``os._exit`` inside a worker process — the hard death (OOM-killer,
    segfault) the pool sees as a dead worker.
    Guarded by the plan's recorded parent PID so a crash fault can never
    kill the orchestrating process: when the retry policy degrades the
    task to in-parent serial execution, the fault is skipped — which is
    exactly the semantics a real repeatedly-crashing worker needs.
``RAISE``
    An :class:`InjectedFault` exception from the task body — the
    recoverable failure (transient resource exhaustion).
``HANG``
    ``time.sleep`` for ``duration`` seconds — drives the per-task
    timeout path (the hung worker is killed and replaced) when
    ``duration`` exceeds ``task_timeout``.
``CORRUPT_CACHE``
    Truncates every stored profile-cache entry under the plan's
    ``cache_dir`` — exercises the cache's quarantine-and-recompute
    guarantee mid-sweep, from inside a worker.

Determinism: a plan is pure data (tuples of :class:`Fault`), firing
depends only on ``(index, attempt)``, and nothing it does in a worker
can change a task's *successful* result — it can only delay or destroy
the attempt.  Combined with the engine's in-order merge, results under
any plan are bit-identical to a fault-free run.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

#: Exit status used by injected worker crashes (visible in pool logs).
CRASH_EXIT_CODE = 86

CRASH = "crash"
RAISE = "raise"
HANG = "hang"
CORRUPT_CACHE = "corrupt_cache"

_KINDS = frozenset({CRASH, RAISE, HANG, CORRUPT_CACHE})


class InjectedFault(RuntimeError):
    """The exception raised by a ``RAISE`` fault (never by real code, so
    chaos tests can tell injected failures from genuine bugs)."""


@dataclass(frozen=True)
class Fault:
    """One scripted failure: fire ``kind`` when task ``index`` runs its
    ``attempt``-th attempt (0-based; the first try is attempt 0)."""

    kind: str
    index: int
    attempt: int = 0
    #: ``HANG`` only: how long the task stalls, in seconds.
    duration: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fault kind: {self.kind!r}")
        if self.index < 0 or self.attempt < 0:
            raise ValueError("fault index/attempt must be >= 0")


@dataclass(frozen=True)
class FaultPlan:
    """A picklable script of failures for one ``parallel_map`` call.

    Attributes
    ----------
    faults:
        The scripted failures; several may target the same coordinate
        (they fire in order).
    cache_dir:
        Directory whose ``profiles/*.npz`` entries ``CORRUPT_CACHE``
        faults destroy.
    parent_pid:
        PID of the process that built the plan.  ``CRASH`` faults only
        fire in *other* processes (workers), so the degrade-to-serial
        path can re-run a worker-killing task safely in the parent.
    """

    faults: tuple[Fault, ...] = ()
    cache_dir: str | None = None
    parent_pid: int = field(default_factory=os.getpid)

    def fire(self, index: int, attempt: int) -> None:
        """Trigger every fault scripted for this ``(index, attempt)``.

        Called immediately before the task body runs (by the pool
        worker for pool attempts, by ``parallel_map`` in the parent for
        serial attempts).
        """
        for fault in self.faults:
            if fault.index != index or fault.attempt != attempt:
                continue
            if fault.kind == CRASH:
                if os.getpid() != self.parent_pid:
                    os._exit(CRASH_EXIT_CODE)
            elif fault.kind == RAISE:
                raise InjectedFault(
                    f"injected fault: task {index} attempt {attempt}"
                )
            elif fault.kind == HANG:
                time.sleep(fault.duration)
            elif fault.kind == CORRUPT_CACHE:
                self._corrupt_cache_entries()

    def _corrupt_cache_entries(self) -> None:
        """Truncate every profile-cache entry under ``cache_dir`` to
        half its size — structurally broken archives the cache must
        quarantine and recompute, never trust."""
        if self.cache_dir is None:
            return
        from repro.exec.cache import ProfileCache

        for path in ProfileCache(self.cache_dir).entries():
            try:
                data = path.read_bytes()
                path.write_bytes(data[: len(data) // 2])
            except OSError:
                continue

    # ------------------------------------------------------------------
    # JSON form (PR 9): the serve-level chaos harness hands plans to a
    # real daemon process via ``repro serve --fault-plan plan.json``, so
    # a plan must survive a JSON round trip, not just a pickle one.
    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        """JSON-native form; exact inverse of :meth:`from_dict`."""
        return {
            "faults": [
                {
                    "kind": f.kind,
                    "index": f.index,
                    "attempt": f.attempt,
                    "duration": f.duration,
                }
                for f in self.faults
            ],
            "cache_dir": self.cache_dir,
            "parent_pid": self.parent_pid,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        """Rebuild a plan from :meth:`as_dict` output.  ``parent_pid``
        is preserved verbatim: the process that *built* the plan is the
        one its ``CRASH`` faults must never kill, even when the plan
        crossed a JSON file into a daemon on the way to its workers."""
        faults = tuple(
            Fault(
                kind=f["kind"],
                index=f["index"],
                attempt=f.get("attempt", 0),
                duration=f.get("duration", 0.0),
            )
            for f in data.get("faults", ())
        )
        return cls(
            faults=faults,
            cache_dir=data.get("cache_dir"),
            parent_pid=data.get("parent_pid", os.getpid()),
        )

    def __bool__(self) -> bool:
        return bool(self.faults)


def crash_plan(*indices: int, attempt: int = 0, **kwargs) -> FaultPlan:
    """A plan that kills the worker of each listed task once."""
    return FaultPlan(
        faults=tuple(Fault(CRASH, i, attempt) for i in indices), **kwargs
    )


def raise_plan(*coords: tuple[int, int], **kwargs) -> FaultPlan:
    """A plan raising :class:`InjectedFault` at each ``(index, attempt)``."""
    return FaultPlan(
        faults=tuple(Fault(RAISE, i, a) for i, a in coords), **kwargs
    )


def hang_plan(
    *indices: int, duration: float, attempt: int = 0, **kwargs
) -> FaultPlan:
    """A plan stalling each listed task's attempt for ``duration`` s."""
    return FaultPlan(
        faults=tuple(
            Fault(HANG, i, attempt, duration=duration) for i in indices
        ),
        **kwargs,
    )


__all__ = [
    "CRASH",
    "RAISE",
    "HANG",
    "CORRUPT_CACHE",
    "CRASH_EXIT_CODE",
    "Fault",
    "FaultPlan",
    "InjectedFault",
    "crash_plan",
    "raise_plan",
    "hang_plan",
]
