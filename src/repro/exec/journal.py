"""Persistent sweep checkpoint journal: crash recovery for long sweeps.

A multi-hour Fig. 9/10 or sensitivity sweep must not restart from zero
because the machine rebooted at kernel 11 of 12.  All four sweep
drivers (``run_fig9_fig10``, ``run_breakdown``, ``run_sensitivity``,
``run_scaling``) run through :func:`run_sweep`, which — with the
profile cache on, and only then — opens a :class:`SweepJournal` keyed
by the *content* of the sweep (driver name plus every parameter that
shapes its results) and appends one entry per completed task the moment
it reaches the parent process.  A killed sweep rerun with ``--resume``
recomputes only the missing tasks; since every task is a pure function
of its inputs, a resumed sweep equals a clean one bit for bit.

Format (``<cache root>/journals/<sweep key>.jsonl``) — append-only
JSONL, one completed task per line::

    {"task": "<task key>", "sha": "<blake2b of payload>", "data": "<base64 pickle>"}

Robustness:

* appends are a single ``write`` + flush + fsync of one line, so a
  crash can tear at most the final line;
* every line carries a payload checksum; torn, garbled or mismatched
  lines are skipped on load (that task is simply recomputed);
* the sweep key hashes all sweep parameters (and the journal format
  version), so ``--resume`` with different kernels, scale, seed, GPU or
  sampling settings can never reuse stale results — it lands on a
  different journal;
* a fresh (non-resume) run truncates the journal first, so entries
  from an older run of the same sweep cannot leak into a later resume.

The payloads are pickles written and read only by this library on the
local machine — the same trust model as the profile cache.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pickle
from functools import partial
from pathlib import Path
from typing import Callable, Mapping, TypeVar

from repro.exec.cache import default_cache_dir
from repro.exec.engine import ExecutionConfig, parallel_map

T = TypeVar("T")
R = TypeVar("R")

#: Journal entry/key format version; bumping invalidates every journal.
JOURNAL_FORMAT_VERSION = 1


def journal_dir(cache_dir: str | Path | None = None) -> Path:
    """``<cache root>/journals`` — journals sit next to the profile
    cache: under ``cache_dir`` when given, else under the default cache
    root (which honours ``$TBPOINT_CACHE_DIR``), so one ``--cache-dir``
    relocates all persistent state together."""
    return (Path(cache_dir) if cache_dir else default_cache_dir()) / "journals"


def list_journals(root: str | Path) -> list[Path]:
    """Every sweep journal under ``root``, **sorted by path**.

    Like :meth:`repro.exec.cache.ProfileCache.entries`, the sort is a
    determinism contract: filesystem enumeration order varies across
    machines, and any tooling iterating journals (inspection, pruning,
    reporting) must see the same order everywhere.  DET005 in
    ``repro lint`` enforces the rule tree-wide."""
    root = Path(root)
    if not root.is_dir():
        return []
    return sorted(root.glob("*.jsonl"))


def journals_info(root: str | Path) -> dict:
    """What ``repro cache info`` reports about the journals directory:
    how many sweep journals exist, their total size, and the sweep key
    of the most recently written one (its filename stem — journals are
    content-keyed, so the stem *is* the sweep identity)."""
    journals = list_journals(root)
    sizes: list[int] = []
    newest: tuple[float, str] | None = None
    for path in journals:
        try:
            stat = path.stat()
        except OSError:
            continue  # unlinked between glob and stat; skip, don't crash
        sizes.append(stat.st_size)
        if newest is None or stat.st_mtime > newest[0]:
            newest = (stat.st_mtime, path.stem)
    return {
        "dir": str(root),
        "journals": len(sizes),
        "bytes": sum(sizes),
        "newest_key": newest[1] if newest else None,
    }


def sweep_key(sweep: str, params: object) -> str:
    """Content key of one sweep invocation: the driver name plus the
    ``repr`` of every result-shaping parameter (all are frozen
    dataclasses / primitives with stable reprs), salted with the
    journal format version."""
    ident = repr((sweep, params, "journal", JOURNAL_FORMAT_VERSION))
    return hashlib.blake2b(ident.encode(), digest_size=20).hexdigest()


def _payload_sha(payload: bytes) -> str:
    return hashlib.blake2b(payload, digest_size=16).hexdigest()


class SweepJournal:
    """Append-only record of completed tasks for one sweep identity."""

    def __init__(self, path: str | Path):
        self.path = Path(path)

    @classmethod
    def for_sweep(
        cls, sweep: str, params: object, root: str | Path
    ) -> "SweepJournal":
        return cls(Path(root) / f"{sweep_key(sweep, params)}.jsonl")

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def record(self, task_key: str, result: object) -> None:
        """Durably append one completed task.  Best-effort: an
        unwritable journal location costs only resumability, never the
        sweep (mirrors the profile cache's contract)."""
        try:
            payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
            line = json.dumps(
                {
                    "task": task_key,
                    "sha": _payload_sha(payload),
                    "data": base64.b64encode(payload).decode("ascii"),
                }
            )
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a") as fh:
                fh.write(line + "\n")
                fh.flush()
                os.fsync(fh.fileno())
        except (OSError, pickle.PicklingError, AttributeError, TypeError):
            # AttributeError/TypeError: how pickle actually reports
            # unpicklable objects (lambdas, locks, ...).
            pass

    def reset(self) -> None:
        """Start this sweep's journal afresh (non-resume runs call this
        so a later ``--resume`` only ever sees the current run)."""
        try:
            self.path.unlink()
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def load(self) -> dict[str, object]:
        """All recoverable entries, ``task key -> result``.  Torn or
        corrupt lines are skipped (their tasks get recomputed); when a
        task was journaled twice the later entry wins."""
        entries: dict[str, object] = {}
        try:
            with open(self.path) as fh:
                lines = fh.readlines()
        except OSError:
            return entries
        for line in lines:
            try:
                record = json.loads(line)
                payload = base64.b64decode(record["data"])
                if _payload_sha(payload) != record["sha"]:
                    continue
                entries[str(record["task"])] = pickle.loads(payload)
            except KeyboardInterrupt:
                raise
            except Exception:
                continue  # torn tail, garbage, truncated base64, ...
        return entries

    def __len__(self) -> int:
        return len(self.load())


def _run_task(
    fn: Callable[[T, ExecutionConfig], R], config: ExecutionConfig, item: T
) -> R:
    return fn(item, config)


def run_sweep(
    sweep: str,
    params: object,
    tasks: Mapping[str, T],
    fn: Callable[[T, ExecutionConfig], R],
    config: ExecutionConfig,
    meta: dict | None = None,
) -> dict[str, R]:
    """Run ``tasks`` (task key -> item) and return ``{key: result}`` in
    input order.  The ``n`` tasks still to do are mapped by
    :func:`~repro.exec.engine.parallel_map` as
    ``fn(item, config.for_tasks(n))``, so pools never nest.  With
    ``config.use_cache`` the sweep keeps a journal under
    :func:`journal_dir`, keyed by ``(sweep, params)``: a fresh run
    resets it, a ``resume`` run skips what it records, and each result
    is recorded as it lands.  ``meta`` is filled in place with the
    map's record (``items`` counts only the tasks computed here) plus
    ``resumed``, the number of tasks read back from the journal."""
    journal: SweepJournal | None = None
    done: dict = {}
    if config.use_cache:
        journal = SweepJournal.for_sweep(
            sweep, params, journal_dir(config.cache_dir)
        )
        if config.resume:
            done = journal.load()
        else:
            journal.reset()
    todo = [key for key in tasks if key not in done]
    on_result = None
    if journal is not None:
        on_result = lambda i, result: journal.record(todo[i], result)
    meta = {} if meta is None else meta
    fresh = parallel_map(
        partial(_run_task, fn, config.for_tasks(len(todo))),
        [tasks[key] for key in todo],
        config.effective_jobs,
        meta=meta, config=config, on_result=on_result,
    )
    meta["resumed"] = len(tasks) - len(todo)
    results = {**done, **dict(zip(todo, fresh))}
    return {key: results[key] for key in tasks}


__all__ = [
    "JOURNAL_FORMAT_VERSION",
    "SweepJournal",
    "journal_dir",
    "journals_info",
    "list_journals",
    "run_sweep",
    "sweep_key",
]
