"""Persistent sweep checkpoint journal: crash recovery for long sweeps.

A multi-hour Fig. 9/10 or sensitivity sweep must not restart from zero
because the machine rebooted at kernel 11 of 12.  Each sweep driver
(``run_fig9_fig10``, ``run_sensitivity``, ``run_scaling``) opens a
:class:`SweepJournal` keyed by the *content* of the sweep — driver name
plus every parameter that shapes its results — and appends one entry per
completed kernel task the moment the result reaches the parent process.
A killed sweep rerun with ``--resume`` loads the journal and recomputes
only the missing tasks; since every task is a pure function of its
inputs, the journaled results are bit-identical to what recomputing
them would produce, so a resumed sweep equals a clean one.

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
from pathlib import Path

from repro.exec.cache import default_cache_dir

#: Journal entry/key format version; bumping invalidates every journal.
JOURNAL_FORMAT_VERSION = 1


def default_journal_dir() -> Path:
    """``<cache root>/journals`` — journals sit next to the profile
    cache (and honour ``$TBPOINT_CACHE_DIR`` the same way)."""
    return default_cache_dir() / "journals"


def list_journals(journal_dir: str | Path | None = None) -> list[Path]:
    """Every sweep journal under ``journal_dir``, **sorted by path**.

    Like :meth:`repro.exec.cache.ProfileCache.entries`, the sort is a
    determinism contract: filesystem enumeration order varies across
    machines, and any tooling iterating journals (inspection, pruning,
    reporting) must see the same order everywhere.  DET005 in
    ``repro lint`` enforces the rule tree-wide."""
    root = Path(journal_dir) if journal_dir else default_journal_dir()
    if not root.is_dir():
        return []
    return sorted(root.glob("*.jsonl"))


def journals_info(journal_dir: str | Path | None = None) -> dict:
    """What ``repro cache info`` reports about the journals directory:
    how many sweep journals exist, their total size, and the sweep key
    of the most recently written one (its filename stem — journals are
    content-keyed, so the stem *is* the sweep identity)."""
    root = Path(journal_dir) if journal_dir else default_journal_dir()
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
        cls, sweep: str, params: object, journal_dir: str | Path | None = None
    ) -> "SweepJournal":
        root = Path(journal_dir) if journal_dir else default_journal_dir()
        return cls(root / f"{sweep_key(sweep, params)}.jsonl")

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


def open_sweep_journal(
    sweep: str, params: object, exec_config
) -> tuple["SweepJournal | None", dict[str, object]]:
    """The one call sweep drivers make: honour the execution config's
    journaling knobs and return ``(journal, completed)``.

    * journaling off → ``(None, {})``;
    * ``resume`` → the journal plus everything it already records;
    * fresh run → the journal, reset, with nothing completed.
    """
    if not (exec_config.journal or exec_config.resume):
        return None, {}
    # Keep journals next to an overridden profile cache so one
    # --cache-dir relocates all persistent state together.
    cache_dir = exec_config.cache_dir
    root = Path(cache_dir) / "journals" if cache_dir else None
    journal = SweepJournal.for_sweep(sweep, params, root)
    if exec_config.resume:
        return journal, journal.load()
    journal.reset()
    return journal, {}


__all__ = [
    "JOURNAL_FORMAT_VERSION",
    "SweepJournal",
    "default_journal_dir",
    "journals_info",
    "list_journals",
    "open_sweep_journal",
    "sweep_key",
]
