"""Batch execution engine: fault-tolerant parallel fan-out, persistent
profile cache, and sweep checkpoint journal.

Three orthogonal services behind one configuration object
(:class:`ExecutionConfig`):

* :func:`parallel_map` — deterministic, fault-tolerant process-pool
  fan-out (results always in input order, bit-identical to the serial
  path, with per-task timeouts, bounded per-task retries and per-task
  serial fallback — DESIGN.md §9) on the repo's one supervised worker
  pool, :mod:`repro.exec.pool`, which the ``repro serve`` daemon runs
  on too;
* :class:`ProfileCache` — a content-addressed on-disk store of the
  one-time functional profiles, so ``profile_kernel`` runs once per
  kernel trace *ever* (the profile is hardware-independent, Sec. V-C);
* :func:`run_sweep` — the one runner of ``run_fig9_fig10`` /
  ``run_breakdown`` / ``run_sensitivity`` / ``run_scaling``: with the
  cache on it checkpoints completed tasks to a :class:`SweepJournal`,
  so a killed sweep resumes (CLI ``--resume``) instead of restarting.

:mod:`repro.exec.faults` provides the deterministic fault-injection
harness (:class:`FaultPlan`) that the chaos tests drive through all of
the above.

``run_tbpoint``, ``run_full`` and every experiment driver accept an
``exec_config``; the CLI exposes it as ``--jobs`` / ``--no-cache`` /
``--cache-dir`` / ``--task-timeout`` / ``--retries`` / ``--resume``
plus the ``repro cache {info,clear}`` maintenance commands.
"""

from repro.exec.cache import (
    CACHE_FORMAT_VERSION,
    ProfileCache,
    cached_profile,
    default_cache_dir,
    kernel_cache_key,
    kernel_fingerprint,
)
from repro.exec.engine import (
    DEFAULT_EXECUTION,
    ExecutionConfig,
    default_jobs,
    parallel_map,
)
from repro.exec.faults import (
    Fault,
    FaultPlan,
    InjectedFault,
    crash_plan,
    hang_plan,
    raise_plan,
)
from repro.exec.journal import (
    JOURNAL_FORMAT_VERSION,
    SweepJournal,
    journal_dir,
    journals_info,
    list_journals,
    run_sweep,
    sweep_key,
)

__all__ = [
    "ExecutionConfig",
    "DEFAULT_EXECUTION",
    "default_jobs",
    "parallel_map",
    "ProfileCache",
    "cached_profile",
    "default_cache_dir",
    "kernel_cache_key",
    "kernel_fingerprint",
    "CACHE_FORMAT_VERSION",
    "Fault",
    "FaultPlan",
    "InjectedFault",
    "crash_plan",
    "hang_plan",
    "raise_plan",
    "SweepJournal",
    "JOURNAL_FORMAT_VERSION",
    "journal_dir",
    "journals_info",
    "list_journals",
    "run_sweep",
    "sweep_key",
]
