"""Developer tooling for the reproduction: static analysis (`repro lint`).

Every fast path in this repository stakes its correctness on one
invariant: fast paths are bit-identical to their reference oracles, and
parallel/chaos runs are bit-identical to clean serial runs.  The
property-test suites enforce that invariant *dynamically*; this package
enforces the preconditions *statically*, at review time — before a newly
added wall-clock read, unseeded RNG or unpicklable closure ever reaches
a test run.

Entry points:

* ``repro lint`` (the ``python -m repro`` CLI subcommand);
* ``python -m repro.devtools.lint`` (standalone, same flags);
* :func:`repro.devtools.lint.run_lint` (library API, used by the tests).

See ``DESIGN.md`` §10 ("Static determinism contract") for the rules,
the pragma syntax and how to baseline legacy findings.
"""

from repro.devtools.lint import run_lint  # noqa: F401

__all__ = ["run_lint"]
