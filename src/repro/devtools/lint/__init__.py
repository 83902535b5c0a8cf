"""``repro lint``: AST-based static checks for this repository's
determinism, process-safety, hot-loop and oracle-parity contracts
(DESIGN.md §10) and the serving stack's concurrency contracts —
async/fork safety and counter parity (DESIGN.md §15).

Library API::

    from repro.devtools.lint import run_lint
    result = run_lint(paths=[Path("src/repro")], root=Path("."))
    result.new          # findings not covered by the baseline
    result.findings     # everything, sorted by (path, line, col, rule)

See :mod:`repro.devtools.lint.core` for the checker framework and the
pragma syntax, and the ``checkers`` package for the built-in rules.
"""

from repro.devtools.lint.core import (
    Checker,
    Finding,
    ParsedFile,
    ProjectContext,
    REGISTRY,
    all_rules,
    register,
)
from repro.devtools.lint.runner import LintResult, run_lint

__all__ = [
    "Checker",
    "Finding",
    "LintResult",
    "ParsedFile",
    "ProjectContext",
    "REGISTRY",
    "all_rules",
    "register",
    "run_lint",
]
