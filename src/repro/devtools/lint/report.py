"""Finding reporters: human-readable text and machine-readable JSON."""

from __future__ import annotations

import json

from repro.devtools.lint.core import Finding, all_rules
from repro.devtools.lint.runner import LintResult


def format_finding(finding: Finding, baselined: bool = False) -> str:
    tag = " [baselined]" if baselined else ""
    return (
        f"{finding.path}:{finding.line}:{finding.col + 1}: "
        f"{finding.rule}{tag} {finding.message}"
    )


def format_human(result: LintResult, show_baselined: bool = True) -> str:
    lines: list[str] = []
    lines.extend(f"error: {err}" for err in result.errors)
    baselined_keys = {id(f) for f in result.baselined}
    for finding in result.findings:
        is_old = id(finding) in baselined_keys
        if is_old and not show_baselined:
            continue
        lines.append(format_finding(finding, baselined=is_old))
    summary = (
        f"{len(result.new)} finding(s)"
        + (f" + {len(result.baselined)} baselined" if result.baselined else "")
        + f" in {result.files_checked} file(s)"
    )
    lines.append(summary)
    return "\n".join(lines)


def format_json(result: LintResult) -> str:
    return json.dumps(result.as_dict(), indent=2, sort_keys=True)


def format_rules() -> str:
    """``--list-rules`` output: every registered rule and description."""
    rules = all_rules()
    width = max(len(rule) for rule in rules)
    return "\n".join(
        f"{rule:<{width}}  {desc}" for rule, desc in rules.items()
    )
