"""Lint runner: file discovery and checker execution.

Determinism note: the runner is itself held to the determinism contract
it enforces — files are discovered with ``sorted(rglob(...))``
(# the linter's own DET005 discipline), checkers run in registration
order, and findings are reported in ``(path, line, col, rule)`` order,
so two runs over the same tree produce byte-identical output.

Every run parses every file afresh: the whole tree lints in a few
seconds, so no cache stands between an edit and its findings.
Project-wide checkers (oracle parity, async safety, counter parity)
see every linted file plus the parsed test suite.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from repro.devtools.lint import checkers as _builtin_checkers  # noqa: F401
from repro.devtools.lint.baseline import load_baseline, split_by_baseline
from repro.devtools.lint.core import (
    LINT_VERSION,
    Checker,
    Finding,
    ParsedFile,
    ProjectContext,
    REGISTRY,
)

#: Version of the ``--json`` output shape (key set/meaning), distinct
#: from :data:`LINT_VERSION` which tracks rule behaviour.  CI parses
#: against this.
JSON_SCHEMA_VERSION = 2


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: list[Finding]          #: every non-suppressed finding, sorted
    new: list[Finding]               #: findings not covered by the baseline
    baselined: list[Finding]         #: findings the baseline accepts
    files_checked: int = 0
    errors: list[str] = field(default_factory=list)  #: unparsable files

    @property
    def ok(self) -> bool:
        return not self.findings

    @property
    def ok_against_baseline(self) -> bool:
        return not self.new

    def as_dict(self) -> dict[str, object]:
        return {
            "schema": JSON_SCHEMA_VERSION,
            "version": LINT_VERSION,
            "files_checked": self.files_checked,
            "errors": list(self.errors),
            "counts": dict(
                sorted(Counter(f.rule for f in self.findings).items())
            ),
            "new": [f.as_dict() for f in self.new],
            "baselined": [f.as_dict() for f in self.baselined],
        }


def discover_files(paths: list[Path]) -> list[Path]:
    """Every ``.py`` file under the given paths, sorted (DET005: never
    depend on filesystem enumeration order)."""
    out: list[Path] = []
    for path in paths:
        if path.is_dir():
            out.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            out.append(path)
    seen: set[Path] = set()
    unique = []
    for path in sorted(out):
        if path not in seen:
            seen.add(path)
            unique.append(path)
    return unique


def _rel(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def select_rules(specs: list[str]) -> set[str]:
    """Resolve ``--rules`` entries (exact rule ids or family prefixes:
    ``ASYNC001`` or ``ASYNC``) against the registry.  An entry matching
    nothing is a usage error (``ValueError`` -> exit 2): a typo'd rule
    filter silently meaning "skip everything" would green-light CI."""
    registered = sorted(
        rule for cls in REGISTRY.values() for rule in cls.rules
    )
    selected: set[str] = set()
    unknown: list[str] = []
    for spec in specs:
        spec = spec.strip().upper()
        if not spec:
            continue
        matched = {r for r in registered if r == spec or r.startswith(spec)}
        if not matched:
            unknown.append(spec)
        selected |= matched
    if unknown:
        raise ValueError(
            f"unknown rule(s) {unknown}; registered rules: {registered}"
        )
    return selected


def run_lint(
    paths: list[Path] | None = None,
    root: Path | None = None,
    tests_dir: Path | None = None,
    baseline_path: Path | None = None,
    checker_names: list[str] | None = None,
    rules: list[str] | None = None,
    baseline_strict: bool = False,
) -> LintResult:
    """Run the registered checkers over ``paths`` and return the result.

    Parameters
    ----------
    paths:
        Files/directories to lint (default: ``src/repro`` under
        ``root`` when it exists, else ``root`` itself).
    root:
        Repository root used for relative paths, default discovery and
        the default baseline location (default: cwd).
    tests_dir:
        Test-suite directory for the oracle-parity cross-reference
        (default: ``<root>/tests`` when it exists).
    baseline_path:
        Baseline suppression file; ``None`` means no baseline.
    checker_names:
        Subset of checkers to run (default: all registered).
    rules:
        Rule ids or family prefixes (``["ASYNC", "CTR001"]``) limiting
        which rules run/report; unknown entries raise ``ValueError``.
    baseline_strict:
        Raise :class:`~repro.devtools.lint.baseline.BaselineError` on
        an unreadable/invalid baseline instead of treating it as empty
        (used when the baseline path was given explicitly).
    """
    root = (root or Path.cwd()).resolve()
    if paths is None:
        default = root / "src" / "repro"
        paths = [default if default.is_dir() else root]
    if tests_dir is None:
        candidate = root / "tests"
        tests_dir = candidate if candidate.is_dir() else None

    selected = select_rules(rules) if rules is not None else None

    active: list[Checker] = []
    for name, cls in REGISTRY.items():
        if checker_names is not None and name not in checker_names:
            continue
        if selected is not None and not set(cls.rules) & selected:
            continue
        active.append(cls())
    if checker_names is not None:
        unknown = sorted(set(checker_names) - set(REGISTRY))
        if unknown:
            raise ValueError(
                f"unknown checkers {unknown}; registered: {sorted(REGISTRY)}"
            )

    def _wanted(finding: Finding) -> bool:
        return selected is None or finding.rule in selected

    result = LintResult(findings=[], new=[], baselined=[])
    parsed: list[ParsedFile] = []
    raw: list[Finding] = []

    for path in discover_files(list(paths)):
        rel = _rel(path, root)
        try:
            source = path.read_text()
        except (OSError, UnicodeDecodeError) as exc:
            result.errors.append(f"{rel}: unreadable ({exc})")
            continue
        try:
            pf = ParsedFile(path, rel, source)
        except SyntaxError as exc:
            result.errors.append(f"{rel}: syntax error ({exc.msg})")
            continue
        parsed.append(pf)
        result.files_checked += 1
        for checker in active:
            for finding in checker.check_file(pf):
                if _wanted(finding) and not pf.is_suppressed(
                    finding.line, finding.rule
                ):
                    raw.append(finding)

    test_files: list[ParsedFile] = []
    if tests_dir is not None:
        for path in discover_files([tests_dir]):
            try:
                test_files.append(
                    ParsedFile(path, _rel(path, root), path.read_text())
                )
            except (OSError, UnicodeDecodeError, SyntaxError):
                continue  # unparsable test files cannot vouch for coverage
    ctx = ProjectContext(files=parsed, test_files=test_files)
    by_rel = {pf.rel: pf for pf in parsed}
    for checker in active:
        for finding in checker.check_project(ctx):
            pf = by_rel.get(finding.path)
            if pf is not None and pf.is_suppressed(finding.line, finding.rule):
                continue
            if _wanted(finding):
                raw.append(finding)

    result.findings = sorted(raw, key=lambda f: f.sort_key)
    baseline = load_baseline(baseline_path, strict=baseline_strict)
    result.new, result.baselined = split_by_baseline(result.findings, baseline)
    return result
