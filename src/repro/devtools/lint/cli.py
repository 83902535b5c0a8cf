"""``repro lint`` / ``python -m repro.devtools.lint`` command line.

Exit codes: 0 — clean (no findings; or, with ``--error-on-new``, no
*non-baselined* findings); 1 — findings; 2 — usage or parse errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.devtools.lint.baseline import (
    DEFAULT_BASELINE_NAME,
    write_baseline,
)
from repro.devtools.lint.report import format_human, format_json, format_rules
from repro.devtools.lint.runner import run_lint

def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the lint arguments; shared by the standalone entry point
    and the ``repro lint`` subcommand so their flags never drift."""
    parser.add_argument(
        "paths", nargs="*", type=Path,
        help="directories or .py files to lint (default: src/repro); "
             "any other path is a usage error (exit 2)",
    )
    parser.add_argument(
        "--root", type=Path, default=None,
        help="repository root for relative paths and defaults "
             "(default: current directory)",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit machine-readable JSON instead of text",
    )
    parser.add_argument(
        "--baseline", type=Path, default=None, metavar="FILE",
        help=f"baseline suppression file (default: <root>/"
             f"{DEFAULT_BASELINE_NAME} when it exists)",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="accept every current finding into the baseline file and "
             "exit 0",
    )
    parser.add_argument(
        "--error-on-new", action="store_true",
        help="fail only on findings the baseline does not cover "
             "(the CI mode); without this flag any finding fails",
    )
    parser.add_argument(
        "--rules", type=str, default=None, metavar="RULES",
        help="comma-separated rule ids or family prefixes to run "
             "(e.g. ASYNC,DET001); unknown names are a usage error "
             "(exit 2)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list every registered rule and exit",
    )


def run(args: argparse.Namespace) -> int:
    """Execute a configured lint invocation; returns the exit code."""
    if args.list_rules:
        print(format_rules())
        return 0

    root = (args.root or Path.cwd()).resolve()
    baseline_path = args.baseline
    # An explicit --baseline must exist and parse (exit 2 otherwise: a
    # typo'd path silently meaning "empty baseline" flips CI red — or,
    # with --write-baseline, green — for the wrong reason).  The
    # auto-discovered default stays lenient.
    baseline_strict = baseline_path is not None and not args.write_baseline
    if baseline_path is None:
        candidate = root / DEFAULT_BASELINE_NAME
        if candidate.is_file() or args.write_baseline:
            baseline_path = candidate
    rules = None
    if args.rules is not None:
        rules = [spec for spec in args.rules.split(",") if spec.strip()]

    try:
        result = run_lint(
            paths=args.paths or None,
            root=root,
            baseline_path=None if args.write_baseline else baseline_path,
            rules=rules,
            baseline_strict=baseline_strict,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.write_baseline:
        assert baseline_path is not None
        entries = write_baseline(baseline_path, result.findings)
        print(
            f"baseline written to {baseline_path}: {entries} entr"
            f"{'y' if entries == 1 else 'ies'} covering "
            f"{len(result.findings)} finding(s)"
        )
        return 0

    print(format_json(result) if args.as_json else format_human(result))
    if result.errors:
        return 2
    if args.error_on_new:
        return 0 if result.ok_against_baseline else 1
    return 0 if result.ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.devtools.lint",
        description="Static determinism/process-safety and "
                    "concurrency-contract checks (async/fork safety) "
                    "for the reproduction.",
    )
    configure_parser(parser)
    return run(parser.parse_args(argv))
