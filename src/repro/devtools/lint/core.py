"""Lint framework core: findings, parsed files, pragmas, checker registry.

The framework is deliberately small and dependency-free: a *checker* is
a class with a ``name``, a ``rules`` table and either a per-file
``check_file(parsed_file)`` hook or a project-wide
``check_project(context)`` hook (or both).  Checkers register
themselves with :func:`register`; the runner instantiates every
registered checker, walks the requested files in sorted order (the
linter eats its own determinism dogfood) and applies pragma suppression
and the baseline before reporting.

Pragma syntax (found in comments, via :mod:`tokenize`):

* ``# lint: disable=RULE[,RULE...]`` — suppress those rules on this
  line (trailing comment) or, when the comment stands alone on its own
  line, on the next line;
* ``# lint: disable-file=RULE[,RULE...]`` — suppress for the whole file;
* ``# lint: hot`` — mark the ``def``/``for``/``while`` on this line (or
  the line below the comment) as a *hot region* for the hot-loop
  checker.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

#: Bump whenever rules change behaviour; reported in ``--json`` output.
LINT_VERSION = 1

_PRAGMA_RE = re.compile(
    r"#\s*lint:\s*(?P<kind>disable-file|disable|hot)\s*(?:=\s*(?P<rules>[A-Za-z0-9_,\s]+))?"
)


@dataclass(frozen=True)
class Finding:
    """One lint finding, attached to a file position."""

    path: str  #: repo-relative posix path
    line: int
    col: int
    rule: str
    message: str
    checker: str = ""

    @property
    def baseline_key(self) -> str:
        """Line-number-free identity used by the baseline file, so a
        baselined legacy finding survives unrelated edits above it."""
        return f"{self.path}::{self.rule}::{self.message}"

    def as_dict(self) -> dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
            "checker": self.checker,
        }

    @property
    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)


class ParsedFile:
    """One source file: AST, raw lines, and the pragma tables."""

    def __init__(self, path: Path, rel: str, source: str):
        self.path = path
        self.rel = rel
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=str(path))
        #: line -> frozenset of suppressed rules on that line
        self.line_disables: dict[int, set[str]] = {}
        self.file_disables: set[str] = set()
        #: lines carrying a ``# lint: hot`` mark
        self.hot_lines: set[int] = set()
        self._scan_pragmas()

    # ------------------------------------------------------------------
    # Pragmas
    # ------------------------------------------------------------------
    def _scan_pragmas(self) -> None:
        try:
            tokens = list(
                tokenize.generate_tokens(io.StringIO(self.source).readline)
            )
        except (tokenize.TokenError, IndentationError):  # pragma: no cover
            return
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _PRAGMA_RE.search(tok.string)
            if match is None:
                continue
            line = tok.start[0]
            # A comment alone on its line applies to the next line.
            alone = self.lines[line - 1].lstrip().startswith("#")
            kind = match.group("kind")
            if kind == "hot":
                self.hot_lines.add(line + 1 if alone else line)
                continue
            rules = {
                r.strip() for r in (match.group("rules") or "").split(",")
                if r.strip()
            }
            if not rules:
                continue
            if kind == "disable-file":
                self.file_disables |= rules
            else:
                target = line + 1 if alone else line
                self.line_disables.setdefault(target, set()).update(rules)

    def is_suppressed(self, line: int, rule: str) -> bool:
        if rule in self.file_disables:
            return True
        return rule in self.line_disables.get(line, ())

    def is_hot_marked(self, node: ast.AST) -> bool:
        """Is this ``def``/``for``/``while`` marked ``# lint: hot``?"""
        line = getattr(node, "lineno", None)
        return line is not None and line in self.hot_lines

    # ------------------------------------------------------------------
    # Helpers checkers share
    # ------------------------------------------------------------------
    @property
    def parts(self) -> tuple[str, ...]:
        return tuple(Path(self.rel).parts)

    def in_dirs(self, names: Iterable[str]) -> bool:
        """Does the file live under any directory with one of these
        names (at any depth)?  Used for subsystem-scoped rules."""
        dirs = set(self.parts[:-1])
        return any(name in dirs for name in names)


@dataclass
class FunctionInfo:
    """One function/method definition in the lightweight per-package
    call graph (see :meth:`ProjectContext.package_functions`)."""

    pf: "ParsedFile"
    node: "ast.FunctionDef | ast.AsyncFunctionDef"
    name: str
    is_async: bool
    #: Bare names this function calls directly (``f()`` -> ``f``,
    #: ``self.g()``/``x.g()`` -> ``g``); nested defs are not descended
    #: into.  Name-based, so distinct methods sharing a name collide —
    #: checkers must treat ambiguous resolutions conservatively.
    calls: frozenset[str] = frozenset()


def _bare_callee(node: ast.Call) -> str | None:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


@dataclass
class ProjectContext:
    """What project-wide checkers see: every linted file plus the parsed
    test suite (for cross-referencing implementations against tests)."""

    files: list[ParsedFile]
    test_files: list[ParsedFile] = field(default_factory=list)
    _pkg_graphs: dict[str, dict[str, list[FunctionInfo]]] = field(
        default_factory=dict, repr=False
    )

    def by_rel(self, rel: str) -> ParsedFile | None:
        for pf in self.files:
            if pf.rel == rel:
                return pf
        return None

    def package_functions(self, pf: ParsedFile) -> dict[str, list[FunctionInfo]]:
        """The package call graph for ``pf``'s directory: every function
        and method defined in any linted file sharing that directory,
        keyed by bare name.  One level of resolution only — enough to
        see through a sync helper in the same package, cheap enough to
        build per lint run.  Built lazily and cached per directory."""
        directory = Path(pf.rel).parent.as_posix()
        graph = self._pkg_graphs.get(directory)
        if graph is None:
            graph = {}
            for other in self.files:
                if Path(other.rel).parent.as_posix() != directory:
                    continue
                for node in ast.walk(other.tree):
                    if not isinstance(
                        node, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        continue
                    calls = frozenset(
                        name
                        for sub in walk_skipping_functions(node)
                        if isinstance(sub, ast.Call)
                        and (name := _bare_callee(sub)) is not None
                    )
                    graph.setdefault(node.name, []).append(
                        FunctionInfo(
                            pf=other,
                            node=node,
                            name=node.name,
                            is_async=isinstance(node, ast.AsyncFunctionDef),
                            calls=calls,
                        )
                    )
            self._pkg_graphs[directory] = graph
        return graph


class Checker:
    """Base class: subclass, set ``name`` and ``rules``, implement
    ``check_file`` and/or ``check_project``, and decorate with
    :func:`register`."""

    #: unique checker name (used by ``--checker`` selection)
    name: str = ""
    #: rule id -> one-line description
    rules: dict[str, str] = {}

    def check_file(self, pf: ParsedFile) -> Iterator[Finding]:
        return iter(())

    def check_project(self, ctx: ProjectContext) -> Iterator[Finding]:
        return iter(())


#: Registered checker classes, in registration order.
REGISTRY: dict[str, type[Checker]] = {}


def register(cls: type[Checker]) -> type[Checker]:
    """Class decorator adding a checker to the global registry."""
    if not cls.name:
        raise ValueError(f"checker {cls.__name__} has no name")
    if cls.name in REGISTRY:
        raise ValueError(f"duplicate checker name {cls.name!r}")
    for rule in cls.rules:
        owner = rule_owner(rule)
        if owner is not None:
            raise ValueError(
                f"rule {rule} already owned by checker {owner!r}"
            )
    REGISTRY[cls.name] = cls
    return cls


def rule_owner(rule: str) -> str | None:
    for name, cls in REGISTRY.items():
        if rule in cls.rules:
            return name
    return None


def all_rules() -> dict[str, str]:
    """Every registered rule id -> description, sorted by id."""
    out: dict[str, str] = {}
    for cls in REGISTRY.values():
        out.update(cls.rules)
    return dict(sorted(out.items()))


# ----------------------------------------------------------------------
# Shared AST utilities
# ----------------------------------------------------------------------

def import_map(tree: ast.Module) -> dict[str, str]:
    """Map local names to the dotted origins they were imported as:
    ``import numpy as np`` -> ``{"np": "numpy"}``;
    ``from time import monotonic as mono`` -> ``{"mono": "time.monotonic"}``.
    Only module-level and function-level imports are walked — wherever
    they appear, the alias is recorded (shadowing is rare enough not to
    matter for lint purposes)."""
    out: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
                if alias.asname:
                    out[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                out[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return out


def qualified_name(node: ast.AST, imports: dict[str, str]) -> str | None:
    """Resolve a ``Name``/``Attribute`` chain to its dotted origin using
    the file's import aliases; ``None`` for anything unresolvable
    (calls on computed objects, subscripts, ...)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    base = imports.get(node.id, node.id)
    parts.append(base)
    return ".".join(reversed(parts))


def walk_skipping_functions(node: ast.AST) -> Iterator[ast.AST]:
    """Walk a subtree without descending into nested function/class
    definitions (their bodies execute in their own scope/time)."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
        ):
            continue
        stack.extend(ast.iter_child_nodes(child))
