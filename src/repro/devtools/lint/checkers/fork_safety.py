"""Fork-safety checker: what may and may not cross a fork boundary.

The repo's one worker pool (``exec/pool.py``, DESIGN.md §9 and §14)
forks long-lived worker processes for both ``parallel_map`` and the
serving stack.  Two conventions keep that safe, enforced here:

FORK001
    A thread-bound or loop-bound object reaching a child process
    through ``multiprocessing`` ``args``/``initargs``: ``threading``
    locks/events/conditions, ``asyncio`` primitives, sockets and
    ``StreamWriter`` handles are bound to the thread or event loop that
    created them — under ``fork`` the child inherits a frozen copy
    (a lock can be inherited *held*), under ``spawn`` they fail to
    pickle at runtime.  Pipe ``Connection`` objects and plain picklable
    config dataclasses are the supported currency.  Detection covers
    inline constructor calls in the argument tuple and names assigned
    from such constructors in the same function or at module level.
FORK002
    A worker entry point (a function referenced as ``target=`` of a
    ``Process(...)`` call or ``initializer=`` of a pool, in the same
    file) that rebinds a module global (``global X`` + assignment)
    without the parent-PID guard pattern from ``exec/faults.py``
    (comparing ``os.getpid()`` against a recorded parent pid).  A fork
    shares the module namespace *pre-fork*; a worker entry that also
    runs in the parent (degraded/serial fallback) silently clobbers
    parent state.  In-place mutation of per-process containers (the
    ``sim/worker.py`` ``_SIMS`` registry, the pool's heartbeat channel,
    serve's ``_RUNNER``) is deliberately not flagged — rebinding is the
    footgun.  Cross-module ``target=`` references are
    a known false-negative edge (DESIGN.md §15).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.lint.core import (
    Checker,
    Finding,
    ParsedFile,
    import_map,
    qualified_name,
    register,
    walk_skipping_functions,
)

#: Constructors whose results must never cross a fork boundary.
_THREAD_BOUND_CTORS = {
    "threading.Lock",
    "threading.RLock",
    "threading.Event",
    "threading.Condition",
    "threading.Semaphore",
    "threading.BoundedSemaphore",
    "threading.Barrier",
    "asyncio.Lock",
    "asyncio.Event",
    "asyncio.Condition",
    "asyncio.Semaphore",
    "asyncio.Queue",
    "socket.socket",
    "socket.create_connection",
}

#: Callee names that spawn children whose argument tuples we inspect
#: (``parallel_map`` forwards ``initializer``/``initargs`` straight to
#: the worker pool's processes, so its call sites are spawn sites too;
#: the other names are the standard library's process constructors).
_SPAWN_CALLEES = {"Process", "Pool", "ProcessPoolExecutor", "parallel_map"}

#: Keywords carrying values into the child.
_CHILD_ARG_KEYWORDS = {"args", "initargs"}

#: Keywords naming the child's entry function.
_TARGET_KEYWORDS = {"target", "initializer"}


def _callee_name(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _thread_bound_ctor(node: ast.AST, imports: dict[str, str]) -> str | None:
    """The offending constructor's dotted name when ``node`` is a call
    to one, else ``None``."""
    if not isinstance(node, ast.Call):
        return None
    qual = qualified_name(node.func, imports)
    if qual in _THREAD_BOUND_CTORS:
        return qual
    return None


def _bound_names(tree: ast.AST, imports: dict[str, str]) -> dict[str, str]:
    """Names assigned from a thread-bound constructor anywhere in the
    subtree: ``lock = threading.Lock()`` -> ``{"lock": "threading.Lock"}``."""
    out: dict[str, str] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        ctor = _thread_bound_ctor(node.value, imports)
        if ctor is None:
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                out[target.id] = ctor
    return out


def _annotation_is_writer(node: ast.AST) -> bool:
    """Does an annotation name ``StreamWriter`` (loop-bound transport)?"""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id == "StreamWriter":
            return True
        if isinstance(sub, ast.Attribute) and sub.attr == "StreamWriter":
            return True
    return False


def _writer_params(tree: ast.AST) -> set[str]:
    """Parameter/variable names annotated as ``StreamWriter`` anywhere
    in the file."""
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            if _annotation_is_writer(node.annotation):
                out.add(node.arg)
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            if _annotation_is_writer(node.annotation):
                out.add(node.target.id)
    return out


def _has_pid_guard(fn: ast.FunctionDef) -> bool:
    """Does the function compare ``os.getpid()`` against anything (the
    ``exec/faults.py`` parent-PID guard shape)?"""
    for node in ast.walk(fn):
        if not isinstance(node, ast.Compare):
            continue
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr == "getpid"
            ):
                return True
    return False


@register
class ForkSafetyChecker(Checker):
    name = "fork-safety"
    rules = {
        "FORK001": "thread/loop-bound object passed into a child process",
        "FORK002": "worker entry rebinds a module global without a "
                   "parent-PID guard",
    }

    def check_file(self, pf: ParsedFile) -> Iterator[Finding]:
        imports = import_map(pf.tree)
        module_bound = _bound_names(pf.tree, imports)
        writers = _writer_params(pf.tree)
        target_names: set[str] = set()

        for node in ast.walk(pf.tree):
            if not isinstance(node, ast.Call):
                continue
            if _callee_name(node) not in _SPAWN_CALLEES:
                continue
            for kw in node.keywords:
                if kw.arg in _TARGET_KEYWORDS:
                    if isinstance(kw.value, ast.Name):
                        target_names.add(kw.value.id)
                    elif isinstance(kw.value, ast.Attribute):
                        target_names.add(kw.value.attr)
                if kw.arg not in _CHILD_ARG_KEYWORDS:
                    continue
                elements = (
                    kw.value.elts
                    if isinstance(kw.value, (ast.Tuple, ast.List))
                    else [kw.value]
                )
                for element in elements:
                    ctor = _thread_bound_ctor(element, imports)
                    name = None
                    if ctor is None and isinstance(element, ast.Name):
                        name = element.id
                        ctor = module_bound.get(name)
                        if ctor is None and name in writers:
                            ctor = "asyncio.StreamWriter"
                    if ctor is not None:
                        what = f"{name} (a {ctor})" if name else f"{ctor}()"
                        yield Finding(
                            pf.rel, element.lineno, element.col_offset,
                            "FORK001",
                            f"{what} passed into a child process via "
                            f"{kw.arg}=: thread/loop-bound objects do not "
                            "survive fork (and do not pickle under "
                            "spawn); pass picklable config and rebuild "
                            "in the child",
                            self.name,
                        )

        # FORK002: worker entry points referenced in this file.
        for node in ast.walk(pf.tree):
            if (
                not isinstance(node, ast.FunctionDef)
                or node.name not in target_names
            ):
                continue
            declared_globals = {
                name
                for sub in walk_skipping_functions(node)
                if isinstance(sub, ast.Global)
                for name in sub.names
            }
            if not declared_globals or _has_pid_guard(node):
                continue
            for sub in walk_skipping_functions(node):
                targets: list[ast.expr] = []
                if isinstance(sub, ast.Assign):
                    targets = sub.targets
                elif isinstance(sub, (ast.AugAssign, ast.AnnAssign)):
                    targets = [sub.target]
                for target in targets:
                    if (
                        isinstance(target, ast.Name)
                        and target.id in declared_globals
                    ):
                        yield Finding(
                            pf.rel, sub.lineno, sub.col_offset, "FORK002",
                            f"worker entry {node.name}() rebinds module "
                            f"global {target.id!r} without a parent-PID "
                            "guard; guard with os.getpid() against the "
                            "recorded parent pid (see exec/faults.py) "
                            "so a parent-side fallback run cannot "
                            "clobber parent state",
                            self.name,
                        )
