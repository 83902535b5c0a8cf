"""Checked-in ``BENCH_*.json`` records match the scripts that write them.

Each bench script that writes a record declares its top-level keys as a
``RECORD_KEYS`` tuple literal and asserts the record against it before
writing.  This test reads those tuples with ``ast`` (the bench scripts
import the benchmarks' own ``conftest``, so they are not imported here)
and fails when a checked-in record was written by an older version of
its script.
"""

from __future__ import annotations

import ast
import json
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
RECORD_NAME = re.compile(r"BENCH_\w+\.json")


def _writers() -> dict[str, tuple[Path, tuple | None]]:
    """Record file name -> (writing script, its ``RECORD_KEYS`` or None)."""
    writers: dict[str, tuple[Path, tuple | None]] = {}
    for script in sorted((REPO_ROOT / "benchmarks").glob("bench_*.py")):
        tree = ast.parse(script.read_text())
        names = {
            node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and RECORD_NAME.fullmatch(node.value)
        }
        keys = None
        for node in tree.body:
            if (
                isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "RECORD_KEYS"
                        for t in node.targets)
            ):
                keys = ast.literal_eval(node.value)
        for name in names:
            assert name not in writers, f"{name} written by two scripts"
            writers[name] = (script, keys)
    return writers


RECORDS = sorted(p.name for p in REPO_ROOT.glob("BENCH_*.json"))


def test_records_are_checked_in():
    assert RECORDS, "no BENCH_*.json at the repository root"


@pytest.mark.parametrize("name", RECORDS)
def test_record_has_exactly_its_script_keys(name):
    writers = _writers()
    assert name in writers, f"no benchmarks/bench_*.py writes {name}"
    script, keys = writers[name]
    assert keys is not None, f"{script.name} declares no RECORD_KEYS"
    record = json.loads((REPO_ROOT / name).read_text())
    assert tuple(record) == tuple(keys), (
        f"{name} is stale: rerun {script.name}"
    )
