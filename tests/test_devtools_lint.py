"""Tests for ``repro lint``: the AST checker framework, the built-in
checkers (against planted-violation fixtures under
``tests/fixtures/lint/``), pragma suppression, the baseline file, JSON
output shape, and the CLI wiring."""

import json
import re
from collections import Counter
from pathlib import Path

import pytest

from repro.devtools.lint import run_lint
from repro.devtools.lint.baseline import load_baseline, write_baseline
from repro.devtools.lint.cli import main as lint_main
from repro.devtools.lint.core import ParsedFile
from repro.devtools.lint.report import format_human

FIXTURES = Path(__file__).parent / "fixtures" / "lint"
REPO_ROOT = Path(__file__).parent.parent

DET_FILE = FIXTURES / "sim" / "det_violations.py"
SUPPRESSED_FILE = FIXTURES / "sim" / "det_suppressed.py"
PROC_FILE = FIXTURES / "proc_violations.py"
HOT_FILE = FIXTURES / "hot_violations.py"
REGISTRY_FILE = FIXTURES / "sim" / "registry_fixture.py"
ASYNC_FILE = FIXTURES / "serve" / "async_violations.py"
ASYNC_SUPPRESSED = FIXTURES / "serve" / "async_suppressed.py"
FORK_FILE = FIXTURES / "fork_violations.py"
CTR_FILE = FIXTURES / "ctr_serve" / "serve" / "counters_fixture.py"


def _lint(paths, tests_dir=None, **kwargs):
    return run_lint(
        paths=[Path(p) for p in paths],
        root=FIXTURES,
        tests_dir=tests_dir,
        **kwargs,
    )


def _rules(result):
    return Counter(f.rule for f in result.findings)


# ----------------------------------------------------------------------
# Determinism checker
# ----------------------------------------------------------------------

def test_determinism_catches_planted_violations():
    result = _lint([DET_FILE])
    assert _rules(result) == Counter(
        {"DET001": 1, "DET002": 2, "DET003": 1, "DET004": 2, "DET005": 2}
    )


def test_determinism_seeded_and_sorted_forms_pass():
    source = DET_FILE.read_text()
    lines = {
        f.line: f.rule
        for f in _lint([DET_FILE]).findings
    }
    for lineno, rule in lines.items():
        assert "clean" not in source.splitlines()[lineno - 1], (
            f"{rule} fired on a line documented as clean"
        )


def test_determinism_subsystem_scoping(tmp_path):
    # The same wall-clock read outside sim/core/cluster/trace/serve is
    # legal.
    src = "import time\n\ndef f():\n    return time.perf_counter()\n"
    (tmp_path / "analysis").mkdir()
    outside = tmp_path / "analysis" / "mod.py"
    outside.write_text(src)
    (tmp_path / "core").mkdir()
    inside = tmp_path / "core" / "mod.py"
    inside.write_text(src)
    result = run_lint(paths=[tmp_path], root=tmp_path)
    assert [(f.path, f.rule) for f in result.findings] == [
        ("core/mod.py", "DET001")
    ]


def test_determinism_scope_includes_serve(tmp_path):
    """The serve daemon is inside the deterministic scope (its payloads
    carry a bit-identity oracle); only pragma'd lines are exempt."""
    from repro.devtools.lint.checkers.determinism import DETERMINISTIC_DIRS

    assert "serve" in DETERMINISTIC_DIRS
    (tmp_path / "serve").mkdir()
    flagged = tmp_path / "serve" / "mod.py"
    flagged.write_text("import time\n\ndef f():\n    return time.monotonic()\n")
    pragmad = tmp_path / "serve" / "ok.py"
    pragmad.write_text(
        "import time\n\ndef f():\n"
        "    return time.monotonic()  # lint: disable=DET001\n"
    )
    result = run_lint(paths=[tmp_path], root=tmp_path)
    assert [(f.path, f.rule) for f in result.findings] == [
        ("serve/mod.py", "DET001")
    ]


def test_repo_serve_wall_clock_is_pragmad_not_baselined():
    """Satellite contract: every wall-clock read in src/repro/serve is
    exempted by an inline pragma, never via the baseline file."""
    serve_dir = REPO_ROOT / "src" / "repro" / "serve"
    offenders = []
    for path in sorted(serve_dir.glob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if "time.monotonic" in line and "disable=DET001" not in line:
                offenders.append(f"{path.name}:{lineno}")
    assert not offenders, offenders


# ----------------------------------------------------------------------
# Process-safety checker
# ----------------------------------------------------------------------

def test_process_safety_catches_planted_violations():
    result = _lint([PROC_FILE])
    assert _rules(result) == Counter(
        {"PROC001": 3, "PROC002": 4, "PROC003": 3}
    )


def test_process_safety_module_level_names_pass():
    result = _lint([PROC_FILE])
    source_lines = PROC_FILE.read_text().splitlines()
    for f in result.findings:
        assert "clean" not in source_lines[f.line - 1]


# ----------------------------------------------------------------------
# Hot-loop checker
# ----------------------------------------------------------------------

def test_hot_loop_catches_planted_violations():
    result = _lint([HOT_FILE])
    assert _rules(result) == Counter(
        {"HOT001": 3, "HOT002": 3, "HOT003": 1}
    )


def test_hot_loop_only_fires_inside_marked_regions():
    # cold_loop has the identical body but no ``# lint: hot`` mark.
    result = _lint([HOT_FILE])
    source = HOT_FILE.read_text().splitlines()
    cold_start = next(
        i for i, line in enumerate(source, 1) if "def cold_loop" in line
    )
    cold_end = next(
        i for i, line in enumerate(source, 1) if "def hot_function" in line
    )
    assert not [
        f for f in result.findings if cold_start <= f.line < cold_end
    ]


def test_hot_pragma_suppression():
    # hot_justified's sorted() carries a trailing disable pragma.
    result = _lint([HOT_FILE])
    source = HOT_FILE.read_text().splitlines()
    justified = next(
        i for i, line in enumerate(source, 1) if "disable=HOT002" in line
    )
    assert not [f for f in result.findings if f.line == justified]


# ----------------------------------------------------------------------
# Oracle-parity checker
# ----------------------------------------------------------------------

def test_oracle_parity_full_coverage_is_clean():
    result = _lint(
        [REGISTRY_FILE], tests_dir=FIXTURES / "fake_tests_full",
    )
    assert not result.findings


def test_oracle_parity_flags_uncovered_registrations():
    result = _lint(
        [REGISTRY_FILE], tests_dir=FIXTURES / "fake_tests_partial",
    )
    assert _rules(result) == Counter({"ORA001": 2})
    flagged = {f.message.split("'")[1] for f in result.findings}
    assert flagged == {"fixture-reference", "fixture-oracle"}


# ----------------------------------------------------------------------
# Async-safety checker
# ----------------------------------------------------------------------

def test_async_safety_catches_planted_violations():
    result = _lint([ASYNC_FILE])
    assert _rules(result) == Counter(
        {"ASYNC001": 5, "ASYNC002": 1, "ASYNC003": 1}
    )


def test_async_safety_one_hop_helper_attributed_to_async_call_site():
    result = _lint([ASYNC_FILE])
    hops = [f for f in result.findings if "sync helper" in f.message]
    assert len(hops) == 1
    assert "flush_index" in hops[0].message
    source = ASYNC_FILE.read_text().splitlines()
    assert "one-hop" in source[hops[0].line - 1]


def test_async_safety_one_hop_helper_in_sibling_module(tmp_path):
    # The helper lives in another file of the same package: the finding
    # lands on the async call site, and de-fanging the helper clears it.
    (tmp_path / "serve").mkdir()
    helper = tmp_path / "serve" / "helpers.py"
    helper.write_text("def flush(path):\n    path.write_text('x')\n")
    (tmp_path / "serve" / "daemon.py").write_text(
        "async def handle(path):\n    flush(path)\n"
    )
    result = run_lint(paths=[tmp_path], root=tmp_path)
    assert [(f.rule, f.path) for f in result.findings] == [
        ("ASYNC001", "serve/daemon.py")
    ]
    helper.write_text("def flush(path):\n    return None\n")
    assert not run_lint(paths=[tmp_path], root=tmp_path).findings


def test_async_safety_pragma_suppression():
    assert not _lint([ASYNC_SUPPRESSED]).findings


def test_async_blocking_rule_scoped_to_serve(tmp_path):
    # The identical blocking async def outside serve/ is not flagged
    # (nothing there owns a latency-critical event loop).
    (tmp_path / "analysis").mkdir()
    mod = tmp_path / "analysis" / "mod.py"
    mod.write_text("import time\n\nasync def f():\n    time.sleep(1)\n")
    result = run_lint(paths=[tmp_path], root=tmp_path)
    assert not result.findings


def test_async_create_task_drop_fires_everywhere(tmp_path):
    # ASYNC003 is per-file and unscoped: a dropped task handle is a bug
    # wherever asyncio runs.
    mod = tmp_path / "mod.py"
    mod.write_text(
        "import asyncio\n\nasync def f():\n"
        "    asyncio.create_task(asyncio.sleep(0))\n"
    )
    result = run_lint(paths=[mod], root=tmp_path)
    assert [f.rule for f in result.findings] == ["ASYNC003"]


def test_async_ambiguous_helper_name_is_skipped(tmp_path):
    # A bare name defined both sync-blocking and async in the package
    # is ambiguous: the checker must stay silent (documented
    # false-negative edge) rather than guess.
    (tmp_path / "serve").mkdir()
    (tmp_path / "serve" / "a.py").write_text(
        "def flush(p):\n    p.write_text('x')\n"
    )
    (tmp_path / "serve" / "b.py").write_text(
        "async def flush(p):\n    return None\n"
    )
    (tmp_path / "serve" / "c.py").write_text(
        "async def h(p):\n    flush(p)\n"
    )
    result = run_lint(paths=[tmp_path], root=tmp_path)
    assert not [f for f in result.findings if f.rule == "ASYNC001"]


# ----------------------------------------------------------------------
# Fork-safety checker
# ----------------------------------------------------------------------

def test_fork_safety_catches_planted_violations():
    result = _lint([FORK_FILE])
    assert _rules(result) == Counter({"FORK001": 4, "FORK002": 1})


def test_fork_safety_guarded_worker_is_clean():
    result = _lint([FORK_FILE])
    source = FORK_FILE.read_text().splitlines()
    for f in result.findings:
        assert "clean" not in source[f.line - 1], (
            f"{f.rule} fired on a line documented as clean"
        )


def test_fork_safety_picklable_args_pass(tmp_path):
    # Plain config values and pipe connections are the supported
    # currency across the fork boundary.
    mod = tmp_path / "mod.py"
    mod.write_text(
        "import multiprocessing\n\n"
        "def worker(conn, cfg):\n    conn.send(('ready', cfg))\n\n"
        "def spawn(cfg):\n"
        "    parent, child = multiprocessing.Pipe()\n"
        "    return multiprocessing.Process(\n"
        "        target=worker, args=(child, cfg)\n"
        "    )\n"
    )
    result = run_lint(paths=[mod], root=tmp_path)
    assert not [f for f in result.findings if f.rule.startswith("FORK")]


# ----------------------------------------------------------------------
# Counter-parity checker
# ----------------------------------------------------------------------

def test_counter_parity_catches_planted_violations():
    result = _lint([CTR_FILE])
    assert _rules(result) == Counter({"CTR001": 2})
    messages = " ".join(f.message for f in result.findings)
    assert "'ghost'" in messages and "'untracked'" in messages


def test_counter_parity_asdict_flushes_whole_class(tmp_path):
    # asdict(self) in any method exports every declared field, so a
    # fully-updated bundle is clean.
    (tmp_path / "serve").mkdir()
    (tmp_path / "serve" / "mod.py").write_text(
        "from dataclasses import asdict, dataclass\n\n"
        "@dataclass\nclass PairCounters:\n"
        "    hits: int = 0\n"
        "    def as_dict(self):\n        return asdict(self)\n\n"
        "class D:\n"
        "    def __init__(self):\n        self.counters = PairCounters()\n"
        "    def on_hit(self):\n        self.counters.hits += 1\n"
    )
    result = run_lint(paths=[tmp_path], root=tmp_path)
    assert not [f for f in result.findings if f.rule == "CTR001"]


# ----------------------------------------------------------------------
# Pragmas
# ----------------------------------------------------------------------

def test_pragmas_suppress_every_planted_violation():
    result = _lint([SUPPRESSED_FILE])
    assert not result.findings


def test_pragma_parsing_trailing_and_standalone():
    pf = ParsedFile(
        Path("x.py"), "x.py",
        "a = 1  # lint: disable=DET001\n"
        "# lint: disable=DET002,DET003\n"
        "b = 2\n"
        "# lint: disable-file=HOT001\n",
    )
    assert pf.is_suppressed(1, "DET001")
    assert pf.is_suppressed(3, "DET002") and pf.is_suppressed(3, "DET003")
    assert not pf.is_suppressed(2, "DET002")
    assert pf.is_suppressed(99, "HOT001")  # file-wide, any line


# ----------------------------------------------------------------------
# Baseline
# ----------------------------------------------------------------------

def test_baseline_roundtrip_suppresses_known_findings(tmp_path):
    first = _lint([DET_FILE])
    assert first.findings and not first.baselined
    baseline = tmp_path / "lint-baseline.json"
    write_baseline(baseline, first.findings)
    second = _lint([DET_FILE], baseline_path=baseline)
    assert not second.new
    assert len(second.baselined) == len(first.findings)
    assert not second.ok
    assert second.ok_against_baseline


def test_baseline_counts_cap_occurrences(tmp_path):
    # Two identical violations share one baseline key with count 2;
    # halving the budget makes exactly one occurrence new again.
    src = tmp_path / "mod.py"
    src.write_text(
        "import glob\n"
        "a = glob.glob('*')\n"
        "b = glob.glob('*')\n"
    )
    first = run_lint(paths=[src], root=tmp_path)
    assert len(first.findings) == 2
    baseline = tmp_path / "lint-baseline.json"
    write_baseline(baseline, first.findings)
    data = json.loads(baseline.read_text())
    (key,) = data["entries"]
    assert data["entries"][key] == 2
    data["entries"][key] = 1
    baseline.write_text(json.dumps(data))
    second = run_lint(
        paths=[src], root=tmp_path, baseline_path=baseline
    )
    assert len(second.new) == 1 and len(second.baselined) == 1
    assert second.new[0].baseline_key == key


def test_corrupt_or_missing_baseline_is_empty(tmp_path):
    assert not load_baseline(None)
    assert not load_baseline(tmp_path / "absent.json")
    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text("{not json")
    assert not load_baseline(corrupt)


def test_load_baseline_strict_raises(tmp_path):
    from repro.devtools.lint.baseline import BaselineError

    with pytest.raises(BaselineError, match="unreadable"):
        load_baseline(tmp_path / "absent.json", strict=True)
    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text("{not json")
    with pytest.raises(BaselineError, match="unreadable"):
        load_baseline(corrupt, strict=True)
    wrong = tmp_path / "wrong.json"
    wrong.write_text('{"version": 99, "entries": {}}')
    with pytest.raises(BaselineError, match="unsupported version"):
        load_baseline(wrong, strict=True)


def test_new_rules_interact_with_baseline(tmp_path):
    # Concurrency-contract findings baseline exactly like the PR 5
    # rules (line-number-free keys, count-capped).
    first = _lint([ASYNC_FILE])
    assert len(first.findings) == 7
    baseline = tmp_path / "lint-baseline.json"
    write_baseline(baseline, first.findings)
    second = _lint([ASYNC_FILE], baseline_path=baseline)
    assert not second.new
    assert len(second.baselined) == 7
    assert second.ok_against_baseline and not second.ok


# ----------------------------------------------------------------------
# Runner / output
# ----------------------------------------------------------------------

def test_findings_sorted_and_output_deterministic():
    a = _lint([DET_FILE, PROC_FILE, HOT_FILE])
    b = _lint([DET_FILE, PROC_FILE, HOT_FILE])
    keys = [f.sort_key for f in a.findings]
    assert keys == sorted(keys)
    assert format_human(a) == format_human(b)


def test_syntax_error_reported_not_fatal(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def broken(:\n")
    result = run_lint(paths=[bad], root=tmp_path)
    assert result.errors and "syntax error" in result.errors[0]


def test_unknown_checker_name_raises():
    with pytest.raises(ValueError, match="unknown checkers"):
        _lint([DET_FILE], checker_names=["nope"])


def test_checker_selection_limits_rules():
    result = _lint(
        [DET_FILE, PROC_FILE],
        checker_names=["process-safety"],
    )
    assert {f.rule for f in result.findings} == {
        "PROC001", "PROC002", "PROC003"
    }


def test_rules_filter_family_prefix_and_exact_id():
    result = _lint([DET_FILE, ASYNC_FILE], rules=["ASYNC"])
    assert set(_rules(result)) == {"ASYNC001", "ASYNC002", "ASYNC003"}
    result = _lint(
        [DET_FILE, ASYNC_FILE], rules=["ASYNC003", "DET"]
    )
    rules = set(_rules(result))
    assert "ASYNC003" in rules and "DET001" in rules
    assert "ASYNC001" not in rules and "ASYNC002" not in rules


def test_rules_filter_unknown_name_raises():
    with pytest.raises(ValueError, match="unknown rule"):
        _lint([DET_FILE], rules=["NOPE"])
    with pytest.raises(ValueError, match="unknown rule"):
        # A prefix matching nothing is just as much of a typo.
        _lint([DET_FILE], rules=["ASYNC", "MSG9"])


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def test_cli_exit_codes(tmp_path, capsys):
    args = [str(DET_FILE), "--root", str(FIXTURES)]
    assert lint_main(args) == 1
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    assert lint_main(
        [str(clean), "--root", str(tmp_path)]
    ) == 0
    capsys.readouterr()


def test_cli_error_on_new_with_baseline(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    first = _lint([DET_FILE])
    write_baseline(baseline, first.findings)
    args = [
        str(DET_FILE), "--root", str(FIXTURES),
        "--baseline", str(baseline),
    ]
    assert lint_main(args) == 1  # without --error-on-new: findings fail
    assert lint_main(args + ["--error-on-new"]) == 0
    capsys.readouterr()


def test_cli_json_output_shape(capsys):
    rc = lint_main([
        str(DET_FILE), "--root", str(FIXTURES),
        "--json",
    ])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {
        "schema", "version", "files_checked", "errors", "counts", "new",
        "baselined",
    }
    assert payload["schema"] == 2  # CI parses against this
    assert payload["files_checked"] == 1
    assert payload["counts"]["DET001"] == 1
    finding = payload["new"][0]
    assert set(finding) == {
        "path", "line", "col", "rule", "message", "checker"
    }
    assert finding["path"] == "sim/det_violations.py"


def test_cli_rules_filter(capsys):
    rc = lint_main([
        str(ASYNC_FILE), "--root", str(FIXTURES),
        "--rules", "ASYNC003",
    ])
    assert rc == 1
    out = capsys.readouterr().out
    assert "ASYNC003" in out and "ASYNC001" not in out


def test_cli_unknown_rule_exits_2(capsys):
    rc = lint_main([
        str(ASYNC_FILE), "--root", str(FIXTURES),
        "--rules", "BOGUS",
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert "unknown rule" in err and "BOGUS" in err


def test_cli_unreadable_baseline_exits_2(tmp_path, capsys):
    base_args = [
        str(DET_FILE), "--root", str(FIXTURES),
    ]
    rc = lint_main(base_args + ["--baseline", str(tmp_path / "absent.json")])
    assert rc == 2
    assert "baseline" in capsys.readouterr().err
    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text("{not json")
    rc = lint_main(base_args + ["--baseline", str(corrupt)])
    assert rc == 2
    assert "baseline" in capsys.readouterr().err
    # Auto-discovered (non-explicit) baselines stay lenient: findings
    # exit 1, never a usage error.
    assert lint_main(base_args) == 1
    capsys.readouterr()


def test_cli_write_baseline(tmp_path, capsys):
    baseline = tmp_path / "lint-baseline.json"
    rc = lint_main([
        str(DET_FILE), "--root", str(FIXTURES),
        "--write-baseline", "--baseline", str(baseline),
    ])
    assert rc == 0
    data = json.loads(baseline.read_text())
    assert data["version"] == 1 and data["entries"]
    capsys.readouterr()


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in ("DET001", "PROC001", "HOT001", "ORA001"):
        assert rule in out


def test_repro_cli_lint_subcommand(capsys):
    from repro._cli import main as repro_main

    rc = repro_main([
        "lint", str(DET_FILE), "--root", str(FIXTURES),
    ])
    assert rc == 1
    assert "DET001" in capsys.readouterr().out


# ----------------------------------------------------------------------
# The repository's own acceptance contract
# ----------------------------------------------------------------------

def test_repository_tree_is_lint_clean():
    """ISSUE acceptance: ``repro lint`` reports zero non-baselined
    findings over ``src/repro`` (with the repo's own tests vouching
    for oracle parity), and the concurrency-contract families are
    registered and clean with zero baseline entries."""
    from repro.devtools.lint.core import all_rules

    registered = set(all_rules())
    for rule in (
        "ASYNC001", "ASYNC002", "ASYNC003", "FORK001", "FORK002",
        "CTR001",
    ):
        assert rule in registered, f"{rule} not registered"
    result = run_lint(
        paths=[REPO_ROOT / "src" / "repro"],
        root=REPO_ROOT,
        tests_dir=REPO_ROOT / "tests",
    )
    assert not result.errors
    assert not result.new, format_human(result)
    # The concurrency rules must hold outright — never via baseline.
    new_families = ("ASYNC", "FORK", "CTR")
    assert not [
        f for f in result.findings if f.rule.startswith(new_families)
    ], format_human(result)


def test_src_pragmas_carry_reason_comments():
    """Satellite contract: every suppression pragma in src/repro carries
    a human reason — comment text before the pragma marker on the same
    line, or an explanatory (non-pragma) comment on the line above.
    The linter's own package is exempt: its docstrings document the
    pragma syntax itself."""
    offenders = []
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        if "devtools/lint" in path.as_posix():
            continue
        lines = path.read_text().splitlines()
        for idx, line in enumerate(lines):
            match = re.search(r"#\s*lint:\s*disable", line)
            if match is None:
                continue
            before = line[: match.start()]
            inline = "#" in before and before.split("#", 1)[1].strip()
            prev = lines[idx - 1].strip() if idx else ""
            above = prev.startswith("#") and "lint:" not in prev
            if not (inline or above):
                offenders.append(f"{path.name}:{idx + 1}: {line.strip()}")
    assert not offenders, offenders
