"""Sweep checkpoint journal (``repro.exec.journal``).

The journal's contract: everything it gives back on ``load()`` is
exactly what was ``record()``-ed (later entry wins), any line it cannot
vouch for — torn tail, garbage, checksum mismatch — is silently dropped
so its task gets recomputed, and two sweeps with different parameters
can never see each other's entries.
"""

from __future__ import annotations

import base64
import json

import pytest

from repro.config import ExperimentConfig, GPUConfig, SamplingConfig
from repro.exec import ExecutionConfig, SweepJournal, run_sweep
from repro.exec.journal import journal_dir, sweep_key


@pytest.fixture
def journal(tmp_path):
    return SweepJournal(tmp_path / "sweep.jsonl")


class TestRecordLoad:
    def test_roundtrip(self, journal):
        journal.record("stream", {"ipc": 1.25, "n": 7})
        journal.record("kmeans", [1, 2, 3])
        loaded = journal.load()
        assert loaded == {"stream": {"ipc": 1.25, "n": 7}, "kmeans": [1, 2, 3]}

    def test_empty_journal_loads_empty(self, journal):
        assert journal.load() == {}
        assert len(journal) == 0

    def test_later_entry_wins(self, journal):
        journal.record("stream", "first")
        journal.record("stream", "second")
        assert journal.load() == {"stream": "second"}
        assert len(journal) == 1

    def test_reset_clears(self, journal):
        journal.record("stream", 1)
        journal.reset()
        assert journal.load() == {}
        journal.reset()  # resetting a missing journal is fine

    def test_unwritable_location_is_best_effort(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("not a directory")
        j = SweepJournal(blocker / "sweep.jsonl")
        j.record("stream", 1)  # must not raise
        assert j.load() == {}

    def test_unpicklable_result_is_best_effort(self, journal):
        journal.record("good", 42)
        journal.record("bad", lambda: None)  # must not raise
        assert journal.load() == {"good": 42}


class TestCorruptionTolerance:
    def test_torn_tail_tolerated(self, journal):
        journal.record("stream", 1)
        journal.record("kmeans", 2)
        data = journal.path.read_bytes()
        journal.path.write_bytes(data[:-15])  # tear the last line
        assert journal.load() == {"stream": 1}

    def test_garbage_line_skipped(self, journal):
        journal.record("stream", 1)
        with open(journal.path, "a") as fh:
            fh.write("{not json at all\n")
        journal.record("kmeans", 2)
        assert journal.load() == {"stream": 1, "kmeans": 2}

    def test_checksum_mismatch_skipped(self, journal):
        journal.record("stream", 1)
        journal.record("kmeans", 2)
        lines = journal.path.read_text().splitlines()
        record = json.loads(lines[0])
        record["data"] = base64.b64encode(b"tampered").decode("ascii")
        lines[0] = json.dumps(record)
        journal.path.write_text("\n".join(lines) + "\n")
        assert journal.load() == {"kmeans": 2}

    def test_missing_field_skipped(self, journal):
        with open(journal.path, "w") as fh:
            fh.write(json.dumps({"task": "stream"}) + "\n")
        journal.record("kmeans", 2)
        assert journal.load() == {"kmeans": 2}


class TestSweepKey:
    def test_stable_for_equal_params(self):
        params = (("stream", "kmeans"), GPUConfig(), SamplingConfig())
        assert sweep_key("fig9", params) == sweep_key("fig9", params)

    def test_sensitive_to_every_parameter(self):
        base = (("stream",), GPUConfig(), SamplingConfig())
        keys = {
            sweep_key("fig9", base),
            sweep_key("sensitivity", base),
            sweep_key("fig9", (("kmeans",), GPUConfig(), SamplingConfig())),
            sweep_key(
                "fig9", (("stream",), GPUConfig(num_sms=4), SamplingConfig())
            ),
            sweep_key(
                "fig9",
                (
                    ("stream",),
                    GPUConfig(),
                    SamplingConfig(inter_threshold=0.11),
                ),
            ),
        }
        assert len(keys) == 5

    def test_for_sweep_places_file_under_root(self, tmp_path):
        j = SweepJournal.for_sweep("fig9", ("p",), tmp_path)
        assert j.path.parent == tmp_path
        assert j.path.name == f"{sweep_key('fig9', ('p',))}.jsonl"


def _double(item: int, config: ExecutionConfig) -> int:
    return 2 * item


def _refuse(item: int, config: ExecutionConfig) -> int:
    raise AssertionError(f"task {item} recomputed")


class TestRunSweep:
    def test_no_journal_without_the_cache(self, tmp_path):
        cfg = ExecutionConfig(use_cache=False, cache_dir=str(tmp_path))
        meta: dict = {}
        got = run_sweep("fig9", ("p",), {"a": 1, "b": 2}, _double, cfg, meta)
        assert got == {"a": 2, "b": 4}
        assert meta["items"] == 2 and meta["resumed"] == 0
        assert list(tmp_path.iterdir()) == []

    def test_results_in_input_order(self, tmp_path):
        cfg = ExecutionConfig(cache_dir=str(tmp_path))
        got = run_sweep("fig9", ("p",), {"b": 2, "a": 1}, _double, cfg)
        assert list(got.items()) == [("b", 4), ("a", 2)]

    def test_fresh_run_resets(self, tmp_path):
        cfg = ExecutionConfig(cache_dir=str(tmp_path))
        journal = SweepJournal.for_sweep("fig9", ("p",), tmp_path / "journals")
        journal.record("stale", 99)
        journal.record("a", 99)
        got = run_sweep("fig9", ("p",), {"a": 1}, _double, cfg)
        # A non-resume run starts its journal clean: nothing stale is
        # reused, and only this run's tasks are recorded.
        assert got == {"a": 2}
        assert journal.load() == {"a": 2}

    def test_resume_returns_completed(self, tmp_path):
        cfg = ExecutionConfig(cache_dir=str(tmp_path))
        run_sweep("fig9", ("p",), {"a": 1}, _double, cfg)
        meta: dict = {}
        got = run_sweep(
            "fig9", ("p",), {"a": 1, "b": 2}, _double, cfg.with_(resume=True),
            meta,
        )
        assert got == {"a": 2, "b": 4}
        assert meta["items"] == 1 and meta["resumed"] == 1
        meta = {}
        again = run_sweep(
            "fig9", ("p",), {"a": 1, "b": 2}, _refuse, cfg.with_(resume=True),
            meta,
        )
        assert again == got
        assert meta["items"] == 0 and meta["resumed"] == 2

    def test_resume_needs_the_cache(self):
        with pytest.raises(ValueError, match="use_cache"):
            ExecutionConfig(use_cache=False, resume=True)

    def test_cache_dir_relocates_journals(self, tmp_path):
        cfg = ExecutionConfig(cache_dir=str(tmp_path / "cache"))
        run_sweep("fig9", ("p",), {"a": 1}, _double, cfg)
        journal = SweepJournal.for_sweep(
            "fig9", ("p",), tmp_path / "cache" / "journals"
        )
        assert journal.load() == {"a": 2}

    def test_cache_dir_beats_environment(self, monkeypatch, tmp_path):
        monkeypatch.setenv("TBPOINT_CACHE_DIR", str(tmp_path / "env"))
        cfg = ExecutionConfig(cache_dir=str(tmp_path / "cache"))
        run_sweep("fig9", ("p",), {"a": 1}, _double, cfg)
        assert (tmp_path / "cache" / "journals").is_dir()
        assert not (tmp_path / "env").exists()

    def test_no_cache_dir_journals_under_environment(self, monkeypatch, tmp_path):
        monkeypatch.setenv("TBPOINT_CACHE_DIR", str(tmp_path))
        run_sweep("fig9", ("p",), {"a": 1}, _double, ExecutionConfig())
        journal = SweepJournal.for_sweep("fig9", ("p",), tmp_path / "journals")
        assert journal.load() == {"a": 2}

    def test_journal_dir_under_cache_root(self, monkeypatch, tmp_path):
        monkeypatch.setenv("TBPOINT_CACHE_DIR", str(tmp_path))
        assert journal_dir() == tmp_path / "journals"
        assert journal_dir(tmp_path / "x") == tmp_path / "x" / "journals"


EXPERIMENT = ExperimentConfig(scale=0.02)


def _breakdown(meta, exec_config):
    from repro.analysis.experiments import run_breakdown

    return run_breakdown(
        ("stream",), EXPERIMENT, exec_config=exec_config, meta=meta
    )


def _sensitivity(meta, exec_config):
    from repro.analysis.experiments import run_sensitivity

    return run_sensitivity(
        ("stream",), configs=((48, 14),), experiment=EXPERIMENT,
        exec_config=exec_config, meta=meta,
    )


def _scaling(meta, exec_config):
    from repro.analysis.scaling import run_scaling

    return run_scaling(
        "stream", scales=(0.02,), exec_config=exec_config, meta=meta
    )


class TestSweepDrivers:
    @pytest.mark.parametrize(
        "driver", [_breakdown, _sensitivity, _scaling],
        ids=["breakdown", "sensitivity", "scaling"],
    )
    def test_driver_reports_exec_meta(self, driver, tmp_path):
        meta: dict = {}
        driver(meta, ExecutionConfig(jobs=1, cache_dir=str(tmp_path)))
        assert meta["path"] == "serial"
        assert meta["items"] == 1
        assert meta["resumed"] == 0

    def test_breakdown_resumes(self, tmp_path):
        cfg = ExecutionConfig(jobs=1, cache_dir=str(tmp_path))
        first = _breakdown({}, cfg)
        meta: dict = {}
        resumed = _breakdown(meta, cfg.with_(resume=True))
        assert meta["items"] == 0 and meta["resumed"] == 1
        assert [
            (r.overall_ipc, r.sample_size, r.skip_breakdown()) for r in resumed
        ] == [(r.overall_ipc, r.sample_size, r.skip_breakdown()) for r in first]


class TestListJournals:
    def test_sorted_regardless_of_creation_order(self, tmp_path):
        from repro.exec.journal import list_journals

        for stem in ("ffff", "0000", "aaaa"):
            (tmp_path / f"{stem}.jsonl").write_text("")
        (tmp_path / "not-a-journal.txt").write_text("")
        listed = list_journals(tmp_path)
        assert [p.stem for p in listed] == ["0000", "aaaa", "ffff"]

    def test_empty_for_absent_dir(self, tmp_path):
        from repro.exec.journal import list_journals

        assert list_journals(tmp_path / "nope") == []


class TestJournalsInfo:
    def test_absent_dir(self, tmp_path):
        from repro.exec.journal import journals_info

        info = journals_info(tmp_path / "nope")
        assert info["journals"] == 0
        assert info["bytes"] == 0
        assert info["newest_key"] is None
        assert info["dir"] == str(tmp_path / "nope")

    def test_counts_sizes_and_newest(self, tmp_path):
        import os

        from repro.exec.journal import journals_info

        old = SweepJournal.for_sweep("fig9", ("p",), tmp_path)
        old.record("stream", 1)
        new = SweepJournal.for_sweep("serve", ("q",), tmp_path)
        new.record("kmeans", 2)
        # Make mtime ordering unambiguous regardless of fs resolution.
        past = old.path.stat().st_mtime - 10
        os.utime(old.path, (past, past))
        (tmp_path / "not-a-journal.txt").write_text("ignored")
        info = journals_info(tmp_path)
        assert info["journals"] == 2
        assert info["bytes"] == (
            old.path.stat().st_size + new.path.stat().st_size
        )
        assert info["newest_key"] == new.path.stem
