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

from repro.config import GPUConfig, SamplingConfig
from repro.exec import ExecutionConfig, SweepJournal, open_sweep_journal
from repro.exec.journal import default_journal_dir, sweep_key


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


class TestOpenSweepJournal:
    def test_disabled_by_default(self):
        journal, done = open_sweep_journal("fig9", ("p",), ExecutionConfig())
        assert journal is None
        assert done == {}

    def test_fresh_run_resets(self, tmp_path):
        cfg = ExecutionConfig(journal=True, cache_dir=str(tmp_path))
        journal, done = open_sweep_journal("fig9", ("p",), cfg)
        assert done == {}
        journal.record("stream", 1)
        # A second non-resume run of the same sweep starts clean.
        journal2, done2 = open_sweep_journal("fig9", ("p",), cfg)
        assert done2 == {}
        assert journal2.load() == {}

    def test_resume_returns_completed(self, tmp_path):
        cfg = ExecutionConfig(journal=True, cache_dir=str(tmp_path))
        journal, _ = open_sweep_journal("fig9", ("p",), cfg)
        journal.record("stream", 1)
        _, done = open_sweep_journal(
            "fig9", ("p",), cfg.with_(resume=True)
        )
        assert done == {"stream": 1}

    def test_resume_alone_enables_journal(self, tmp_path):
        cfg = ExecutionConfig(resume=True, cache_dir=str(tmp_path))
        journal, done = open_sweep_journal("fig9", ("p",), cfg)
        assert journal is not None
        assert done == {}

    def test_cache_dir_relocates_journals(self, tmp_path):
        cfg = ExecutionConfig(journal=True, cache_dir=str(tmp_path / "cache"))
        journal, _ = open_sweep_journal("fig9", ("p",), cfg)
        assert journal.path.parent == tmp_path / "cache" / "journals"

    def test_cache_dir_beats_environment(self, monkeypatch, tmp_path):
        monkeypatch.setenv("TBPOINT_CACHE_DIR", str(tmp_path / "env"))
        cfg = ExecutionConfig(journal=True, cache_dir=str(tmp_path / "cache"))
        journal, _ = open_sweep_journal("fig9", ("p",), cfg)
        assert journal.path.parent == tmp_path / "cache" / "journals"

    def test_no_cache_dir_journals_under_environment(self, monkeypatch, tmp_path):
        monkeypatch.setenv("TBPOINT_CACHE_DIR", str(tmp_path))
        cfg = ExecutionConfig(journal=True)
        journal, _ = open_sweep_journal("fig9", ("p",), cfg)
        assert journal.path.parent == tmp_path / "journals"

    def test_default_journal_dir_under_cache_root(self, monkeypatch, tmp_path):
        monkeypatch.setenv("TBPOINT_CACHE_DIR", str(tmp_path))
        assert default_journal_dir() == tmp_path / "journals"


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
