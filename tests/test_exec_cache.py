"""Persistent profile cache: hits, misses, corruption, concurrency.

The cache must be an invisible accelerator — every failure mode
(truncation, garbage, checksum mismatch, version skew, racing writers)
degrades to "recompute the profile", never to a wrong answer or a crash.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import zipfile

import numpy as np
import pytest

from repro.exec.cache import (
    CACHE_FORMAT_VERSION,
    ProfileCache,
    _hash_array,
    cached_profile,
    default_cache_dir,
    kernel_cache_key,
    kernel_fingerprint,
)
from repro.exec.engine import ExecutionConfig
from repro.profiler import profile_kernel
from repro.trace import OP_ALU, OP_MEM_GLOBAL, BlockTrace, KernelTrace, LaunchTrace
from repro.workloads import get_workload

from tests.conftest import make_manual_launch, make_uniform_kernel, tile_block


@pytest.fixture
def kernel():
    return make_uniform_kernel(num_launches=2, blocks_per_launch=24)


@pytest.fixture
def cache(tmp_path):
    return ProfileCache(tmp_path / "cache")


def assert_profiles_equal(a, b):
    assert a.kernel_name == b.kernel_name
    assert a.num_launches == b.num_launches
    for pa, pb in zip(a.launches, b.launches):
        assert pa.warps_per_block == pb.warps_per_block
        np.testing.assert_array_equal(pa.warp_insts, pb.warp_insts)
        np.testing.assert_array_equal(pa.thread_insts, pb.thread_insts)
        np.testing.assert_array_equal(pa.mem_requests, pb.mem_requests)


class TestKeys:
    def test_fingerprint_stable_across_builds(self):
        a = make_uniform_kernel(seed=3)
        b = make_uniform_kernel(seed=3)
        assert kernel_fingerprint(a) == kernel_fingerprint(b)

    def test_fingerprint_sensitive_to_content(self):
        a = make_uniform_kernel(seed=3)
        b = make_uniform_kernel(seed=4)
        assert kernel_fingerprint(a) != kernel_fingerprint(b)

    @staticmethod
    def _hand_built(bump_addr=False):
        """Three hand-built 2-warp blocks; ``bump_addr`` moves one
        address of block 1."""
        base = make_manual_launch([12, 20, 16], warps_per_block=2)

        def factory(tb_id):
            block = base.block(tb_id)
            if bump_addr and tb_id == 1:
                addr = block.addr.copy()
                addr[1, 2] += 128
                block = BlockTrace(
                    tb_id, block.op, block.bb, block.pos, block.mem_req,
                    addr, block.spread, block.active,
                )
            return block

        launch = LaunchTrace("hand", 0, 3, 2, factory, 1)
        return KernelTrace("hand", "test", "regular", [launch])

    @staticmethod
    def _ones_block(num_warps, num_mem):
        """One block whose memory operands are all 1s and 0s, shaped
        ``(num_warps, num_mem)``."""
        op = np.full(6, OP_ALU, dtype=np.uint8)
        op[:num_mem] = OP_MEM_GLOBAL
        block = tile_block(0, num_warps, op, np.full(6, 32), np.ones(6),
                           np.zeros(6), np.zeros(6))
        launch = LaunchTrace("ones", 0, 1, num_warps, lambda tb_id: block, 1)
        return KernelTrace("ones", "test", "regular", [launch])

    def test_hand_built_fingerprint_stable_across_builds(self):
        assert (kernel_fingerprint(self._hand_built())
                == kernel_fingerprint(self._hand_built()))

    def test_fingerprint_sensitive_to_one_address(self):
        assert (kernel_fingerprint(self._hand_built())
                != kernel_fingerprint(self._hand_built(bump_addr=True)))

    def test_fingerprint_sensitive_to_array_shape(self):
        a, b = self._ones_block(2, 3), self._ones_block(3, 2)
        assert a.launches[0].block(0).mem_req.shape == (2, 3)
        assert b.launches[0].block(0).mem_req.shape == (3, 2)
        assert kernel_fingerprint(a) != kernel_fingerprint(b)
        # Shape is hashed with the bytes, not only implied by them.
        digests = []
        for shape in ((2, 3), (3, 2)):
            h = hashlib.blake2b(digest_size=20)
            _hash_array(h, np.ones(shape, dtype=np.uint8))
            digests.append(h.hexdigest())
        assert digests[0] != digests[1]

    def test_provenance_key_cheap_and_stable(self):
        a = get_workload("stream", scale=0.0625)
        b = get_workload("stream", scale=0.0625)
        assert a.provenance is not None
        assert kernel_cache_key(a) == kernel_cache_key(b)

    def test_provenance_key_distinguishes_scales(self):
        a = get_workload("stream", scale=0.0625)
        b = get_workload("stream", scale=0.125)
        assert kernel_cache_key(a) != kernel_cache_key(b)


class TestHitMiss:
    def test_first_call_misses_second_hits(self, cache, kernel):
        first = cache.profile(kernel)
        assert (cache.session_hits, cache.session_misses) == (0, 1)
        second = cache.profile(kernel)
        assert (cache.session_hits, cache.session_misses) == (1, 1)
        assert_profiles_equal(first, second)

    def test_roundtrip_equals_direct_profile(self, cache, kernel):
        direct = profile_kernel(kernel)
        cache.profile(kernel)  # populate
        cached = cache.profile(kernel)  # load from disk
        assert_profiles_equal(direct, cached)

    def test_counters_persist_across_instances(self, tmp_path, kernel):
        root = tmp_path / "cache"
        ProfileCache(root).profile(kernel)
        other = ProfileCache(root)
        other.profile(kernel)
        info = other.info()
        assert info["hits"] == 1
        assert info["misses"] == 1
        assert info["entries"] == 1
        assert info["bytes"] > 0

    def test_cached_profile_respects_use_cache(self, tmp_path, kernel):
        cfg = ExecutionConfig(use_cache=False, cache_dir=str(tmp_path))
        cached_profile(kernel, cfg)
        assert ProfileCache(tmp_path).entries() == []
        cfg = ExecutionConfig(use_cache=True, cache_dir=str(tmp_path))
        cached_profile(kernel, cfg)
        assert len(ProfileCache(tmp_path).entries()) == 1

    def test_clear_removes_entries_and_counters(self, cache, kernel):
        cache.profile(kernel)
        assert cache.clear() == 1
        assert cache.entries() == []
        assert cache.info()["hits"] == 0

    def test_default_dir_honours_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TBPOINT_CACHE_DIR", str(tmp_path / "elsewhere"))
        assert default_cache_dir() == tmp_path / "elsewhere"


class TestCorruption:
    """A damaged entry is discarded and recomputed — never trusted,
    never fatal."""

    def _entry(self, cache, kernel):
        key = kernel_cache_key(kernel)
        cache.profile(kernel)
        path = cache._entry_path(key)
        assert path.exists()
        return key, path

    def test_truncated_entry_recomputed(self, cache, kernel):
        key, path = self._entry(cache, kernel)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        assert cache.get(key, kernel.name) is None
        assert not path.exists()  # bad entry evicted
        again = cache.profile(kernel)
        assert_profiles_equal(again, profile_kernel(kernel))

    def test_garbage_entry_recomputed(self, cache, kernel):
        key, path = self._entry(cache, kernel)
        path.write_bytes(b"this is not an npz archive")
        assert cache.get(key, kernel.name) is None
        assert cache.profile(kernel).num_launches == kernel.num_launches

    def test_checksum_mismatch_discarded(self, cache, kernel):
        key, path = self._entry(cache, kernel)
        # Rewrite the archive with tampered payload but the old checksum.
        with np.load(path, allow_pickle=False) as data:
            arrays = {name: data[name].copy() for name in data.files}
        arrays["warp_insts"] = arrays["warp_insts"] + 1
        with open(path, "wb") as fh:
            np.savez_compressed(fh, **arrays)
        assert zipfile.is_zipfile(path)  # structurally valid, semantically bad
        assert cache.get(key, kernel.name) is None
        assert not path.exists()

    def test_format_version_skew_discarded(self, cache, kernel):
        key, path = self._entry(cache, kernel)
        with np.load(path, allow_pickle=False) as data:
            arrays = {name: data[name].copy() for name in data.files}
        arrays["format_version"] = np.int64(CACHE_FORMAT_VERSION + 1)
        with open(path, "wb") as fh:
            np.savez_compressed(fh, **arrays)
        assert cache.get(key, kernel.name) is None

    def test_missing_column_discarded(self, cache, kernel):
        key, path = self._entry(cache, kernel)
        with np.load(path, allow_pickle=False) as data:
            arrays = {
                name: data[name].copy()
                for name in data.files
                if name != "mem_requests"
            }
        with open(path, "wb") as fh:
            np.savez_compressed(fh, **arrays)
        assert cache.get(key, kernel.name) is None

    def test_unwritable_cache_dir_degrades_to_uncached(self, kernel):
        """A cache location that cannot be created must cost nothing but
        the caching: the profile is still computed and returned."""
        cache = ProfileCache("/proc/nonexistent/tbpoint")
        profile = cache.profile(kernel)
        assert_profiles_equal(profile, profile_kernel(kernel))
        assert cache.entries() == []

    def test_corrupt_stats_json_tolerated(self, cache, kernel):
        cache.profile(kernel)
        cache.stats_path.write_text("{not json")
        assert cache.info()["hits"] == 0  # unreadable -> zeros, no crash
        cache.profile(kernel)  # bumping over garbage must not crash
        assert json.loads(cache.stats_path.read_text())["hits"] == 1

    def test_unreadable_entry_recomputed(self, cache, kernel):
        """An entry that exists but cannot be opened as a file (here: a
        directory squatting on its path — chmod is useless under root)
        is treated as a miss and the profile recomputed."""
        key, path = self._entry(cache, kernel)
        path.unlink()
        path.mkdir()  # open() on it raises IsADirectoryError
        assert cache.get(key, kernel.name) is None
        again = cache.profile(kernel)
        assert_profiles_equal(again, profile_kernel(kernel))


def _writer(root: str, seed: int) -> None:
    cache = ProfileCache(root)
    kernel = make_uniform_kernel(num_launches=2, blocks_per_launch=24)
    for _ in range(3):
        cache.profile(kernel)


def _bumper(root: str, count: int) -> None:
    cache = ProfileCache(root)
    for _ in range(count):
        cache._bump(hits=1, misses=1)


@pytest.mark.slow
class TestConcurrentWriters:
    def test_racing_writers_leave_valid_entry(self, tmp_path, kernel):
        """Two processes repeatedly profiling the same trace must leave
        exactly one valid, loadable entry (atomic rename semantics)."""
        root = str(tmp_path / "cache")
        ctx = multiprocessing.get_context("fork")
        procs = [
            ctx.Process(target=_writer, args=(root, i)) for i in range(2)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=120)
            assert p.exitcode == 0
        cache = ProfileCache(root)
        assert len(cache.entries()) == 1
        loaded = cache.get(kernel_cache_key(kernel), kernel.name)
        assert loaded is not None
        assert_profiles_equal(loaded, profile_kernel(kernel))
        # No stray temp files left behind.
        assert not list(cache.profiles_dir.glob("*.tmp"))

    def test_bump_hammer_loses_no_increments(self, tmp_path):
        """The stats counters use read-modify-write; without the flock
        guard, racing processes clobber each other and counts come up
        short.  Four processes x 25 bumps each must land exactly."""
        root = str(tmp_path / "cache")
        nprocs, nbumps = 4, 25
        ctx = multiprocessing.get_context("fork")
        procs = [
            ctx.Process(target=_bumper, args=(root, nbumps))
            for _ in range(nprocs)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=120)
            assert p.exitcode == 0
        info = ProfileCache(root).info()
        assert info["hits"] == nprocs * nbumps
        assert info["misses"] == nprocs * nbumps


class TestEntriesOrdering:
    def test_entries_sorted_regardless_of_creation_order(self, tmp_path):
        """``entries()`` is a determinism contract (DET005): ``glob``
        enumerates in filesystem order, so the listing must be sorted
        no matter in what order entries landed on disk."""
        cache = ProfileCache(str(tmp_path / "cache"))
        cache.profiles_dir.mkdir(parents=True, exist_ok=True)
        for stem in ("zz", "aa", "mm", "0b", "ZZ"):
            (cache.profiles_dir / f"{stem}.npz").write_bytes(b"x")
        listed = cache.entries()
        assert listed == sorted(listed)
        assert [p.stem for p in listed] == sorted(
            ("zz", "aa", "mm", "0b", "ZZ")
        )

    def test_entries_empty_when_dir_absent(self, tmp_path):
        assert ProfileCache(str(tmp_path / "nope")).entries() == []
