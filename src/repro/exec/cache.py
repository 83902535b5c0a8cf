"""Content-addressed, persistent functional-profile cache.

The paper notes (Section V-C) that the one-time functional profile is
hardware independent: it depends only on the kernel trace, never on the
simulated machine.  So there is no reason to ever profile the same trace
twice — across hardware-sensitivity sweeps, across CLI invocations,
across *days*.  This module stores :class:`KernelProfile` objects on
disk keyed by a hash of the kernel trace identity plus the profiler and
generator versions.

Key derivation (:func:`kernel_cache_key`):

* traces with *provenance* (anything built by ``get_workload``) hash the
  cheap ``(name, scale, seed, generator version)`` tuple — no trace walk;
* arbitrary traces fall back to a full content fingerprint
  (:func:`kernel_fingerprint`) streaming every block's arrays through
  BLAKE2b, which is still cheaper than profiling plus guarantees
  correctness for hand-built traces.

Robustness:

* writers write to a unique temporary file in the cache directory and
  ``os.replace`` it into place, so concurrent writers and crashes can
  never leave a partially written entry under the final name;
* every entry embeds a payload checksum; a truncated, garbled or
  checksum-mismatched entry is silently discarded and recomputed, never
  trusted and never fatal.

Layout (``$TBPOINT_CACHE_DIR`` or ``~/.cache/tbpoint``)::

    profiles/<key>.npz    one cached KernelProfile per trace identity
    stats.json            cumulative hit/miss counters (cache info)
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np

from repro.profiler.functional import (
    PROFILER_VERSION,
    KernelProfile,
    LaunchProfile,
    profile_kernel,
)
from repro.trace import KernelTrace

#: On-disk entry format version (independent of the profiler version).
CACHE_FORMAT_VERSION = 1


def default_cache_dir() -> Path:
    """``$TBPOINT_CACHE_DIR``, or ``~/.cache/tbpoint``."""
    env = os.environ.get("TBPOINT_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "tbpoint"


def _hash_array(h, arr: np.ndarray) -> None:
    """Feed one array into ``h``: dtype and shape, then its bytes, so
    equal bytes laid out differently hash differently."""
    h.update(f"{arr.dtype.str}{arr.shape}".encode())
    h.update(np.ascontiguousarray(arr).tobytes())


def kernel_fingerprint(kernel: KernelTrace) -> str:
    """Full content hash of a kernel trace (all launches, all blocks).

    Streams every block's own arrays (``op``, ``bb``, ``pos``,
    ``mem_req``, ``addr``, ``spread``, ``active``) through BLAKE2b in
    dispatch order.
    This walks the whole trace — use it only when the trace has no
    provenance; it exists so hand-built traces still get correct
    content-addressed caching.
    """
    h = hashlib.blake2b(digest_size=20)
    h.update(f"{kernel.name}:{kernel.num_launches}".encode())
    for launch in kernel.launches:
        h.update(
            f"L{launch.launch_id}:{launch.num_blocks}:"
            f"{launch.warps_per_block}:{launch.num_bbs}".encode()
        )
        for block in launch.iter_blocks():
            for col in (block.op, block.bb, block.pos, block.mem_req,
                        block.addr, block.spread, block.active):
                _hash_array(h, col)
    return h.hexdigest()


def kernel_cache_key(kernel: KernelTrace) -> str:
    """Cache key for a kernel trace: provenance hash if available, full
    content fingerprint otherwise; always salted with the profiler
    version so profiler changes invalidate every entry."""
    if kernel.provenance is not None:
        ident = repr((kernel.provenance, "profiler", PROFILER_VERSION))
        return hashlib.blake2b(ident.encode(), digest_size=20).hexdigest()
    ident = f"{kernel_fingerprint(kernel)}:profiler:{PROFILER_VERSION}"
    return hashlib.blake2b(ident.encode(), digest_size=20).hexdigest()


def _payload_checksum(arrays: dict[str, np.ndarray]) -> str:
    h = hashlib.blake2b(digest_size=16)
    for name in sorted(arrays):
        h.update(name.encode())
        h.update(np.ascontiguousarray(arrays[name]).tobytes())
    return h.hexdigest()


def _serialize_profile(profile: KernelProfile) -> dict[str, np.ndarray]:
    """Columnar encoding: per-launch metadata plus concatenated counters
    (block boundaries recovered from ``num_blocks`` offsets)."""
    arrays = {
        "num_blocks": np.array(
            [p.num_blocks for p in profile.launches], dtype=np.int64
        ),
        "warps_per_block": np.array(
            [p.warps_per_block for p in profile.launches], dtype=np.int64
        ),
        "warp_insts": np.concatenate(
            [p.warp_insts for p in profile.launches]
        ).astype(np.int64),
        "thread_insts": np.concatenate(
            [p.thread_insts for p in profile.launches]
        ).astype(np.int64),
        "mem_requests": np.concatenate(
            [p.mem_requests for p in profile.launches]
        ).astype(np.int64),
    }
    return arrays


def _deserialize_profile(kernel_name: str, data) -> KernelProfile:
    num_blocks = np.asarray(data["num_blocks"], dtype=np.int64)
    warps_per_block = np.asarray(data["warps_per_block"], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(num_blocks)])
    total = int(offsets[-1])
    cols = {}
    for name in ("warp_insts", "thread_insts", "mem_requests"):
        col = np.asarray(data[name], dtype=np.int64)
        if len(col) != total:
            raise ValueError("profile cache entry: column length mismatch")
        cols[name] = col
    launches = []
    for i in range(len(num_blocks)):
        lo, hi = int(offsets[i]), int(offsets[i + 1])
        launches.append(
            LaunchProfile(
                kernel_name=kernel_name,
                launch_id=i,
                warps_per_block=int(warps_per_block[i]),
                warp_insts=cols["warp_insts"][lo:hi].copy(),
                thread_insts=cols["thread_insts"][lo:hi].copy(),
                mem_requests=cols["mem_requests"][lo:hi].copy(),
            )
        )
    return KernelProfile(kernel_name=kernel_name, launches=launches)


class ProfileCache:
    """Persistent, concurrency-safe store of functional profiles.

    Instances also count this-process hits/misses (``session_hits`` /
    ``session_misses``); cumulative counters persist in ``stats.json``
    so ``repro cache info`` can show that a rerun profiled nothing.
    """

    def __init__(self, cache_dir: str | Path | None = None):
        self.root = Path(cache_dir) if cache_dir else default_cache_dir()
        self.profiles_dir = self.root / "profiles"
        self.stats_path = self.root / "stats.json"
        self.session_hits = 0
        self.session_misses = 0

    # ------------------------------------------------------------------
    # Entry storage
    # ------------------------------------------------------------------
    def _entry_path(self, key: str) -> Path:
        return self.profiles_dir / f"{key}.npz"

    def get(self, key: str, kernel_name: str) -> KernelProfile | None:
        """Load an entry; any corruption counts as a miss and removes
        the bad entry so it is recomputed, never crashes."""
        path = self._entry_path(key)
        if not path.exists():
            return None
        try:
            with np.load(path, allow_pickle=False) as data:
                if int(data["format_version"]) != CACHE_FORMAT_VERSION:
                    raise ValueError("unsupported cache entry format")
                arrays = {
                    name: data[name]
                    for name in ("num_blocks", "warps_per_block",
                                 "warp_insts", "thread_insts", "mem_requests")
                }
                stored = str(data["checksum"])
                if _payload_checksum(arrays) != stored:
                    raise ValueError("cache entry checksum mismatch")
                return _deserialize_profile(kernel_name, arrays)
        except KeyboardInterrupt:
            raise
        except Exception:
            # Truncated archive, bad zip, missing column, checksum
            # mismatch, version skew: discard and recompute.
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def put(self, key: str, profile: KernelProfile) -> None:
        """Atomically store an entry (write-to-temp + rename), so
        concurrent writers of the same key both leave a valid file.
        Best-effort: an unwritable cache location skips storing rather
        than failing the run the cache exists to accelerate."""
        arrays = _serialize_profile(profile)
        final = self._entry_path(key)
        tmp = final.with_name(
            f".{key}.{os.getpid()}.{id(profile) & 0xFFFF:x}.tmp"
        )
        try:
            self.profiles_dir.mkdir(parents=True, exist_ok=True)
            with open(tmp, "wb") as fh:
                np.savez_compressed(
                    fh,
                    format_version=np.int64(CACHE_FORMAT_VERSION),
                    checksum=np.str_(_payload_checksum(arrays)),
                    **arrays,
                )
            os.replace(tmp, final)
        except OSError:
            pass
        finally:
            if tmp.exists():
                try:
                    tmp.unlink()
                except OSError:
                    pass

    # ------------------------------------------------------------------
    # The one high-level operation the pipeline uses
    # ------------------------------------------------------------------
    def profile(self, kernel: KernelTrace) -> KernelProfile:
        """Return the kernel's functional profile, computing and storing
        it only on the first request for this trace identity ever."""
        key = kernel_cache_key(kernel)
        cached = self.get(key, kernel.name)
        if cached is not None:
            self.session_hits += 1
            self._bump(hits=1)
            return cached
        profile = profile_kernel(kernel)
        self.put(key, profile)
        self.session_misses += 1
        self._bump(misses=1)
        return profile

    # ------------------------------------------------------------------
    # Counters and maintenance (the `repro cache` CLI)
    # ------------------------------------------------------------------
    def _read_stats(self) -> dict:
        try:
            with open(self.stats_path) as fh:
                stats = json.load(fh)
            if not isinstance(stats, dict):
                return {}
            return stats
        except (OSError, ValueError):
            return {}

    def _bump(self, hits: int = 0, misses: int = 0) -> None:
        """Cumulative counters.  The read-modify-write cycle is guarded
        by an advisory ``flock`` on a sidecar lock file so concurrent
        workers never lose increments (regression: the multiprocess
        hammer in ``tests/test_exec_cache.py``); the write itself stays
        atomic (unique tmp + rename) so readers never see a torn file.
        Best-effort throughout: an unwritable or lock-less location
        skips counting rather than failing the run."""
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            lock_path = self.root / ".stats.lock"
            with open(lock_path, "a") as lock:
                try:
                    import fcntl

                    fcntl.flock(lock, fcntl.LOCK_EX)
                except (ImportError, OSError):
                    pass  # no locking available: degrade to best-effort
                stats = self._read_stats()
                stats["hits"] = int(stats.get("hits", 0)) + hits
                stats["misses"] = int(stats.get("misses", 0)) + misses
                tmp = self.stats_path.with_name(
                    f".stats.{os.getpid()}.{id(stats) & 0xFFFF:x}.tmp"
                )
                try:
                    with open(tmp, "w") as fh:
                        json.dump(stats, fh)
                    os.replace(tmp, self.stats_path)
                finally:
                    if tmp.exists():
                        try:
                            tmp.unlink()
                        except OSError:
                            pass
                # The lock releases when ``lock`` closes.
        except OSError:
            pass

    def entries(self) -> list[Path]:
        """Every cached profile, **sorted by path**.

        The sort is a determinism contract, not a nicety: ``glob``
        enumerates in filesystem order, which differs across machines
        and even across runs on the same machine, and everything
        downstream (``info()`` byte totals, ``clear()`` removal order,
        sweep resume scans) must not depend on it.  DET005 in
        ``repro lint`` enforces the same rule tree-wide."""
        if not self.profiles_dir.is_dir():
            return []
        return sorted(self.profiles_dir.glob("*.npz"))

    def info(self) -> dict:
        """Everything ``repro cache info`` reports."""
        entries = self.entries()
        stats = self._read_stats()
        return {
            "dir": str(self.root),
            "entries": len(entries),
            "bytes": sum(p.stat().st_size for p in entries),
            "hits": int(stats.get("hits", 0)),
            "misses": int(stats.get("misses", 0)),
            "profiler_version": PROFILER_VERSION,
            "format_version": CACHE_FORMAT_VERSION,
        }

    def clear(self) -> int:
        """Remove every cache entry and the counters; returns the number
        of entries removed."""
        removed = 0
        for path in self.entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        try:
            self.stats_path.unlink()
        except OSError:
            pass
        return removed


def cached_profile(kernel: KernelTrace, exec_config=None) -> KernelProfile:
    """Profile a kernel through the persistent cache when the execution
    configuration enables it; plain :func:`profile_kernel` otherwise."""
    if exec_config is not None and exec_config.use_cache:
        return ProfileCache(exec_config.cache_dir).profile(kernel)
    return profile_kernel(kernel)


__all__ = [
    "CACHE_FORMAT_VERSION",
    "ProfileCache",
    "cached_profile",
    "default_cache_dir",
    "kernel_cache_key",
    "kernel_fingerprint",
]
