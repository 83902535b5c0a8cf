"""Synthetic GPGPU workload framework.

The paper evaluates 12 CUDA benchmarks (Table VI) executed on real GPUs
and traced with GPUOcelot.  We have neither the GPUs nor the suites, so
each benchmark is replaced by a *parameterized synthetic kernel* that
reproduces the statistical structure the sampling techniques respond to:

* the launch schedule (how many launches, how similar they are —
  inter-launch sampling's signal);
* the per-thread-block instruction counts, memory intensity, control
  divergence and coalescing, laid out in contiguous *segments* of
  thread-block IDs (intra-launch sampling's signal: Fig. 6's
  piecewise-constant stall probability);
* outlier thread blocks (mst's story: Section V-B);
* address streams with controllable locality, so cache warm-up and DRAM
  contention behave qualitatively like the real memory hierarchy.

Everything is synthesized deterministically from counter-based RNG keyed
by (kernel seed, launch, thread block), so regeneration is cheap and
reproducible.
"""

from __future__ import annotations

import hashlib
import weakref
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.trace import (
    OP_ALU,
    OP_BRANCH,
    OP_FP,
    OP_MEM_GLOBAL,
    OP_SFU,
    BlockTrace,
    KernelTrace,
    LaunchTrace,
)

#: Cache-line granularity of generated addresses (Table V: 128 B lines).
LINE = 128

#: Version of the synthetic-trace generator.  Part of the profile-cache
#: key: bump it whenever block synthesis changes so stale cached
#: profiles are never reused for regenerated traces.
GENERATOR_VERSION = 1

#: Bytes reserved per launch in the synthetic address space, so distinct
#: launches never alias in the caches.
_LAUNCH_SPAN = 1 << 34


def kernel_seed(name: str, master_seed: int) -> int:
    """Stable 63-bit seed for a kernel derived from its name and the
    experiment master seed (never Python's salted ``hash``)."""
    digest = hashlib.blake2b(
        f"{name}:{master_seed}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little") >> 1


def scaled(count: int, scale: float, floor: int = 1) -> int:
    """Scale a Table VI thread-block count, never dropping below
    ``floor`` (small kernels stay at a size where epochs still exist)."""
    return max(floor, min(count, int(round(count * scale))))


@dataclass(frozen=True)
class Segment:
    """A contiguous run of thread blocks sharing execution behaviour.

    Attributes
    ----------
    count:
        Number of thread blocks in the segment.
    insts_per_warp:
        Nominal warp instructions per warp for blocks in this segment.
    size_cov:
        Coefficient of variation of a per-block lognormal size multiplier
        (0 for regular kernels; >0 models irregular per-block work).
    mem_ratio:
        Fraction of warp instructions that are global-memory accesses —
        the realized stall probability ``p`` of Eq. 5.
    locality:
        Fraction of memory instructions that hit a small per-segment
        reuse window (L1-resident after warm-up).  Low locality means
        streaming/gather traffic that goes to L2/DRAM.
    coalesce_mean:
        Mean memory transactions per memory instruction (1 = perfectly
        coalesced, up to 32 = fully divergent).
    active_mean:
        Mean active threads per warp instruction (32 = no control
        divergence).
    pattern:
        Address pattern for non-local accesses: ``"stream"`` walks the
        working set sequentially, ``"gather"`` addresses it at random.
    working_set:
        Bytes of the streaming/gather window.
    reuse_window:
        Size in bytes of the shared reuse window that ``locality``
        accesses hit; the default fits in the 16 KiB L1, so locality
        traffic becomes L1-resident once warm.
    outlier_rate / outlier_scale:
        Fraction of blocks that are outliers and their size multiplier
        (mst-style straggler thread blocks).
    fp_ratio / sfu_ratio:
        Fraction of instructions that are long-latency FP / SFU ops.
    """

    count: int
    insts_per_warp: int = 64
    size_cov: float = 0.0
    mem_ratio: float = 0.10
    locality: float = 0.5
    coalesce_mean: float = 1.0
    active_mean: float = 32.0
    pattern: str = "stream"
    working_set: int = 1 << 24
    reuse_window: int = 8 << 10
    outlier_rate: float = 0.0
    outlier_scale: float = 1.0
    fp_ratio: float = 0.05
    sfu_ratio: float = 0.0
    #: Per-block jitter of ``locality`` (absolute std, clipped to [0, 1])
    #: and ``coalesce_mean`` (relative std).  This is performance
    #: variation *invisible to basic-block vectors* — the same code
    #: touching data with slightly different locality/coalescing — which
    #: is exactly the paper's argument for why BBVs under-describe GPGPU
    #: performance (Section III).
    locality_jitter: float = 0.0
    coalesce_jitter: float = 0.0
    #: Amplitude of a slow sinusoidal drift of ``locality`` across the
    #: segment (two periods per segment).  Models spatially correlated
    #: data locality across the grid: neighbouring blocks behave alike,
    #: distant blocks differ — again invisible to BBVs, and too gentle
    #: for the Eq. 5 stall probability to see.
    locality_drift: float = 0.0

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise ValueError("segment with no thread blocks")
        if not 0 <= self.mem_ratio < 1:
            raise ValueError("mem_ratio must be in [0, 1)")
        if self.pattern not in ("stream", "gather"):
            raise ValueError(f"unknown address pattern {self.pattern!r}")
        if self.insts_per_warp < 8:
            raise ValueError("insts_per_warp must be >= 8")
        if self.reuse_window < LINE:
            raise ValueError("reuse_window must hold at least one line")


@dataclass(frozen=True)
class LaunchSpec:
    """Specification of one kernel launch: its segments plus code shape."""

    segments: tuple[Segment, ...]
    warps_per_block: int = 8
    #: first basic-block ID used by this launch's code variant; launches
    #: that run different code paths use different offsets so BBVs can
    #: tell them apart (as they would for real kernels).
    bb_offset: int = 0
    #: number of distinct basic blocks in this launch's loop body.
    bb_body: int = 6
    #: None: each launch processes fresh data (frontier kernels), so
    #: block synthesis is keyed per launch.  An integer: every launch
    #: with this key processes the *same* data (iterative kernels like
    #: spmv/cfd/lbm re-reading one matrix/mesh), so block i is identical
    #: across those launches — which is exactly why such launches have
    #: homogeneous performance and cluster together.
    data_key: int | None = None
    #: For data-keyed launches: the fraction of blocks whose data is
    #: nevertheless launch-specific (boundary values updated between
    #: iterations), restoring the small launch-to-launch timing jitter a
    #: real iterative kernel has.
    perturb: float = 0.0

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("launch with no segments")
        if self.warps_per_block <= 0:
            raise ValueError("warps_per_block must be positive")

    @property
    def num_blocks(self) -> int:
        return sum(s.count for s in self.segments)


@lru_cache(maxsize=512)
def _skeleton(seg: Segment, spec: LaunchSpec, n: int):
    """Shared static instruction skeleton for blocks of one segment at
    size ``n``: op classes, basic-block labels, memory positions, and
    (for divergence-free segments) a shared active-thread column.

    The arrays are marked read-only and shared across every warp and
    block with the same (segment, spec, n) — the dynamic per-warp
    columns (addresses, transaction counts) are generated per block.
    """
    op = np.full(n, OP_ALU, dtype=np.uint8)
    if seg.fp_ratio > 0:
        step = max(2, int(round(1.0 / seg.fp_ratio)))
        op[0::step] = OP_FP
    if seg.sfu_ratio > 0:
        step = max(2, int(round(1.0 / seg.sfu_ratio)))
        op[1::step] = OP_SFU
    # Loop back-edges: one branch per basic-block traversal.
    bstep = max(4, n // max(1, spec.bb_body))
    op[bstep - 1::bstep] = OP_BRANCH

    # Memory instructions evenly spaced (spacing >= 1 keeps them unique)
    # so the realized stall probability is steady across execution.
    m = int(round(n * seg.mem_ratio))
    if m > 0:
        pos = np.minimum(
            ((np.arange(m) + 0.5) * (n / m)).astype(np.int64), n - 1
        )
        op[pos] = OP_MEM_GLOBAL
    else:
        pos = np.empty(0, dtype=np.int64)

    # Basic-block labels: prologue, cyclic loop body, epilogue.
    bb = np.empty(n, dtype=np.uint16)
    bb[:] = spec.bb_offset + 2 + (np.arange(n) % max(1, spec.bb_body))
    bb[: min(4, n)] = spec.bb_offset  # prologue
    bb[-min(4, n):] = spec.bb_offset + 1  # epilogue

    active_const = None
    if seg.active_mean >= 31.5:
        active_const = np.full(n, 32, dtype=np.uint8)
        active_const.setflags(write=False)
    op.setflags(write=False)
    bb.setflags(write=False)
    pos.setflags(write=False)
    return op, bb, pos, active_const


def _synthesize_block(
    tb_id: int,
    seg: Segment,
    spec: LaunchSpec,
    seed: int,
    data_id: int,
    seg_pos: int,
    addr_base: int,
) -> BlockTrace:
    """Synthesize one thread block's trace from its segment parameters.

    The block's arrays are filled directly in :class:`BlockTrace`'s
    compact layout and marked read-only, like the skeleton's arrays: one
    block object may sit in several launches' memos (see
    :data:`_live_blocks`)."""
    rng = np.random.Generator(
        np.random.Philox(key=[seed, (data_id << 32) | tb_id])
    )

    # Per-block size multiplier: lognormal jitter plus rare outliers.
    size_mult = 1.0
    if seg.size_cov > 0:
        sigma = float(np.sqrt(np.log1p(seg.size_cov**2)))
        size_mult = float(rng.lognormal(-0.5 * sigma * sigma, sigma))
    if seg.outlier_rate > 0 and rng.random() < seg.outlier_rate:
        size_mult *= seg.outlier_scale
    n = max(8, int(round(seg.insts_per_warp * size_mult)))

    # All warps of a block execute the same code, so the instruction
    # skeleton (op classes, memory positions, basic blocks) is shared and
    # only the data-dependent columns (addresses, coalescing, divergence)
    # vary per warp.  They are generated as (warps, m) matrices over the
    # m memory positions only, plus a (warps, n) active-thread matrix
    # when the segment diverges.
    W = spec.warps_per_block
    op, bb, pos, active_const = _skeleton(seg, spec, n)
    m = len(pos)

    # Per-block behavioral jitter (same code, slightly different data
    # locality/coalescing — invisible to BBVs).
    locality = seg.locality
    if seg.locality_drift > 0:
        phase = 4.0 * np.pi * seg_pos / max(1, seg.count)
        locality += seg.locality_drift * float(np.sin(phase))
    if seg.locality_jitter > 0:
        locality += float(rng.normal(0.0, seg.locality_jitter))
    locality = float(np.clip(locality, 0.0, 1.0))
    coalesce = seg.coalesce_mean
    if seg.coalesce_jitter > 0:
        coalesce = max(
            1.0, coalesce * (1.0 + float(rng.normal(0.0, seg.coalesce_jitter)))
        )

    if m > 0:
        mem_req = np.clip(
            1 + rng.poisson(max(0.0, coalesce - 1.0), (W, m)), 1, 32
        ).astype(np.uint8)

        seg_window = seg.reuse_window
        local = rng.random((W, m)) < locality
        # Reused window: small per-segment region, L1-resident once warm.
        a = addr_base + rng.integers(0, seg_window // LINE, (W, m)) * LINE
        far_base = addr_base + seg_window
        if seg.pattern == "stream":
            # Each warp walks the working set sequentially from its own
            # hash-scattered start line.  A naive `warp_index * m` start
            # would put every warp's walk at the same position modulo
            # the DRAM bank count, hammering a few banks in lockstep —
            # real streaming kernels spread their tiles across banks.
            ws_lines = max(1, seg.working_set // LINE)
            gid = (tb_id * W + np.arange(W, dtype=np.int64))[:, None]
            starts = (gid * np.int64(2654435761)) % ws_lines
            far = far_base + ((starts + np.arange(m)[None, :]) % ws_lines) * LINE
        else:  # gather
            far = far_base + (
                rng.integers(0, max(1, seg.working_set // LINE), (W, m)) * LINE
            )
        addr = np.where(local, a, far).astype(np.int64, copy=False)
        # Divergent instructions scatter their transactions widely;
        # coalesced ones touch adjacent lines.
        spread = np.where(
            mem_req > 2, LINE * rng.integers(4, 64, (W, m)), np.int64(LINE)
        ).astype(np.int64, copy=False)
    else:
        mem_req = np.zeros((W, 0), dtype=np.uint8)
        addr = spread = np.zeros((W, 0), dtype=np.int64)

    # Control divergence: per-instruction active thread counts.
    active = active_const
    if active is None:
        active = np.clip(
            np.rint(rng.normal(seg.active_mean, seg.active_mean * 0.25, (W, n))),
            1,
            32,
        ).astype(np.uint8)
    for matrix in (mem_req, addr, spread, active):
        matrix.setflags(write=False)
    return BlockTrace(tb_id, op, bb, pos, mem_req, addr, spread, active)


@lru_cache(maxsize=512)
def _segment_bounds(spec: LaunchSpec) -> np.ndarray:
    """Cumulative segment end thread-block IDs of a launch spec."""
    bounds = np.cumsum([s.count for s in spec.segments])
    bounds.setflags(write=False)
    return bounds


#: Every synthesized block still referenced somewhere, keyed by all the
#: inputs that shape it: ``(spec, seed, data_id, key_id, tb_id)``.
#: Launches sharing a ``data_key`` re-read the same data, so block ``i``
#: is the same object in each of them (perturbed blocks differ by
#: ``key_id``).  The references are weak: a block lives only as long as
#: some launch's memo holds it, so sharing never raises resident memory.
_live_blocks: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


@dataclass(frozen=True)
class SpecBlockFactory:
    """Picklable block factory for spec-synthesized launches.

    Equivalent to the closure it replaces, but a plain dataclass of
    immutable fields so :class:`LaunchTrace` objects built from specs can
    cross process boundaries (the batch execution engine ships launches
    to worker processes).  A block that is still live, in this launch
    or a sibling that re-reads the same data, is returned as is instead
    of synthesized again.
    """

    spec: LaunchSpec
    seed: int
    launch_id: int
    data_id: int

    def __call__(self, tb_id: int) -> BlockTrace:
        spec = self.spec
        key_id = self.data_id
        perturb_cut = int(spec.perturb * 10_000)
        if perturb_cut and ((tb_id * 2654435761) % 10_000) < perturb_cut:
            key_id = 1_000_000 + self.launch_id  # launch-specific data
        key = (spec, self.seed, self.data_id, key_id, tb_id)
        block = _live_blocks.get(key)
        if block is not None:
            return block
        bounds = _segment_bounds(spec)
        seg_index = int(np.searchsorted(bounds, tb_id, side="right"))
        seg_start = 0 if seg_index == 0 else int(bounds[seg_index - 1])
        seg_base = self.data_id * _LAUNCH_SPAN + seg_index * (
            _LAUNCH_SPAN // max(1, len(spec.segments))
        )
        block = _live_blocks[key] = _synthesize_block(
            tb_id,
            spec.segments[seg_index],
            spec,
            self.seed,
            key_id,
            tb_id - seg_start,
            int(seg_base),
        )
        return block


def make_launch(
    kernel_name: str,
    launch_id: int,
    spec: LaunchSpec,
    seed: int,
    num_bbs: int,
) -> LaunchTrace:
    """Build a lazily synthesized :class:`LaunchTrace` from a spec."""
    # Launches over fresh data get their own RNG stream and address
    # range; launches sharing a data_key are bit-identical re-executions.
    data_id = spec.data_key if spec.data_key is not None else launch_id
    factory = SpecBlockFactory(
        spec=spec,
        seed=seed,
        launch_id=launch_id,
        data_id=data_id,
    )

    return LaunchTrace(
        kernel_name=kernel_name,
        launch_id=launch_id,
        num_blocks=spec.num_blocks,
        warps_per_block=spec.warps_per_block,
        factory=factory,
        num_bbs=num_bbs,
    )


def build_kernel(
    name: str,
    suite: str,
    kind: str,
    specs: list[LaunchSpec],
    master_seed: int,
) -> KernelTrace:
    """Assemble a :class:`KernelTrace` from per-launch specs."""
    seed = kernel_seed(name, master_seed)
    num_bbs = max(s.bb_offset + s.bb_body + 2 for s in specs)
    launches = [
        make_launch(name, i, spec, seed, num_bbs) for i, spec in enumerate(specs)
    ]
    return KernelTrace(name=name, suite=suite, kind=kind, launches=launches)


__all__ = [
    "LINE",
    "GENERATOR_VERSION",
    "Segment",
    "LaunchSpec",
    "SpecBlockFactory",
    "build_kernel",
    "make_launch",
    "kernel_seed",
    "scaled",
]
