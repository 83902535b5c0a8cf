"""Request normalization, content keys, and JSON result payloads.

This module is the *semantics* of the simulation service, kept free of
any socket or asyncio machinery so the bit-identity oracle is a plain
function call:

* :func:`normalize_request` canonicalizes a raw request-parameter dict
  (fill defaults, canonicalize numeric types, validate the kernel) into
  the normal form both the server and the oracle consume;
* :func:`request_key` derives the request's *content key* from that
  normal form via :func:`repro.exec.journal.sweep_key` — the same
  content-addressing machinery the sweep checkpoint journal uses, so
  served results are idempotent under exactly the keying discipline
  PR 4 established (duplicate in-flight requests coalesce on it, and
  the optional serve journal replays on it across restarts);
* :func:`result_payload` / :func:`tbpoint_payload` render results as
  JSON-native dicts (ints, floats, lists) — what crosses the wire is
  exactly what the oracle compares, no pickles;
* :func:`direct_payload` computes the payload for a request *from
  scratch in a fresh simulator* — a fresh ``repro run`` of the same
  request.  Every served estimate must equal it bit-for-bit; the serve
  test suite and ``benchmarks/bench_serve.py`` assert exactly that.

Why bit-identity holds: workload synthesis is deterministic in
``(kernel, scale, seed)``; ``run_launch`` resets the memory hierarchy
per launch, so timing never depends on simulation order or on how warm
an engine is; the block-memo window and trace interning are pure
caches.  A warm served result and a cold direct run are therefore the
same pure function evaluated twice.
"""

from __future__ import annotations

import math

from repro.config import GPUConfig, SamplingConfig
from repro.exec.engine import ExecutionConfig
from repro.exec.journal import sweep_key
from repro.sim.gpu import GPUSimulator, LaunchResult
from repro.workloads import ALL_KERNELS, get_workload

#: Version of the served-payload schema; salts request content keys and
#: the serve journal identity so schema changes can never replay stale
#: payloads recorded by an older server.
RESULTS_VERSION = 1

#: Request kinds that run a simulation (and therefore coalesce/journal).
COMPUTE_KINDS = ("simulate", "tbpoint")


class RequestError(ValueError):
    """A malformed or unsatisfiable request (client's fault, reported
    in the error response; never tears down the server).

    ``kind`` optionally classifies the error machine-readably so
    scripted clients can react without parsing prose: the server sets
    ``"overloaded"`` (load shed; ``retry_after`` carries a back-off
    hint in seconds), ``"draining"`` (shutdown in progress) and
    ``"deadline"`` (queued past the request's own timeout).  Both
    fields ride on the error response as ``error_kind`` /
    ``retry_after`` next to the human-readable ``error`` string.
    """

    def __init__(
        self,
        message: str,
        kind: str | None = None,
        retry_after: float | None = None,
    ):
        super().__init__(message)
        self.kind = kind
        self.retry_after = retry_after


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise RequestError(message)


def _number(params: dict, name: str, default, integral: bool):
    """One numeric parameter, type-checked rather than coerced: a JSON
    boolean or string is rejected, and an integral parameter accepts a
    float only when it holds an integer (``2014.0``, never ``2.7``)."""
    value = params.get(name, default)
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool),
        f"{name} must be a number, not {value!r}",
    )
    if integral:
        _require(isinstance(value, int) or value.is_integer(),
                 f"{name} must be an integer, not {value!r}")
        return int(value)
    try:
        return float(value)
    except OverflowError:
        raise RequestError(f"{name} is out of range: {value!r}") from None


def normalize_request(kind: str, params: dict) -> dict:
    """Canonical normal form of one compute request.

    Fills defaults, canonicalizes numeric types (JSON clients may send
    ``1`` for ``1.0`` and ``2014.0`` for ``2014``; anything that is not
    exactly such a number is a :class:`RequestError`, never coerced) and
    validates the kernel name.  Two requests that mean the same
    simulation normalize identically — which is what makes
    :func:`request_key` a true content key.  The daemon always runs the
    system simulator (compact engine, ``fast`` memory front end, the
    default :class:`~repro.config.GPUConfig`), so implementation
    choices that the bit-identity contract makes timing-invariant are
    not request parameters.
    """
    _require(kind in COMPUTE_KINDS, f"unknown compute kind {kind!r}")
    _require(isinstance(params, dict), "params must be an object")
    known = {"kernel", "scale", "seed", "launch", "timeout"}
    unknown = set(params) - known
    _require(not unknown, f"unknown request parameters: {sorted(unknown)}")

    kernel = params.get("kernel")
    _require(isinstance(kernel, str) and kernel in ALL_KERNELS,
             f"unknown kernel {kernel!r}; known: {list(ALL_KERNELS)}")
    scale = _number(params, "scale", 0.125, integral=False)
    seed = _number(params, "seed", 2014, integral=True)
    launch = _number(params, "launch", 0, integral=True)
    _require(0 < scale <= 1, "scale must be in (0, 1]")
    _require(launch >= 0, "launch must be >= 0")
    if "timeout" in params:  # validated here, but never part of the key
        timeout = _number(params, "timeout", None, integral=False)
        _require(math.isfinite(timeout) and timeout > 0,
                 f"timeout must be a finite number > 0, not {timeout!r}")
    norm = {"kind": kind, "kernel": kernel, "scale": scale, "seed": seed}
    if kind == "simulate":
        norm["launch"] = launch
    elif "launch" in params:
        raise RequestError("tbpoint requests estimate the whole kernel; "
                           "'launch' applies to simulate requests only")
    return norm


def request_key(norm: dict) -> str:
    """Content key of a normalized request — the PR 4 journal keying
    (:func:`~repro.exec.journal.sweep_key`) over every result-shaping
    parameter, salted with the payload schema version."""
    ident = tuple(sorted(norm.items())) + (("results", RESULTS_VERSION),)
    return sweep_key("serve", ident)


# ----------------------------------------------------------------------
# Result payloads (JSON-native: what crosses the wire IS the oracle's
# comparison object; json round-trips of ints/floats are exact)
# ----------------------------------------------------------------------
def result_payload(result: LaunchResult) -> dict:
    """JSON-native summary of one launch simulation."""
    counters = result.counters
    return {
        "launch_id": int(result.launch_id),
        "issued_warp_insts": int(result.issued_warp_insts),
        "wall_cycles": int(result.wall_cycles),
        "skipped_warp_insts": int(result.skipped_warp_insts),
        "machine_ipc": float(result.machine_ipc),
        "per_sm_issued": [int(v) for v in result.per_sm_issued],
        "per_sm_busy_cycles": [int(v) for v in result.per_sm_busy_cycles],
        "mem_stats": dict(result.mem_stats),
        "block_regenerations": (
            int(counters.block_regenerations) if counters is not None else None
        ),
    }


def tbpoint_payload(result) -> dict:
    """JSON-native summary of one TBPoint kernel estimate
    (:class:`~repro.core.pipeline.TBPointResult`)."""
    return {
        "kernel": result.kernel_name,
        "overall_ipc": float(result.overall_ipc),
        "sample_size": float(result.sample_size),
        "num_launches": len(result.estimate.launches),
        "simulated_launches": sorted(int(k) for k in result.rep_results),
        "inter_skipped_insts": int(result.inter_skipped_insts),
        "intra_skipped_insts": int(result.intra_skipped_insts),
    }


# ----------------------------------------------------------------------
# The oracle: a fresh direct run of the same request
# ----------------------------------------------------------------------
def direct_payload(norm: dict) -> dict:
    """Compute the payload for a normalized request from scratch — a
    fresh workload build, a fresh (cold) simulator, no caches.  This is
    what ``repro run``/``repro simulate`` would produce for the same
    request; every served payload must equal it exactly.

    ``block_regenerations`` is the one field the oracle *recomputes
    against its own default memo window* — it is observability of the
    cache, not of the simulated machine, so the serve tests compare it
    separately (the daemon's enlarged window must drive it to zero, not
    match the cold run's thrash).
    """
    kernel = get_workload(norm["kernel"], scale=norm["scale"], seed=norm["seed"])
    gpu = GPUConfig()
    simulator = GPUSimulator(gpu)
    if norm["kind"] == "simulate":
        _require(
            norm["launch"] < len(kernel.launches),
            f"launch {norm['launch']} out of range: {norm['kernel']} has "
            f"{len(kernel.launches)} launches at scale {norm['scale']:g}",
        )
        result = simulator.run_launch(kernel.launches[norm["launch"]])
        return result_payload(result)
    from repro.core.pipeline import run_tbpoint

    tbp = run_tbpoint(
        kernel,
        gpu,
        SamplingConfig(),
        simulator=simulator,
        exec_config=ExecutionConfig(jobs=1, use_cache=False),
    )
    return tbpoint_payload(tbp)


def payloads_equal(served: dict, direct: dict) -> bool:
    """The bit-identity predicate: every field equal except
    ``block_regenerations`` (cache observability, see
    :func:`direct_payload`)."""
    a = {k: v for k, v in served.items() if k != "block_regenerations"}
    b = {k: v for k, v in direct.items() if k != "block_regenerations"}
    return a == b


__all__ = [
    "COMPUTE_KINDS",
    "RESULTS_VERSION",
    "RequestError",
    "direct_payload",
    "normalize_request",
    "payloads_equal",
    "request_key",
    "result_payload",
    "tbpoint_payload",
]
