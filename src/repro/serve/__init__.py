"""Warm-state simulation service: ``repro serve`` / ``repro request``.

A long-lived daemon (:mod:`repro.serve.server`) owns warm simulation
state — warm engine pool, resident kernel traces with enlarged
block-memo windows, in-memory profile mirror, optional journal-backed
idempotent replay — and amortizes process cold-start across requests.
Clients (:mod:`repro.serve.client`) speak a length-prefixed JSON
protocol (:mod:`repro.serve.protocol`); request semantics and the
bit-identity oracle live in :mod:`repro.serve.payloads`.  Compute
runs on the repo's one supervised pool of crash-isolated worker
processes (:mod:`repro.exec.pool`, shared with ``parallel_map``), each
running the job body in :mod:`repro.serve.jobs`.

DESIGN.md §13–14 document the architecture, the measured warm/cold
latency and the supervision contract; ``benchmarks/bench_serve.py``
produces ``BENCH_serve.json``.
"""

from repro.exec.pool import (
    Overloaded,
    SupervisorConfig,
    WorkerJobFailed,
    WorkerSupervisor,
    WorkersUnavailable,
)
from repro.serve.client import (
    ServeClient,
    ServeConnectionError,
    ServeError,
    wait_for_server,
)
from repro.serve.jobs import JobMeta, JobRunner
from repro.serve.payloads import (
    RESULTS_VERSION,
    RequestError,
    direct_payload,
    normalize_request,
    payloads_equal,
    request_key,
)
from repro.serve.protocol import PROTOCOL_VERSION, ProtocolError
from repro.serve.server import (
    ServeConfig,
    ServeCounters,
    Server,
    ServerThread,
    default_socket_path,
    run_server,
)

__all__ = [
    "JobMeta",
    "JobRunner",
    "Overloaded",
    "PROTOCOL_VERSION",
    "RESULTS_VERSION",
    "ProtocolError",
    "RequestError",
    "ServeClient",
    "ServeConfig",
    "ServeConnectionError",
    "ServeCounters",
    "ServeError",
    "Server",
    "ServerThread",
    "SupervisorConfig",
    "WorkerJobFailed",
    "WorkerSupervisor",
    "WorkersUnavailable",
    "default_socket_path",
    "direct_payload",
    "normalize_request",
    "payloads_equal",
    "request_key",
    "run_server",
    "wait_for_server",
]
