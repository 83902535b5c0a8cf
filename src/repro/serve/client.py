"""Blocking client for the simulation service (``repro request``).

:class:`ServeClient` speaks the length-prefixed JSON protocol over a
unix or TCP socket.  Calls are synchronous request/response; the client
tags each request with a monotonically increasing ``id`` and matches
responses by tag, so a single connection can also be driven in
pipelined mode (:meth:`submit` then :meth:`drain`) — the pattern the
coalescing tests and the sustained-throughput bench use.

The client keeps no local caching — warmth lives in the server; a
client that silently cached would undermine the bit-identity story the
serve tests enforce.  It does, however, survive one transport failure
per call (PR 9): requests are idempotent under the server's content
keys (duplicates coalesce in flight and replay from the journal), so
when the connection drops mid-request :meth:`call` reconnects and
resends exactly once, counting each recovery in :attr:`reconnects`.
Pipelined use (:meth:`submit`/:meth:`drain`) never auto-retries — a
drop there loses the whole in-flight window, which the caller must
replay itself.
"""

from __future__ import annotations

import socket
import time

from repro.serve.protocol import ProtocolError, recv_message, send_message


class ServeError(RuntimeError):
    """The server answered ``ok=false`` (the request's fault) or the
    conversation broke (connection/protocol trouble).

    ``kind`` / ``retry_after`` mirror the response's machine-readable
    ``error_kind`` / ``retry_after`` fields when the server sent them
    (e.g. kind ``"overloaded"`` with a back-off hint in seconds).
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


class ServeConnectionError(ServeError, ConnectionError):
    """The transport failed before a response arrived (send error,
    receive error, or the server hung up mid-conversation) — the one
    failure class :meth:`ServeClient.call` retries after reconnecting."""


class ServeClient:
    """One connection to a running simulation server.

    >>> with ServeClient(path) as client:
    ...     payload = client.simulate("hotspot", scale=0.125)
    ...     stats = client.stats()
    """

    def __init__(
        self,
        socket_path: str | None = None,
        host: str | None = None,
        port: int | None = None,
        connect_timeout: float = 10.0,
        retry_connect: bool = True,
    ):
        if (socket_path is None) == (host is None):
            raise ValueError("pass exactly one of socket_path or (host, port)")
        if host is not None and port is None:
            raise ValueError("TCP connections need an explicit port")
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.connect_timeout = connect_timeout
        #: Reconnect + resend once per :meth:`call` on transport failure.
        self.retry_connect = retry_connect
        #: Transport failures recovered by reconnecting (tests read this).
        self.reconnects = 0
        self._sock: socket.socket | None = None
        self._next_id = 0
        #: Responses received while waiting for a different id (pipelined
        #: peers may answer out of order).
        self._stash: dict[object, dict] = {}

    # ------------------------------------------------------------------
    # Connection plumbing
    # ------------------------------------------------------------------
    def _connect(self) -> socket.socket:
        if self._sock is None:
            if self.socket_path is not None:
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.settimeout(self.connect_timeout)
                sock.connect(self.socket_path)
            else:
                sock = socket.create_connection(
                    (self.host, self.port), timeout=self.connect_timeout
                )
            sock.settimeout(None)  # requests block until answered
            self._sock = sock
        return self._sock

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Pipelined primitives
    # ------------------------------------------------------------------
    def submit(self, kind: str, params: dict | None = None) -> int:
        """Send one request without waiting; returns its id (for
        :meth:`drain`)."""
        rid = self._next_id
        self._next_id += 1
        msg = {"id": rid, "kind": kind}
        if params is not None:
            msg["params"] = params
        try:
            send_message(self._connect(), msg)
        except OSError as exc:
            self.close()
            raise ServeConnectionError(f"send failed: {exc}") from exc
        return rid

    def drain(self, rid: int) -> dict:
        """Block until the response for ``rid`` arrives; stashes any
        out-of-order responses for their own ``drain`` calls."""
        if rid in self._stash:
            response = self._stash.pop(rid)
        else:
            sock = self._connect()
            while True:
                try:
                    response = recv_message(sock)
                except ProtocolError as exc:
                    self.close()
                    raise ServeError(f"receive failed: {exc}") from exc
                except OSError as exc:
                    self.close()
                    raise ServeConnectionError(f"receive failed: {exc}") from exc
                if response is None:
                    self.close()
                    raise ServeConnectionError(
                        "server closed the connection before answering"
                    )
                if response.get("id") == rid:
                    break
                self._stash[response.get("id")] = response
        if not response.get("ok"):
            raise ServeError(
                str(response.get("error", "unknown server error")),
                kind=response.get("error_kind"),
                retry_after=response.get("retry_after"),
            )
        result = response.get("result")
        return result if isinstance(result, dict) else {}

    def call(self, kind: str, params: dict | None = None) -> dict:
        """One synchronous round trip.  On a transport failure
        (:class:`ServeConnectionError`) the client reconnects and
        resends exactly once — safe because compute requests are
        idempotent under the server's content keys."""
        try:
            return self.drain(self.submit(kind, params))
        except ServeConnectionError:
            if not self.retry_connect:
                raise
            self.reconnects += 1
            return self.drain(self.submit(kind, params))

    # ------------------------------------------------------------------
    # Request kinds
    # ------------------------------------------------------------------
    def simulate(self, kernel: str, **params: object) -> dict:
        """Simulate one launch (see ``normalize_request`` for params:
        scale, seed, launch, timeout)."""
        return self.call("simulate", {"kernel": kernel, **params})

    def tbpoint(self, kernel: str, **params: object) -> dict:
        """Full TBPoint estimate of one kernel."""
        return self.call("tbpoint", {"kernel": kernel, **params})

    def stats(self) -> dict:
        return self.call("stats")

    def ping(self) -> dict:
        return self.call("ping")

    def shutdown(self) -> dict:
        """Ask the server to drain and exit (in-flight work completes)."""
        return self.call("shutdown")


def wait_for_server(
    socket_path: str | None = None,
    host: str | None = None,
    port: int | None = None,
    timeout: float = 15.0,
    interval: float = 0.05,
) -> None:
    """Poll until a server answers ``ping`` (used right after spawning a
    daemon).  Raises :class:`ServeError` on timeout."""
    deadline = time.monotonic() + timeout  # wall-clock poll budget  # lint: disable=DET001
    last: Exception | None = None
    while time.monotonic() < deadline:  # wall-clock poll budget  # lint: disable=DET001
        try:
            with ServeClient(socket_path, host, port) as client:
                client.ping()
            return
        except (ServeError, OSError) as exc:
            last = exc
            time.sleep(interval)
    raise ServeError(f"no server answered within {timeout:g}s: {last!r}")


__all__ = [
    "ServeClient",
    "ServeConnectionError",
    "ServeError",
    "wait_for_server",
]
