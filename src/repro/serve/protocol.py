"""Length-prefixed JSON wire protocol for the simulation service.

One message = a 4-byte big-endian payload length followed by that many
bytes of UTF-8 JSON (always one object).  Length prefixing keeps the
framing trivial and pipelining natural: a client may write any number
of requests before reading responses, and the server replies to each
request exactly once, tagged with the request's ``id`` (responses to
pipelined requests may arrive out of order — requests are admitted and
simulated concurrently).

Requests::

    {"id": 7, "kind": "simulate", "params": {"kernel": "hotspot", ...}}

Responses::

    {"id": 7, "ok": true, "result": {...}}
    {"id": 7, "ok": false, "error": "deadline exceeded in queue"}

The module carries both transports of the same framing: blocking
socket helpers (:func:`send_message` / :func:`recv_message`) for the
client, and asyncio stream helpers (:func:`read_message` /
:func:`write_message`) for the server.  Payloads are pure JSON — no
pickles cross the socket, so a served result is exactly what lands in
``BENCH_serve.json`` and what the bit-identity oracle compares.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct

#: Protocol/framing version, embedded in ``ping``/``stats`` responses.
PROTOCOL_VERSION = 2

#: Upper bound on one message; guards the server against garbage
#: prefixes from a misbehaving peer, not a real payload limit.
MAX_MESSAGE_BYTES = 64 * 1024 * 1024

#: Fields every wire message must carry, by direction.  The MSG002 lint
#: rule enforces this at every send site: a field may only become
#: required here once every sender already emits it unconditionally
#: (the additive-evolution rule, DESIGN.md §15; pairs with the
#: ``PROTOCOL_VERSION`` compatibility contract in §14).
REQUIRED_FIELDS = {
    "request": ("id", "kind"),
    "response": ("id", "ok"),
}

_HEADER = struct.Struct(">I")


class ProtocolError(Exception):
    """Malformed framing or payload on the wire."""


def encode_message(obj: dict) -> bytes:
    """One framed message: length prefix + compact JSON payload."""
    payload = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_MESSAGE_BYTES:
        raise ProtocolError(f"message too large ({len(payload)} bytes)")
    return _HEADER.pack(len(payload)) + payload


def decode_payload(payload: bytes) -> dict:
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"undecodable message payload: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError("message payload must be a JSON object")
    return obj


def _decode_length(header: bytes) -> int:
    (length,) = _HEADER.unpack(header)
    if length > MAX_MESSAGE_BYTES:
        raise ProtocolError(f"message length {length} exceeds limit")
    if length == 0:
        # A message is always one JSON object; an empty frame is a
        # framing bug (or a probe), named explicitly rather than
        # surfacing as a confusing JSON decode error downstream.
        raise ProtocolError("zero-length frame")
    return length


# ----------------------------------------------------------------------
# Blocking (client) side
# ----------------------------------------------------------------------
def _recv_exactly(sock: socket.socket, n: int) -> bytes | None:
    """Read exactly ``n`` bytes; ``None`` on clean EOF at a message
    boundary (0 bytes read), :class:`ProtocolError` on a torn read."""
    chunks: list[bytes] = []
    got = 0
    while got < n:
        chunk = sock.recv(min(65536, n - got))
        if not chunk:
            if got == 0:
                return None
            raise ProtocolError(f"connection closed mid-message ({got}/{n})")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def send_message(sock: socket.socket, obj: dict) -> None:
    sock.sendall(encode_message(obj))


def recv_message(sock: socket.socket) -> dict | None:
    """The next message, or ``None`` on clean EOF."""
    header = _recv_exactly(sock, _HEADER.size)
    if header is None:
        return None
    payload = _recv_exactly(sock, _decode_length(header))
    if payload is None:
        raise ProtocolError("connection closed between header and payload")
    return decode_payload(payload)


# ----------------------------------------------------------------------
# Asyncio (server) side
# ----------------------------------------------------------------------
async def read_message(reader: asyncio.StreamReader) -> dict | None:
    """The next message from a stream, or ``None`` on clean EOF."""
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed mid-header") from exc
    try:
        payload = await reader.readexactly(_decode_length(header))
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed mid-message") from exc
    return decode_payload(payload)


async def write_message(writer: asyncio.StreamWriter, obj: dict) -> None:
    writer.write(encode_message(obj))
    await writer.drain()


__all__ = [
    "MAX_MESSAGE_BYTES",
    "PROTOCOL_VERSION",
    "REQUIRED_FIELDS",
    "ProtocolError",
    "decode_payload",
    "encode_message",
    "read_message",
    "recv_message",
    "send_message",
    "write_message",
]
