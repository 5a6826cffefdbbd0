"""Length-prefixed JSON framing shared by the gateway and replication.

One frame on the wire is ``<4-byte big-endian length><UTF-8 JSON>``.
Length prefixes (rather than newline delimiting) keep the framing
payload-agnostic: queries may contain any text, snapshot documents run to
megabytes, and a reader always knows exactly how many bytes to wait for.
JSON is encoded canonically (sorted keys, compact separators) so a frame
for a given object is byte-stable across processes — the replication
tests compare shipped bytes directly.

Both transports speak it:

* the **gateway** (``repro.gateway.server``) reads frames with the
  asyncio helpers (:func:`read_frame` / :func:`write_frame`);
* **replication** (``repro.service.replication``) and the blocking
  :class:`~repro.gateway.client.GatewayClient` use the socket helpers
  (:func:`send_frame` / :func:`recv_frame`).

A frame longer than :data:`MAX_FRAME_BYTES` is a protocol error on both
ends: nothing legitimate is that large, and the cap keeps a corrupt or
hostile length prefix from allocating unbounded memory.
"""

from __future__ import annotations

import json
import struct
from typing import Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - annotations only; callers own sockets
    import socket

#: Hard upper bound on one frame's JSON payload (snapshots included).
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LEN = struct.Struct(">I")


class ProtocolError(RuntimeError):
    """A malformed frame: bad length prefix, truncation, or bad JSON."""


def encode_frame(message: dict) -> bytes:
    """Serialize one message to its wire bytes (length prefix included)."""
    payload = json.dumps(message, sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte cap")
    return _LEN.pack(len(payload)) + payload


def decode_payload(payload: bytes) -> dict:
    """Parse one frame's JSON payload; dict-typed or it's a protocol error."""
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"undecodable frame payload: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame payload must be a JSON object "
            f"(got {type(message).__name__})")
    return message


def _check_length(length: int) -> None:
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame length prefix {length} exceeds the "
            f"{MAX_FRAME_BYTES}-byte cap")


# ----------------------------------------------------------------------
# Blocking sockets (replication shipper/standby, GatewayClient)
# ----------------------------------------------------------------------
def send_frame(sock: socket.socket, message: dict) -> None:
    """Send one frame on a blocking socket."""
    sock.sendall(encode_frame(message))


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    """Read exactly ``n`` bytes; ``None`` on clean EOF at a boundary."""
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if remaining == n:
                return None
            raise ProtocolError(
                f"connection closed mid-frame ({n - remaining}/{n} bytes)")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Optional[dict]:
    """Read one frame from a blocking socket; ``None`` on clean EOF."""
    header = _recv_exact(sock, _LEN.size)
    if header is None:
        return None
    (length,) = _LEN.unpack(header)
    _check_length(length)
    payload = _recv_exact(sock, length)
    if payload is None:
        raise ProtocolError("connection closed between header and payload")
    return decode_payload(payload)


# ----------------------------------------------------------------------
# asyncio streams (the gateway server)
# ----------------------------------------------------------------------
async def read_frame(reader) -> Optional[dict]:
    """Read one frame from an ``asyncio.StreamReader``; ``None`` on EOF."""
    import asyncio

    try:
        header = await reader.readexactly(_LEN.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError(
            f"connection closed mid-header ({len(exc.partial)}/"
            f"{_LEN.size} bytes)") from exc
    (length,) = _LEN.unpack(header)
    _check_length(length)
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError(
            f"connection closed mid-frame ({len(exc.partial)}/{length} "
            f"bytes)") from exc
    return decode_payload(payload)


async def write_frame(writer, message: dict) -> None:
    """Write one frame to an ``asyncio.StreamWriter`` and drain it."""
    writer.write(encode_frame(message))
    await writer.drain()
