"""A small blocking client for the gateway protocol.

Used by tests and ``benchmarks/test_ext_gateway.py``; application code
embedding the service in-process should keep calling
:class:`~repro.service.QueryService` directly.

One :class:`GatewayClient` wraps one TCP connection.  Requests carry a
monotonically increasing correlation ``id``; :meth:`_call` reads frames
until the matching reply arrives, buffering any ``result`` frames that
interleave (the server streams subscribed results on the same socket).
Buffered results are retrieved with :meth:`drain_results` /
:meth:`wait_results`.

``socket`` and ``select`` are imported by the methods that use them, so
importing the package (which ``repro.service`` does, for the frame
codec) loads neither.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, TYPE_CHECKING

from .protocol import ProtocolError, recv_frame, send_frame

if TYPE_CHECKING:  # pragma: no cover
    import socket


class GatewayError(RuntimeError):
    """The server answered ``ok=false``; the message is its ``error``."""


class GatewayTimeout(GatewayError):
    """A request exceeded ``op_deadline_s`` waiting for its reply."""


class GatewayClient:
    """Blocking, single-connection gateway client (context manager).

    Resilience knobs (all optional, defaults preserve the strict
    one-connection behaviour):

    * ``connect_timeout_s`` bounds the TCP connect (falls back to
      ``timeout_s``);
    * ``op_deadline_s`` bounds each request/reply round-trip, raising
      :class:`GatewayTimeout` instead of hanging on a stalled server;
    * ``max_reconnects`` > 0 lets the client survive a dead connection
      (e.g. a gateway failing over to its warm standby): the op that
      observed the death still raises, but the *next* op transparently
      reconnects with exponential backoff (``reconnect_backoff_s``
      doubling per attempt).  Sessions live server-side, so a reconnect
      resumes where the tenant left off.
    """

    def __init__(self, host: str, port: int,
                 timeout_s: Optional[float] = 30.0, *,
                 connect_timeout_s: Optional[float] = None,
                 op_deadline_s: Optional[float] = None,
                 max_reconnects: int = 0,
                 reconnect_backoff_s: float = 0.2) -> None:
        self._host = host
        self._port = port
        self._timeout_s = timeout_s
        self._connect_timeout_s = (connect_timeout_s
                                   if connect_timeout_s is not None
                                   else timeout_s)
        self._op_deadline_s = op_deadline_s
        self._max_reconnects = max_reconnects
        self._reconnect_backoff_s = reconnect_backoff_s
        #: Reconnections performed over this client's lifetime.
        self.reconnects_total = 0
        self._dead = False
        self._sock = self._connect()
        self._next_id = 0
        #: ticket_id -> result items that arrived between replies.
        self._results: Dict[int, List[dict]] = {}

    def _connect(self) -> socket.socket:
        import socket

        sock = socket.create_connection(
            (self._host, self._port), timeout=self._connect_timeout_s)
        sock.settimeout(self._timeout_s)
        return sock

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        import socket

        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()

    # ------------------------------------------------------------------
    # Request/reply plumbing
    # ------------------------------------------------------------------
    def _reconnect(self) -> None:
        """Bounded exponential-backoff reconnect; raises on exhaustion."""
        last_error: Optional[Exception] = None
        backoff = self._reconnect_backoff_s
        for _ in range(self._max_reconnects):
            try:
                self._sock.close()
            except OSError:
                pass
            try:
                self._sock = self._connect()
                self._dead = False
                self.reconnects_total += 1
                return
            except OSError as exc:
                last_error = exc
                time.sleep(backoff)
                backoff *= 2
        self._dead = True
        raise GatewayError(
            f"gateway {self._host}:{self._port} unreachable after "
            f"{self._max_reconnects} reconnect attempts") from last_error

    def _call(self, op: str, **fields) -> dict:
        import select

        if self._dead and self._max_reconnects > 0:
            self._reconnect()
        self._next_id += 1
        request = {"op": op, "id": self._next_id}
        request.update(fields)
        deadline = (time.monotonic() + self._op_deadline_s
                    if self._op_deadline_s is not None else None)
        try:
            send_frame(self._sock, request)
            while True:
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not select.select(
                            [self._sock], [], [], remaining)[0]:
                        raise GatewayTimeout(
                            f"no reply to {op!r} within "
                            f"{self._op_deadline_s}s")
                frame = recv_frame(self._sock)
                if frame is None:
                    raise ProtocolError(
                        f"connection closed awaiting reply to {op!r}")
                if frame.get("kind") == "result":
                    self._buffer_result(frame)
                    continue
                if frame.get("id") != self._next_id:
                    continue  # stale reply (should not happen on one socket)
                if not frame.get("ok", False):
                    raise GatewayError(frame.get("error", "request failed"))
                return frame
        except (ProtocolError, OSError):
            # The connection died mid-op.  This op was possibly applied
            # server-side, so it must fail loudly — but mark the socket
            # dead so the *next* op can reconnect (if allowed).
            self._dead = True
            raise

    def _buffer_result(self, frame: dict) -> None:
        self._results.setdefault(int(frame["ticket"]), []).append(
            frame["item"])

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def ping(self) -> bool:
        return bool(self._call("ping").get("pong"))

    def open(self, client: str = "anonymous",
             ttl_ms: Optional[float] = None) -> str:
        return self._call("open", client=client, ttl_ms=ttl_ms)["session"]

    def submit(self, session: str, query: str,
               qos: str = "best-effort") -> dict:
        """Submit a query; returns the reply (``ticket``, ``status``...).

        A gateway- or service-shed submission still returns ``ok`` with
        ``status == "shed"`` — shedding is an answer, not an error.
        """
        return self._call("submit", session=session, query=query, qos=qos)

    def explain(self, query: str, session: Optional[str] = None,
                qos: str = "best-effort") -> dict:
        return self._call("explain", query=query, session=session,
                          qos=qos)["explain"]

    def terminate(self, session: str, ticket: int) -> None:
        self._call("terminate", session=session, ticket=ticket)

    def subscribe(self, session: str, ticket: int) -> None:
        self._call("subscribe", session=session, ticket=ticket)

    def close_session(self, session: str) -> None:
        self._call("close_session", session=session)

    def stats(self) -> dict:
        return self._call("stats")["stats"]

    # ------------------------------------------------------------------
    # Streamed results
    # ------------------------------------------------------------------
    def drain_results(self, ticket: int) -> List[dict]:
        """Buffered result items for ``ticket`` (without blocking)."""
        self._poll()
        return self._results.pop(ticket, [])

    def wait_results(self, ticket: int, n: int = 1,
                     timeout_s: float = 30.0) -> List[dict]:
        """Block until ``ticket`` has at least ``n`` buffered items."""
        import select

        deadline = time.monotonic() + timeout_s
        collected = self._results.setdefault(ticket, [])
        while len(collected) < n:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select(
                    [self._sock], [], [], max(remaining, 0))[0]:
                raise TimeoutError(
                    f"ticket {ticket}: {len(collected)}/{n} results "
                    f"after {timeout_s}s")
            frame = recv_frame(self._sock)
            if frame is None:
                raise ProtocolError(
                    "connection closed while awaiting results")
            if frame.get("kind") == "result":
                self._buffer_result(frame)
        return self._results.pop(ticket)

    def _poll(self) -> None:
        """Drain frames already queued on the socket without waiting.

        Readability is checked with ``select`` before each *blocking*
        ``recv_frame`` — frames are always consumed whole, never left
        half-read (the server writes each frame in one piece, so a
        readable header means the rest follows promptly).
        """
        import select

        while select.select([self._sock], [], [], 0)[0]:
            frame = recv_frame(self._sock)
            if frame is None:
                return
            if frame.get("kind") == "result":
                self._buffer_result(frame)
