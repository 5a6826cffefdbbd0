"""The asyncio gateway: a TCP front door over one ``QueryService``.

One :class:`GatewayServer` hosts one event loop on a daemon thread and
serves length-prefixed JSON frames (:mod:`repro.gateway.protocol`) to any
number of connections.  Requests are dicts with an ``op`` and a
client-chosen correlation ``id``; every request gets exactly one
``{"kind": "reply", "id": ...}`` frame, and subscribed tickets
additionally stream ``{"kind": "result", "ticket": ...}`` frames as the
housekeeping task pumps the service.

Backpressure is explicit and priority-aware, reusing the service's
:class:`~repro.service.overload.OverloadConfig`:

* each connection owns a **bounded send queue**
  (``gateway_sendq_maxsize``).  Replies are *never* dropped — the reader
  awaits queue space, so a peer that stops reading stops being read from
  (TCP backpressure all the way up).  Streamed result items *are*
  droppable: past the bound they are counted in
  ``gateway.send_drops_total`` and discarded, exactly like the service's
  own subscriber-queue policy;
* a BEST_EFFORT submission arriving on a connection whose send queue has
  already reached ``gateway_shed_sendq_depth`` is shed at the gateway
  (status ``shed``, reason ``gateway-sendq-backpressure``) without
  touching the service — a peer too slow to read the results it already
  has shouldn't be admitted for more.  RELIABLE submissions are never
  gateway-shed.

With a :class:`~repro.service.replication.PrimaryReplicator` attached in
``sync`` mode, submit replies are **semi-synchronous**: the reply frame
is withheld until the standby acknowledges the epoch containing the
submission's WAL record, so any admission a client saw acknowledged
survives losing the primary's machine.  The wait is per-request and
non-blocking for the loop — the replicator's ack listener resolves
futures via ``call_soon_threadsafe``.

asyncio, and the ``ssl`` module it pulls in, load when
:meth:`GatewayServer.start` runs, not when this module is imported: a
process that never serves never carries the event loop.

Metric families (``gateway.*``) are documented in
``docs/observability.md``.
"""

from __future__ import annotations

import contextlib
import queue as thread_queue
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..core.basestation.result_mapper import MappedAggregates, MappedRow
from ..core.qos import QoSClass
from ..obs import get_registry
from .protocol import ProtocolError, read_frame, write_frame

if TYPE_CHECKING:  # repro.service imports this package's protocol module
    import asyncio

    from ..service import SubscriberQueue


def _item_to_wire(item) -> dict:
    """JSON-safe encoding of one pumped result item."""
    if isinstance(item, MappedRow):
        return {"type": "row", "epoch_time": item.epoch_time,
                "origin": item.origin, "values": dict(item.values)}
    if isinstance(item, MappedAggregates):
        return {"type": "aggregates", "epoch_time": item.epoch_time,
                "group_key": list(item.group_key),
                "values": {f"{agg.op.value}({agg.attribute})": value
                           for agg, value in item.values.items()}}
    return {"type": "opaque", "repr": repr(item)}


@dataclass
class _Connection:
    """Per-connection state owned by the event loop."""

    sendq: "asyncio.Queue[Optional[dict]]"
    #: ticket_id -> the service-side subscriber queue feeding this peer.
    subscriptions: Dict[int, SubscriberQueue] = field(
        default_factory=dict)
    closed: bool = False


class GatewayServer:
    """Thread-hosted asyncio TCP server over one query service.

    The caller owns the service (and the optional replicator): the
    gateway serves it but does not shut it down.  ``port=0`` binds an
    ephemeral port; read :attr:`address` after :meth:`start`.
    """

    def __init__(self, service, host: str = "127.0.0.1", port: int = 0, *,
                 replicator=None, sync_replication: Optional[bool] = None,
                 sync_timeout_s: float = 10.0,
                 housekeeping_interval_s: float = 0.05) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.replicator = replicator
        if sync_replication is None:
            sync_replication = (replicator is not None
                                and replicator.config.sync)
        if sync_replication and replicator is None:
            raise ValueError("sync_replication requires a replicator")
        self.sync_replication = sync_replication
        self.sync_timeout_s = sync_timeout_s
        self.housekeeping_interval_s = housekeeping_interval_s
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._stop_requested: Optional[asyncio.Event] = None
        self._address: Optional[Tuple[str, int]] = None
        self._startup_error: Optional[BaseException] = None
        self._connections: List[_Connection] = []
        #: (replication seq, future) pairs awaiting a standby ack.
        self._ack_waiters: List[Tuple[int, "asyncio.Future"]] = []
        registry = get_registry()
        self._m_connections = registry.counter(
            "gateway.connections_total",
            help="TCP connections accepted by the gateway")
        self._m_requests = registry.counter(
            "gateway.requests_total",
            help="request frames handled (all ops, ok or not)")
        self._m_errors = registry.counter(
            "gateway.errors_total",
            help="requests answered with ok=false")
        self._m_sheds = registry.counter(
            "gateway.sheds_total",
            help="BEST_EFFORT submissions shed at the gateway because the "
                 "connection's send queue was too deep")
        self._m_streamed = registry.counter(
            "gateway.results_streamed_total",
            help="result frames enqueued to connections")
        self._m_drops = registry.counter(
            "gateway.send_drops_total",
            help="result frames dropped because a connection's bounded "
                 "send queue was full")
        self._m_repl_waits = registry.counter(
            "gateway.replication_waits_total",
            help="submit replies withheld for a standby acknowledgement")
        self._m_repl_timeouts = registry.counter(
            "gateway.replication_timeouts_total",
            help="submit replies that timed out waiting for the standby")
        registry.gauge(
            "gateway.connections_open",
            help="currently connected peers"
        ).set_fn(lambda: float(len(self._connections)))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, timeout_s: float = 10.0) -> "GatewayServer":
        """Start the event-loop thread; returns once the socket listens."""
        if self._thread is not None:
            raise RuntimeError("gateway already started")
        # Imported on the caller's thread, before the loop thread exists,
        # so set-up pays for it and no import lock is handed across.
        import asyncio

        def serve() -> None:
            try:
                asyncio.run(self._main())
            except BaseException as exc:  # startup failures included
                self._startup_error = exc
            finally:
                self._ready.set()

        self._thread = threading.Thread(
            target=serve, name="repro-gateway", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout_s):
            raise RuntimeError("gateway failed to start in time")
        if self._startup_error is not None:
            raise RuntimeError("gateway failed to start") \
                from self._startup_error
        return self

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port); valid after :meth:`start`."""
        if self._address is None:
            raise RuntimeError("gateway not started")
        return self._address

    def stop(self, timeout_s: float = 10.0) -> None:
        """Stop serving: close every connection and join the thread."""
        loop, thread = self._loop, self._thread
        if loop is None or thread is None:
            return
        with contextlib.suppress(RuntimeError):
            loop.call_soon_threadsafe(
                lambda: self._stop_requested.set()
                if self._stop_requested is not None else None)
        thread.join(timeout_s)

    async def _main(self) -> None:
        import asyncio

        self._loop = asyncio.get_running_loop()
        self._stop_requested = asyncio.Event()
        server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self._address = server.sockets[0].getsockname()[:2]
        if self.replicator is not None:
            loop = self._loop
            self.replicator.add_ack_listener(
                lambda seq: loop.call_soon_threadsafe(self._on_ack, seq))
        housekeeper = asyncio.ensure_future(self._housekeeping())
        self._ready.set()
        try:
            await self._stop_requested.wait()
        finally:
            housekeeper.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await housekeeper
            server.close()
            await server.wait_closed()
            for conn in list(self._connections):
                conn.closed = True
                with contextlib.suppress(asyncio.QueueFull):
                    conn.sendq.put_nowait(None)
            self._on_ack(None)  # fail any still-waiting submits

    # ------------------------------------------------------------------
    # Replication acks
    # ------------------------------------------------------------------
    def _on_ack(self, acked_seq: Optional[int]) -> None:
        """Resolve submit futures whose seq the standby now holds.

        Runs on the event loop.  ``None`` means the gateway is going
        down: resolve everything as not-replicated.
        """
        remaining: List[Tuple[int, "asyncio.Future"]] = []
        for seq, future in self._ack_waiters:
            if future.done():
                continue
            if acked_seq is None:
                future.set_result(False)
            elif acked_seq >= seq:
                future.set_result(True)
            else:
                remaining.append((seq, future))
        self._ack_waiters = remaining

    async def _await_replicated(self, seq: int) -> bool:
        """True once the standby acked ``seq``; False on timeout."""
        import asyncio

        if self.replicator.acked_seq >= seq:
            return True
        future = self._loop.create_future()
        self._ack_waiters.append((seq, future))
        self._m_repl_waits.inc()
        try:
            return await asyncio.wait_for(
                asyncio.shield(future), self.sync_timeout_s)
        except asyncio.TimeoutError:
            self._m_repl_timeouts.inc()
            return False

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        import asyncio

        maxsize = self.service.overload_config.gateway_sendq_maxsize
        conn = _Connection(sendq=asyncio.Queue(maxsize=maxsize))
        self._connections.append(conn)
        self._m_connections.inc()
        sender = asyncio.ensure_future(self._drain_sendq(conn, writer))
        try:
            while not conn.closed:
                try:
                    request = await read_frame(reader)
                except ProtocolError:
                    break
                if request is None:
                    break
                reply = await self._dispatch(conn, request)
                # Replies ride the same bounded queue but with an awaited
                # put: a peer that stops reading stalls its own reader.
                await conn.sendq.put(reply)
        finally:
            conn.closed = True
            self._connections.remove(conn)
            try:
                # Graceful: let the sender flush queued frames, then stop
                # on the None sentinel.  If it already died (peer reset)
                # the queue may never drain — cancel instead of hanging.
                await asyncio.wait_for(conn.sendq.put(None), timeout=5.0)
            except asyncio.TimeoutError:
                sender.cancel()
            with contextlib.suppress(Exception, asyncio.CancelledError):
                await sender
            writer.close()
            # CancelledError included: at loop teardown asyncio.run cancels
            # in-flight handlers mid-await; ending quietly is the goal.
            with contextlib.suppress(Exception, asyncio.CancelledError):
                await writer.wait_closed()

    async def _drain_sendq(self, conn: _Connection, writer) -> None:
        while True:
            frame = await conn.sendq.get()
            if frame is None:
                return
            try:
                await write_frame(writer, frame)
            except (ConnectionError, OSError):
                conn.closed = True
                return

    # ------------------------------------------------------------------
    # Request dispatch
    # ------------------------------------------------------------------
    async def _dispatch(self, conn: _Connection, request: dict) -> dict:
        self._m_requests.inc()
        reply = {"kind": "reply", "id": request.get("id"), "ok": True}
        try:
            op = request.get("op")
            if op == "ping":
                reply["pong"] = True
            elif op == "open":
                reply["session"] = self.service.open_session(
                    request.get("client", "anonymous"),
                    ttl_ms=request.get("ttl_ms"))
            elif op == "close_session":
                self.service.close_session(request["session"])
            elif op == "submit":
                await self._op_submit(conn, request, reply)
            elif op == "explain":
                report = self.service.explain(
                    request["query"],
                    session_id=request.get("session"),
                    qos=QoSClass(request.get("qos",
                                             QoSClass.BEST_EFFORT.value)))
                reply["explain"] = report.to_dict()
            elif op == "terminate":
                self.service.terminate(request["session"],
                                       int(request["ticket"]))
            elif op == "subscribe":
                ticket_id = int(request["ticket"])
                conn.subscriptions[ticket_id] = self.service.subscribe(
                    request["session"], ticket_id)
            elif op == "stats":
                stats = self.service.stats()
                reply["stats"] = {name: getattr(stats, name)
                                  for name in stats.__dataclass_fields__}
            else:
                raise ValueError(f"unknown op {op!r}")
        except Exception as exc:
            self._m_errors.inc()
            reply["ok"] = False
            reply["error"] = f"{type(exc).__name__}: {exc}"
        return reply

    async def _op_submit(self, conn: _Connection, request: dict,
                         reply: dict) -> None:
        qos = QoSClass(request.get("qos", QoSClass.BEST_EFFORT.value))
        if qos is QoSClass.BEST_EFFORT:
            overload = self.service.overload_config
            depth_limit = overload.gateway_shed_sendq_depth
            if depth_limit is None:
                depth_limit = overload.gateway_sendq_maxsize
            if conn.sendq.qsize() >= depth_limit:
                self._m_sheds.inc()
                reply.update(ticket=None, status="shed",
                             error="gateway-sendq-backpressure")
                return
        ticket = self.service.submit(request["session"], request["query"],
                                     qos=qos)
        seq = (self.replicator.last_seq
               if self.replicator is not None else None)
        reply.update(ticket=ticket.ticket_id, status=ticket.status.value,
                     cache_hit=ticket.cache_hit, error=ticket.error)
        if (self.sync_replication and seq is not None
                and ticket.status.value != "shed"):
            # Withhold the acknowledgement until the WAL record for this
            # submission (<= seq, the replication high-water mark taken
            # right after submit on the single-submitter loop) is on the
            # standby.  A client that saw ok=true can survive the primary.
            if not await self._await_replicated(seq):
                reply["ok"] = False
                reply["error"] = "replication-timeout: standby did not " \
                                 "acknowledge the submission"
            else:
                reply["replicated"] = True

    # ------------------------------------------------------------------
    # Housekeeping: tick, pump, stream
    # ------------------------------------------------------------------
    async def _housekeeping(self) -> None:
        import asyncio

        while True:
            await asyncio.sleep(self.housekeeping_interval_s)
            with contextlib.suppress(Exception):
                self.service.tick()
            with contextlib.suppress(Exception):
                self.service.pump()
            self._stream_results()

    def _stream_results(self) -> None:
        """Move pumped items from subscriber queues onto send queues."""
        import asyncio

        for conn in list(self._connections):
            if conn.closed:
                continue
            for ticket_id, subscriber in list(conn.subscriptions.items()):
                while True:
                    try:
                        item = subscriber.get_nowait()
                    except thread_queue.Empty:
                        break
                    frame = {"kind": "result", "ticket": ticket_id,
                             "item": _item_to_wire(item)}
                    try:
                        conn.sendq.put_nowait(frame)
                        self._m_streamed.inc()
                    except asyncio.QueueFull:
                        # Result items are droppable (unlike replies):
                        # a full queue means the peer is not reading.
                        self._m_drops.inc()
