"""Warm-standby WAL replication for the durable query service.

PR 5 made the base station durable — but durable on *one disk*.  Tiered
sensor deployments explicitly assume master-tier nodes can fail or
misbehave, so the tier boundary needs replicated state, not one node's
filesystem.  This module streams the primary's durability artifacts —
every WAL record and every snapshot rotation, in commit order — to a
**warm standby** over TCP, so losing the primary's machine loses nothing
the standby acknowledged.

The shape is the epoch-batched replication loop of ``tide.py``
(SNIPPETS.md): appends accumulate in an in-memory queue, a shipper
thread drains one *epoch* of them at a time into a single framed batch,
and the follower acknowledges whole epochs — amortizing round trips
without giving up ordering.  The wire format is the gateway's
length-prefixed JSON (:mod:`repro.gateway.protocol`), so one protocol
serves clients and replicas alike.

Roles
-----
:class:`PrimaryReplicator`
    Attached to a live :class:`~repro.service.QueryService` via
    :meth:`~repro.service.QueryService.attach_replicator`.  Attach ships
    a fresh snapshot first, making the stream self-contained; after
    that, ``on_wal_append``/``on_snapshot`` run under the service lock
    and only enqueue (never block on the network).  ``sync=True`` turns
    on **semi-synchronous** mode for callers that need zero acknowledged
    loss: :meth:`wait_acked` (or an ack listener) lets the gateway delay
    its reply to a client until the submission's WAL record is on the
    standby.

:class:`StandbyServer`
    A warm follower: accepts one primary at a time, applies WAL frames
    into its *own* durability directory through a
    :class:`~repro.service.durability.Journal` (stamped records written
    unchanged, snapshots through the same save-then-rotate checkpoint,
    honoring ``fsync``), and acks each epoch with the highest applied
    sequence number.  On reconnect it reports that sequence so the primary
    resends only the unacknowledged suffix — applying is idempotent at
    the frame level because sequence numbers are checked before write.

:meth:`StandbyServer.promote`
    Stops following and rebuilds a live service from the standby
    directory through the existing
    :meth:`~repro.service.QueryService.recover` machinery — snapshot
    restore, WAL replay under the recorded qids, network reconciliation.  The
    promoted service is the new primary; a fresh replicator can be
    attached to it to re-establish redundancy.

Metric families (``replication.*``) are documented in
``docs/observability.md``.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Deque, List, Optional, Tuple, TYPE_CHECKING

from ..gateway.protocol import ProtocolError, recv_frame, send_frame
from ..obs import get_registry
from .durability import FORMAT_VERSION, DurabilityConfig, Journal

if TYPE_CHECKING:  # pragma: no cover
    import socket


@dataclass(frozen=True)
class ReplicationConfig:
    """How eagerly the primary ships its WAL to the standby.

    ``epoch_ms`` is the batching quantum: the shipper sleeps at most this
    long before draining everything queued into one framed batch (a full
    queue flushes sooner).  ``sync`` does not change shipping at all — it
    marks the *intent* that callers gate their acknowledgements on
    :meth:`PrimaryReplicator.wait_acked`, and the gateway reads it to
    decide whether submit replies wait for the standby.
    """

    host: str = "127.0.0.1"
    port: int = 0
    epoch_ms: float = 20.0
    max_batch_records: int = 512
    sync: bool = False
    connect_timeout_s: float = 5.0
    retry_backoff_s: float = 0.2

    def __post_init__(self) -> None:
        if self.epoch_ms <= 0:
            raise ValueError(f"epoch_ms must be > 0 (got {self.epoch_ms})")
        if self.max_batch_records < 1:
            raise ValueError(
                f"max_batch_records must be >= 1 "
                f"(got {self.max_batch_records})")


#: One queued replication item: ("wal", record) or ("snap", state).
_Item = Tuple[int, str, dict]


def _join(thread: threading.Thread, timeout_s: float) -> None:
    """Join ``thread``; one that is still running has leaked, so say so."""
    thread.join(timeout=timeout_s)
    if thread.is_alive():
        raise RuntimeError(
            f"thread {thread.name!r} still running {timeout_s} s after "
            f"it was told to stop")


class PrimaryReplicator:
    """Ships the primary's WAL records and snapshots to one standby.

    Hook methods (:meth:`on_wal_append`, :meth:`on_snapshot`) are called
    by the service under its lock and only append to an in-memory queue;
    a daemon shipper thread drains the queue in epoch batches over a
    blocking socket.  Items stay queued until the standby acknowledges
    their sequence number, so a dropped connection resends the suffix.
    """

    def __init__(self, config: ReplicationConfig) -> None:
        self.config = config
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._queue: Deque[_Item] = deque()
        self._seq = 0            # last sequence number assigned
        self._acked = 0          # last sequence number the standby has
        self._epoch = 0          # batches shipped (the tide-style epoch id)
        self._stopping = False
        self._ack_listeners: List[Callable[[int], None]] = []
        registry = get_registry()
        self._m_records = registry.counter(
            "replication.records_shipped_total",
            help="WAL records shipped to the standby")
        self._m_snapshots = registry.counter(
            "replication.snapshots_shipped_total",
            help="snapshot rotations shipped to the standby")
        self._m_batches = registry.counter(
            "replication.batches_shipped_total",
            help="epoch batches shipped to the standby")
        self._m_acks = registry.counter(
            "replication.acks_total",
            help="epoch acknowledgements received from the standby")
        self._m_reconnects = registry.counter(
            "replication.reconnects_total",
            help="standby connections (re-)established")
        registry.gauge(
            "replication.lag_records",
            help="sequence distance between the primary's last queued "
                 "record and the standby's last acknowledged one"
        ).set_fn(lambda: float(self._seq - self._acked))
        self._thread = threading.Thread(
            target=self._run, name="repro-replicator", daemon=True)
        self._thread.start()

    # -- service-side hooks (called under the service lock) -------------
    def on_wal_append(self, record: dict) -> int:
        """Queue one WAL record; returns its replication sequence number."""
        return self._enqueue("wal", record)

    def on_snapshot(self, state: dict) -> int:
        """Queue one snapshot rotation (the follower rotates its WAL too)."""
        return self._enqueue("snap", state)

    def _enqueue(self, kind: str, payload: dict) -> int:
        with self._cond:
            if self._stopping:
                return self._seq
            self._seq += 1
            self._queue.append((self._seq, kind, payload))
            self._cond.notify_all()
            return self._seq

    # -- acknowledgement surface ----------------------------------------
    @property
    def last_seq(self) -> int:
        """Sequence number of the most recently queued item."""
        with self._lock:
            return self._seq

    @property
    def acked_seq(self) -> int:
        """Highest sequence number the standby has acknowledged."""
        with self._lock:
            return self._acked

    def wait_acked(self, seq: int, timeout: Optional[float] = None) -> bool:
        """Block until the standby has acknowledged ``seq`` (or timeout)."""
        with self._cond:
            return self._cond.wait_for(
                lambda: self._acked >= seq or self._stopping, timeout
            ) and self._acked >= seq

    def add_ack_listener(self, listener: Callable[[int], None]) -> None:
        """Call ``listener(acked_seq)`` from the shipper thread per ack.

        The gateway registers a ``loop.call_soon_threadsafe`` trampoline
        here to resolve in-flight submit futures without blocking an
        executor thread per request.
        """
        with self._lock:
            self._ack_listeners.append(listener)

    def stop(self, flush_timeout_s: float = 5.0) -> None:
        """Flush what the standby will take, then stop the shipper."""
        with self._cond:
            target = self._seq
            self._cond.wait_for(
                lambda: self._acked >= target or self._stopping,
                flush_timeout_s)
            self._stopping = True
            self._cond.notify_all()
        _join(self._thread, flush_timeout_s)

    def kill(self) -> None:
        """Die without flushing (crash-test hook: the primary's node is gone)."""
        with self._cond:
            self._stopping = True
            self._queue.clear()
            self._cond.notify_all()
        _join(self._thread, 5.0)

    # -- shipper thread --------------------------------------------------
    def _connect(self) -> Optional[socket.socket]:
        import socket

        sock = socket.create_connection(
            (self.config.host, self.config.port),
            timeout=self.config.connect_timeout_s)
        sock.settimeout(self.config.connect_timeout_s)
        send_frame(sock, {"kind": "hello", "format": FORMAT_VERSION})
        welcome = recv_frame(sock)
        if welcome is None or welcome.get("kind") != "welcome":
            sock.close()
            raise ProtocolError(f"bad standby handshake: {welcome!r}")
        applied = int(welcome.get("applied_seq", 0))
        with self._cond:
            # The follower already holds everything up to applied_seq
            # (a reconnect after a mid-batch drop); never resend it.
            while self._queue and self._queue[0][0] <= applied:
                self._queue.popleft()
            if applied > self._acked:
                self._acked = applied
                self._cond.notify_all()
        self._m_reconnects.inc()
        return sock

    def _next_batch(self) -> List[_Item]:
        """Wait for work (one epoch at most), then take one batch."""
        with self._cond:
            if not self._queue and not self._stopping:
                self._cond.wait(self.config.epoch_ms / 1000.0)
            batch: List[_Item] = []
            for item in self._queue:
                if len(batch) >= self.config.max_batch_records:
                    break
                batch.append(item)
            return batch

    def _run(self) -> None:
        sock: Optional[socket.socket] = None
        while True:
            with self._lock:
                if self._stopping and not self._queue:
                    break
            batch = self._next_batch()
            if not batch:
                continue
            try:
                if sock is None:
                    sock = self._connect()
                self._epoch += 1
                send_frame(sock, {
                    "kind": "batch",
                    "epoch": self._epoch,
                    "items": [{"seq": seq, "t": kind, "p": payload}
                              for seq, kind, payload in batch],
                })
                ack = recv_frame(sock)
                if ack is None or ack.get("kind") != "ack":
                    raise ProtocolError(f"bad ack frame: {ack!r}")
                acked = int(ack["seq"])
            except (OSError, ProtocolError):
                if sock is not None:
                    sock.close()
                    sock = None
                with self._lock:
                    if self._stopping:
                        break
                threading.Event().wait(self.config.retry_backoff_s)
                continue
            self._m_batches.inc()
            self._m_acks.inc()
            self._m_records.inc(
                sum(1 for _, kind, _p in batch if kind == "wal"))
            self._m_snapshots.inc(
                sum(1 for _, kind, _p in batch if kind == "snap"))
            listeners: List[Callable[[int], None]] = []
            with self._cond:
                while self._queue and self._queue[0][0] <= acked:
                    self._queue.popleft()
                if acked > self._acked:
                    self._acked = acked
                    listeners = list(self._ack_listeners)
                self._cond.notify_all()
            for listener in listeners:
                listener(acked)
        if sock is not None:
            sock.close()


class StandbyServer:
    """A warm follower applying the primary's stream into its own dir.

    ``state_dir`` ends up holding exactly what a local
    :class:`~repro.service.durability.DurabilityConfig` directory would:
    ``snapshot.json`` plus ``wal.jsonl``, rotated whenever the primary
    rotates.  :meth:`promote` turns that directory into a live service.
    """

    def __init__(self, state_dir, host: str = "127.0.0.1", port: int = 0,
                 fsync: bool = False) -> None:
        self.state_dir = Path(state_dir)
        self.fsync = fsync
        self._applied = 0
        self._lock = threading.Lock()
        self._closing = False
        self._journal = Journal(
            DurabilityConfig(str(self.state_dir), fsync=fsync))
        self._conn: Optional[socket.socket] = None
        registry = get_registry()
        self._m_applied = registry.counter(
            "replication.records_applied_total",
            help="WAL records applied by the standby")
        self._m_snap_applied = registry.counter(
            "replication.snapshots_applied_total",
            help="snapshot rotations applied by the standby")
        self._m_promotions = registry.counter(
            "replication.promotions_total",
            help="standby directories promoted to live services")
        registry.gauge(
            "replication.applied_seq",
            help="highest replication sequence number applied"
        ).set_fn(lambda: float(self._applied))
        import socket

        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(1)
        self._address: Tuple[str, int] = \
            self._listener.getsockname()[:2]
        self._thread = threading.Thread(
            target=self._serve, name="repro-standby", daemon=True)
        self._thread.start()

    @property
    def address(self) -> Tuple[str, int]:
        """The (host, port) the primary should replicate to."""
        return self._address

    @property
    def applied_seq(self) -> int:
        """Highest replication sequence number durably applied."""
        with self._lock:
            return self._applied

    @property
    def wal_path(self) -> Path:
        return self._journal.config.wal_path

    @property
    def snapshot_path(self) -> Path:
        return self._journal.config.snapshot_path

    # -- accept/apply loop -----------------------------------------------
    def _serve(self) -> None:
        while True:
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return  # listener closed: stopping
            with self._lock:
                if self._closing:
                    conn.close()
                    return
                self._conn = conn
            try:
                self._follow(conn)
            except (OSError, ProtocolError):
                pass  # primary died or dropped; wait for a reconnect
            finally:
                conn.close()
                with self._lock:
                    self._conn = None

    def _follow(self, conn: socket.socket) -> None:
        hello = recv_frame(conn)
        if hello is None or hello.get("kind") != "hello":
            raise ProtocolError(f"bad primary handshake: {hello!r}")
        if hello.get("format") != FORMAT_VERSION:
            raise ProtocolError(
                f"primary speaks format {hello.get('format')!r}, "
                f"this standby reads {FORMAT_VERSION}")
        send_frame(conn, {"kind": "welcome", "applied_seq": self._applied})
        while True:
            frame = recv_frame(conn)
            if frame is None:
                return  # clean primary disconnect
            if frame.get("kind") != "batch":
                raise ProtocolError(f"unexpected frame: {frame!r}")
            with self._lock:
                if self._closing:
                    return
                for item in frame["items"]:
                    seq = int(item["seq"])
                    if seq <= self._applied:
                        continue  # resent after a reconnect; already have it
                    self._apply(item["t"], item["p"])
                    self._applied = seq
            send_frame(conn, {"kind": "ack", "epoch": frame["epoch"],
                              "seq": self._applied})

    def _apply(self, kind: str, payload: dict) -> None:
        if kind == "wal":
            # Already stamped by the primary's journal: logged unchanged.
            self._journal.write(payload)
            self._m_applied.inc()
        elif kind == "snap":
            self._journal.checkpoint(payload)
            self._m_snap_applied.inc()
        else:
            raise ProtocolError(f"unknown replication item kind {kind!r}")

    # -- lifecycle ---------------------------------------------------------
    def stop(self) -> None:
        """Stop following and release the directory (keeps its contents)."""
        import socket

        with self._lock:
            if self._closing:
                return
            self._closing = True
            conn, self._conn = self._conn, None
            self._journal.close()
        if conn is not None:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            conn.close()
        # close() alone does not wake a thread blocked in accept() on
        # Linux, and the port would keep accepting; shutdown() does.
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._listener.close()
        _join(self._thread, 5.0)

    def promote(self, backend, **recover_kwargs):
        """Stop following and bring the directory up as a live service.

        Runs the full :meth:`QueryService.recover` machinery over the
        replicated state: snapshot restore, WAL replay under recorded qids,
        a fresh recovery-point snapshot, and network reconciliation via
        the backend.  Returns the promoted :class:`QueryService`; its
        :attr:`last_recovery` report says what replay did.
        """
        from .service import QueryService

        self.stop()
        service = QueryService.recover(backend, str(self.state_dir),
                                       **recover_kwargs)
        self._m_promotions.inc()
        return service
