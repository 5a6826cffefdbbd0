"""The root coordinator: tier 0 over K tier-1/tier-2 shards.

:class:`ClusterCoordinator` fronts K WAL-capable
:class:`~repro.service.QueryService` shards (one per cluster of the
partitioned field, each with its own base-station optimizer) behind one
session/ticket API shaped like the single-station service:

* **routing** — a consistent-hash ring homes each tenant on a shard; a
  query whose region predicates (``nodeid``/``x``/``y``) pin it to a
  single cluster is routed to that cluster's shard directly;
* **fan-out** — a region-spanning query is planned by the
  :class:`~repro.core.basestation.RootRewriter` (tier 0's rewrite pass:
  region pruning + AVG decomposition) and submitted to every target
  shard under a coordinator-owned *root session*;
* **root dedup** — fanned-out queries are deduplicated by canonical key
  in a root-level :class:`~repro.service.CanonicalQueryCache`, so N
  tenants asking the same cross-cluster question cost one subquery per
  target shard, refcounted like the shard-level anchors of PR 1;
* **merging** — per-shard result streams are merged epoch-aligned
  (``repro.cluster.merge``) into the answer stream a single station
  would have produced;
* **durability** — each shard keeps its own WAL + snapshots under
  ``<durability_dir>/shard-NN``, and the coordinator journals its *own*
  bookkeeping (session opens, fan-out anchor creation/refcounts,
  terminates) to a **root WAL** under ``<durability_dir>/root`` through
  the same :class:`~repro.service.durability.Journal` the shards use.
  Each record kind changes root state through one transition, shared by
  the live operation and the replay.  :meth:`recover` rebuilds every
  shard, replays the root log through those transitions, relinks each
  shard's live tickets, and sweeps the shard-side sessions and tickets
  no root record claims;
* **fault tolerance** — shards marked down (by the
  :class:`~repro.cluster.supervisor.ShardSupervisor` failure detector or
  by a failed call) are routed around: fan-outs skip them, merges
  finalise epochs from the surviving shards with a ``completeness``
  fraction, and terminates/closes that race the outage are queued and
  retried when :meth:`replace_shard_service` heals the shard.

Cluster ticket ids are namespaced strings: ``shard-01:17`` for a query
routed to one shard (shard name + shard ticket id), ``root:3`` for a
fanned-out query owned by the root.  All counters live under the
``cluster.*`` metric families (see ``docs/observability.md``).
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from ..core.basestation import MappedAggregates, MappedRow, RootRewriter
from ..core.qos import QoSClass
from ..obs import Counts, bind_counts, get_registry, unbind
from ..queries.ast import Query, query_from_dict, query_to_dict
from ..queries.canonical import CanonicalKey, canonical_key, canonicalize
from ..queries.parser import parse_query
from ..service import (
    DEFAULT_TTL_MS,
    CanonicalQueryCache,
    ExplainReport,
    OverloadConfig,
    QueryService,
    ServiceStats,
    SessionManager,
    SubscriberQueue,
    Ticket,
    TicketStatus,
)
from ..service.durability import (
    FORMAT_VERSION,
    DurabilityConfig,
    Journal,
    RecoveryReport,
)
from ..service.service import ServiceClosed, _wall_clock_ms
from .merge import combine_shard_aggregates, user_aggregates_view
from .partition import FieldPartition
from .ring import DEFAULT_VNODES, HashRing

#: Client id of the coordinator's per-shard fan-out sessions.
ROOT_CLIENT = "cluster-root"
#: Lease for coordinator-owned shard sessions: tenancy is enforced at the
#: root, so shard-level leases held by the root must never lapse on
#: their own.  Finite so it stays strict-JSON safe in shard snapshots.
ROOT_TTL_MS = 1e15
#: Subdirectory of ``durability_dir`` holding the coordinator's own WAL.
ROOT_DIR_NAME = "root"
#: Root WAL records between automatic root snapshots.
ROOT_SNAPSHOT_EVERY_OPS = 64
#: The qid a query text parses under at the root.  A qid names a query in
#: one shard's optimizer, and each shard names its own copy.
ROOT_QID = 0

#: ``(field, family, help, labels)`` of every ``cluster.*`` counter; each
#: series reads the coordinator's field of that name.
_COUNTERS = (
    ("local", "cluster.submissions_total",
     "queries submitted through the coordinator", {"scope": "local"}),
    ("fanout", "cluster.submissions_total",
     "queries submitted through the coordinator", {"scope": "fanout"}),
    ("subqueries", "cluster.fanout_subqueries_total",
     "shard subqueries submitted on behalf of fan-outs", {}),
    ("dedup", "cluster.root_dedup_hits_total",
     "fan-outs served from the root canonical-query cache", {}),
    ("merged_rows", "cluster.merged_results_total",
     "items merged at the root across shard streams", {"kind": "rows"}),
    ("merged_aggs", "cluster.merged_results_total",
     "items merged at the root across shard streams",
     {"kind": "aggregates"}),
    ("dup_dropped", "cluster.merge_duplicates_dropped_total",
     "duplicate/late shard result items dropped by the merge", {}),
    ("explains", "cluster.explains_total",
     "cluster EXPLAIN requests served by the root", {}),
    ("root_records", "cluster.root_wal.records_total",
     "records appended to the coordinator's root WAL", {}),
    ("root_snapshots", "cluster.root_wal.snapshots_total",
     "root snapshots written (each rotates the root WAL)", {}),
    ("root_replayed", "cluster.root_wal.replayed_ops_total",
     "root WAL records replayed during coordinator recovery", {}),
    ("root_torn", "cluster.root_wal.torn_records_total",
     "torn root WAL records discarded during recovery", {}),
    ("root_recoveries", "cluster.root_wal.recoveries_total",
     "coordinator recoveries restored from the root WAL", {}),
    ("degraded", "cluster.merge_degraded_epochs_total",
     "aggregate epochs finalised below full completeness during a shard "
     "outage", {}),
    ("outages", "cluster.shard_outages_total",
     "shard-down transitions observed by the coordinator", {}),
)


class _Counts(Counts):
    __slots__ = tuple(row[0] for row in _COUNTERS)


def _root_config(durability_dir: Union[str, Path]) -> DurabilityConfig:
    """The root journal's directory and cadence.  Its flush tier is
    fixed: WAL flushed to the OS, never fsynced; directory fsynced after
    each snapshot rename (``snapshot_dir_fsync=True``)."""
    return DurabilityConfig(str(Path(durability_dir) / ROOT_DIR_NAME),
                            snapshot_every_ops=ROOT_SNAPSHOT_EVERY_OPS)


class ShardDownError(ServiceClosed):
    """An operation needed a shard that is marked down (or died mid-call).

    The admission was *not* acknowledged: callers retry after the
    supervisor heals the shard (LOCAL queries), or accept the degraded
    fan-out the coordinator built from the surviving shards.
    """


class ClusterScope:
    """Where a cluster ticket's query runs."""

    LOCAL = "local"    # one shard, under the tenant's shard session
    FANOUT = "fanout"  # several shards, under root sessions + root dedup


@dataclass
class ClusterTicket:
    """One tenant's handle on one query submitted to the cluster."""

    ticket_id: str
    session_id: str
    #: Canonical form of what the tenant submitted.
    query: Query
    key: CanonicalKey
    scope: str
    #: Target shard ids, ascending (one entry for LOCAL scope).
    targets: Tuple[int, ...]
    #: Shards ruled out by the root rewriter's region pruning.
    pruned: Tuple[int, ...]
    #: Live shard-level tickets serving this cluster ticket (shared with
    #: the root anchor for FANOUT scope; statuses update in place).
    shard_tickets: Tuple[Ticket, ...]
    submitted_ms: float
    #: Shard-level cache hit (LOCAL) or root-level dedup hit (FANOUT).
    cache_hit: bool = False
    #: Root-cache key of the fanned-out query (FANOUT only).
    fan_key: Optional[CanonicalKey] = None
    terminated: bool = False

    @property
    def status(self) -> TicketStatus:
        """Worst-of shard ticket statuses, TERMINATED once released."""
        if self.terminated:
            return TicketStatus.TERMINATED
        if not self.shard_tickets:
            # No shard handle yet: a recovered ticket awaiting relink, or
            # a fan-out whose every subquery sits on a down shard.
            return TicketStatus.PENDING
        statuses = {t.status for t in self.shard_tickets}
        for worst in (TicketStatus.FAILED, TicketStatus.SHED,
                      TicketStatus.EXPIRED, TicketStatus.PENDING):
            if worst in statuses:
                return worst
        return TicketStatus.LIVE


@dataclass(frozen=True)
class ShardExplain:
    """One shard's priced EXPLAIN for its slice of a cluster query."""

    shard_id: int
    name: str
    report: ExplainReport

    def to_dict(self) -> dict:
        return {"shard_id": self.shard_id, "name": self.name,
                "report": self.report.to_dict()}


@dataclass(frozen=True)
class ClusterExplainReport:
    """What cluster ``EXPLAIN`` returns: the root plan, priced per shard.

    ``shards`` holds each *target* shard's own :class:`ExplainReport` for
    the query it would actually run (the fan-out form for multi-shard
    plans), so the root can compare what the same question costs in each
    region — ``cheapest_shard``/``priciest_shard`` rank them by estimated
    radio-seconds per epoch, and the totals sum the fan-out's whole
    footprint.  Region-pruned shards appear in ``pruned`` and cost
    nothing.
    """

    text: str
    scope: str
    targets: Tuple[int, ...]
    pruned: Tuple[int, ...]
    root_dedup_hit: bool
    shards: Tuple[ShardExplain, ...]
    total_radio_s_per_epoch: float
    total_joules_per_epoch: float
    cheapest_shard: str
    priciest_shard: str

    def to_dict(self) -> dict:
        return {
            "text": self.text,
            "scope": self.scope,
            "targets": list(self.targets),
            "pruned": list(self.pruned),
            "root_dedup_hit": self.root_dedup_hit,
            "shards": [shard.to_dict() for shard in self.shards],
            "total_radio_s_per_epoch": self.total_radio_s_per_epoch,
            "total_joules_per_epoch": self.total_joules_per_epoch,
            "cheapest_shard": self.cheapest_shard,
            "priciest_shard": self.priciest_shard,
        }


@dataclass
class _Watcher:
    """One subscriber queue attached to a fan-out anchor."""

    ticket_id: str
    user_query: Query
    sink: SubscriberQueue


@dataclass
class _RootAnchor:
    """One live fanned-out query and its per-shard machinery."""

    key: CanonicalKey
    fan_query: Query
    targets: Tuple[int, ...]
    #: shard id -> shard ticket id of the subquery, as journaled.
    sub_ids: Dict[int, int] = field(default_factory=dict)
    #: shard id -> the live shard-level Ticket of the subquery (linked).
    subtickets: Dict[int, Ticket] = field(default_factory=dict)
    #: shard id -> root subscription queue (results-capable shards only).
    queues: Dict[int, SubscriberQueue] = field(default_factory=dict)
    #: Dedup of merged acquisition rows, keyed by (epoch_time, origin).
    seen_rows: set = field(default_factory=set)
    #: (epoch_time, group_key) -> shard id -> partial aggregate values.
    partials: Dict[tuple, Dict[int, dict]] = field(default_factory=dict)
    #: Aggregate epochs already finalised and emitted.
    emitted: set = field(default_factory=set)
    #: Merged history (fan-level items), replayed to late subscribers.
    merged: list = field(default_factory=list)
    watchers: List[_Watcher] = field(default_factory=list)


@dataclass(frozen=True)
class ClusterStats:
    """One consistent snapshot of the coordinator plus its shards."""

    shards: int
    sessions_open: int
    sessions_opened_total: int
    sessions_expired_total: int
    submissions_total: int
    local_submissions: int
    fanout_submissions: int
    #: Shard subqueries actually submitted on behalf of fan-outs.
    fanout_subqueries: int
    root_dedup_hits: int
    live_anchors: int
    merged_rows: int
    merged_aggregates: int
    merge_duplicates_dropped: int
    per_shard: Tuple[ServiceStats, ...]
    shards_down: int = 0

    @property
    def admitted_total(self) -> int:
        return sum(s.admitted_total for s in self.per_shard)

    @property
    def registrations(self) -> int:
        return sum(s.registrations for s in self.per_shard)

    @property
    def terminations(self) -> int:
        return sum(s.terminations for s in self.per_shard)

    @property
    def live_tickets(self) -> int:
        return sum(s.live_tickets for s in self.per_shard)

    @property
    def live_synthetic_queries(self) -> int:
        return sum(s.live_synthetic_queries for s in self.per_shard)


#: A shard-side release a root transition implies: ``(shard id, shard
#: session id, shard ticket id)`` terminates that ticket, and a ``None``
#: ticket id closes the session.
_Release = Tuple[int, Optional[str], Optional[int]]


def _local_shard_ticket(ticket: ClusterTicket) -> int:
    """The shard ticket id a LOCAL cluster ticket's id carries."""
    return int(ticket.ticket_id.rsplit(":", 1)[1])


@dataclass
class _Shard:
    shard_id: int
    name: str
    backend: object
    service: QueryService

    @property
    def has_results(self) -> bool:
        return getattr(self.backend, "results", None) is not None


class ClusterCoordinator:
    """Multi-tenant front-end over K sharded query services (tier 0).

    ``backends`` is one tier-1-capable backend per shard (a harness
    :class:`~repro.harness.strategies.Deployment` per cluster region for
    simulated runs, or :class:`~repro.service.OptimizerBackend` for pure
    admission serving).  ``partition`` enables region planning: without
    it every query is tenant-routed to the ring's home shard (the pure
    admission-scaling mode the throughput benchmark measures).
    """

    def __init__(self, backends: Sequence, *,
                 partition: Optional[FieldPartition] = None,
                 batch_window_ms: float = 0.0,
                 default_ttl_ms: float = DEFAULT_TTL_MS,
                 clock: Optional[Callable[[], float]] = None,
                 durability_dir: Optional[Union[str, Path]] = None,
                 overload: Optional[OverloadConfig] = None,
                 vnodes: int = DEFAULT_VNODES,
                 services: Optional[Sequence[QueryService]] = None) -> None:
        if not backends:
            raise ValueError("cluster needs at least one shard backend")
        if partition is not None and partition.n_shards != len(backends):
            raise ValueError(
                f"partition has {partition.n_shards} regions but "
                f"{len(backends)} backends were supplied")
        if services is not None and len(services) != len(backends):
            raise ValueError("services/backends length mismatch")
        self._clock = clock or _wall_clock_ms()
        self._lock = threading.RLock()
        self.partition = partition
        self._shards: List[_Shard] = []
        for shard_id, backend in enumerate(backends):
            name = f"shard-{shard_id:02d}"
            if services is not None:
                service = services[shard_id]
                service.name = name
            else:
                durability = (str(Path(durability_dir) / name)
                              if durability_dir is not None else None)
                service = QueryService(
                    backend, batch_window_ms=batch_window_ms,
                    default_ttl_ms=default_ttl_ms, clock=self._clock,
                    durability=durability, overload=overload, name=name)
            self._shards.append(_Shard(shard_id, name, backend, service))
        self._by_name = {shard.name: shard for shard in self._shards}
        self.ring = HashRing((s.name for s in self._shards), vnodes=vnodes)
        self._rewriter = (RootRewriter(partition.extents())
                          if partition is not None else None)
        self._sessions = SessionManager(default_ttl_ms)
        self._tickets: Dict[str, ClusterTicket] = {}
        #: session id -> shard id -> the tenant's session on that shard.
        self._shard_sessions: Dict[str, Dict[int, str]] = {}
        #: shard id -> the coordinator's fan-out session on that shard.
        self._root_sessions: Dict[int, str] = {}
        self._root_cache = CanonicalQueryCache()
        self._anchors: Dict[CanonicalKey, _RootAnchor] = {}
        self._fan_seq = 0
        #: Shards currently considered dead (failure detector / failed
        #: call).  Routed around until :meth:`replace_shard_service`.
        self._down_shards: Set[int] = set()
        #: shard id -> [(shard session id, shard ticket id)]: terminates
        #: that raced an outage, retried on tick and on heal.
        self._pending_terminates: Dict[int, List[Tuple[str, int]]] = {}
        #: shard id -> [shard session id]: closes that raced an outage.
        self._pending_closes: Dict[int, List[str]] = {}
        self._crashed = False
        #: The root WAL + snapshot journal (``None`` without durability,
        #: while :meth:`recover` replays, and once shut down or crashed).
        self._root_journal: Optional[Journal] = None
        #: Set by :meth:`recover` when the root WAL was replayed.
        self.last_root_recovery: Optional[RecoveryReport] = None
        self._init_metrics(get_registry())
        if durability_dir is not None:
            self._root_journal = Journal.boot(
                _root_config(durability_dir),
                {"op": "boot", "format": FORMAT_VERSION,
                 "config": {"default_ttl_ms": self._sessions.default_ttl_ms}},
                snapshot_dir_fsync=True)
            self._counts.root_records += 1

    # ------------------------------------------------------------------
    # Metrics (cluster.* families; see docs/observability.md)
    # ------------------------------------------------------------------
    def _init_metrics(self, registry) -> None:
        """Bind the ``cluster.*`` counters to ``self._counts`` and register
        the gauges; a series shared by several live coordinators reads
        their sum."""
        self._counts = _Counts()
        self._bindings = bind_counts(registry, self._counts, _COUNTERS)
        registry.gauge("cluster.shards_down",
                       help="shards currently marked down"
                       ).set_fn(lambda: float(len(self._down_shards)))
        registry.gauge("cluster.shards",
                       help="shards behind the coordinator"
                       ).set_fn(lambda: float(len(self._shards)))
        registry.gauge("cluster.sessions_open",
                       help="tenant sessions with an unexpired root lease"
                       ).set_fn(lambda: float(len(self._sessions)))
        registry.gauge("cluster.live_anchors",
                       help="distinct live fanned-out queries at the root"
                       ).set_fn(lambda: float(len(self._anchors)))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _now(self, now_ms: Optional[float]) -> float:
        return self._clock() if now_ms is None else now_ms

    def _shard(self, shard_id: int) -> _Shard:
        return self._shards[shard_id]

    def _ensure_root_open(self) -> None:
        if self._crashed:
            raise ServiceClosed(
                "coordinator crashed; build a new one with recover()")

    def home_shard(self, client_id: str) -> int:
        """The ring's home shard for a tenant."""
        return self._by_name[self.ring.shard_for(client_id)].shard_id

    def _shard_session(self, shard: _Shard, now: float,
                       session_id: Optional[str] = None,
                       client_id: str = ROOT_CLIENT) -> str:
        """Tenant ``session_id``'s session on ``shard`` (the root's own
        fan-out session when ``None``), opened on first use.

        Shard-level leases are effectively infinite: the *root* enforces
        the tenant's TTL and cascades close/expiry down to the shards.
        """
        held = (self._root_sessions if session_id is None
                else self._shard_sessions.get(session_id, {}))
        shard_sid = held.get(shard.shard_id)
        if shard_sid is None:
            shard_sid = shard.service.open_session(
                client_id, ttl_ms=ROOT_TTL_MS, now_ms=now)
            record = {"op": "root_session", "shard": shard.shard_id,
                      "shard_sid": shard_sid, "now": now}
            if session_id is not None:
                record.update(op="shard_session", sid=session_id)
            self._journal(record)
            self._adopt_shard_session(session_id, shard.shard_id, shard_sid)
        return shard_sid

    # ------------------------------------------------------------------
    # Root WAL (the protocol lives in service/durability.py)
    # ------------------------------------------------------------------
    def _journal(self, record: dict) -> None:
        """Append one bookkeeping record to the root WAL (if attached).

        A journaled record is an acknowledged operation.  ``terminate``,
        ``close`` and ``expire`` are journaled before their shard-side
        releases (the record implies every release a crash cuts short,
        and the recovery sweep finishes them).  ``open``, ``renew``,
        ``submit``, ``shard_session``, ``root_session``, ``abort_orphans``
        and ``fanout_sub`` are journaled after their effects, and
        ``shutdown`` after its releases but before the shards shut down.
        Replay applies a record through the same root transition as the
        live operation, never back through the shards: their own WALs
        already hold the effects.
        """
        if self._root_journal is not None:
            self._root_journal.append(record)
            self._counts.root_records += 1

    def _checkpoint(self, now_ms: Optional[float] = None,
                    force: bool = False) -> None:
        """Snapshot the root and rotate its WAL when one is due — called
        at the *end* of a public operation, never from inside
        :meth:`_journal`, which can run mid-transition — or when
        ``force``d."""
        journal = self._root_journal
        if journal is not None and (force or journal.due()):
            journal.checkpoint(self._root_snapshot_state(self._now(now_ms)))
            self._counts.root_snapshots += 1

    def snapshot(self, now_ms: Optional[float] = None) -> None:
        """Write a full root snapshot and truncate the root WAL."""
        with self._lock:
            if self._root_journal is None:
                raise ValueError(
                    "coordinator was built without durability")
            self._checkpoint(now_ms, force=True)

    def _root_snapshot_state(self, now: float) -> dict:
        anchors = []
        for key in sorted(self._anchors, key=repr):
            anchor = self._anchors[key]
            anchors.append({
                "fan_query": query_to_dict(anchor.fan_query),
                "targets": list(anchor.targets),
                "subtickets": {
                    str(shard_id): shard_tid
                    for shard_id, shard_tid in sorted(anchor.sub_ids.items())},
            })
        return {
            "format": FORMAT_VERSION,
            "saved_ms": now,
            "op_seq": (self._root_journal.seq
                       if self._root_journal is not None else 0),
            "fan_seq": self._fan_seq,
            "sessions": self._sessions.to_dict(),
            "shard_sessions": {
                sid: {str(shard_id): shard_sid
                      for shard_id, shard_sid in per.items()}
                for sid, per in self._shard_sessions.items()},
            "root_sessions": {str(shard_id): shard_sid
                              for shard_id, shard_sid
                              in self._root_sessions.items()},
            "tickets": [self._ticket_to_dict(self._tickets[tid])
                        for tid in sorted(self._tickets)],
            "anchors": anchors,
            "pending_terminates": {
                str(shard_id): [[sid, tid] for sid, tid in pairs]
                for shard_id, pairs in self._pending_terminates.items()},
            "pending_closes": {
                str(shard_id): list(sids)
                for shard_id, sids in self._pending_closes.items()},
        }

    def _ticket_to_dict(self, ticket: ClusterTicket,
                        anchor: Optional[_RootAnchor] = None) -> dict:
        """``anchor`` is a fan-out's new anchor, not yet admitted."""
        payload = {
            "ticket_id": ticket.ticket_id,
            "session_id": ticket.session_id,
            "query": query_to_dict(ticket.query),
            "scope": ticket.scope,
            "targets": list(ticket.targets),
            "pruned": list(ticket.pruned),
            "subtickets": (
                {str(ticket.targets[0]): _local_shard_ticket(ticket)}
                if ticket.scope == ClusterScope.LOCAL else {}),
            "submitted_ms": ticket.submitted_ms,
            "cache_hit": ticket.cache_hit,
            "terminated": ticket.terminated,
        }
        if ticket.fan_key is not None:
            anchor = anchor or self._anchors.get(ticket.fan_key)
            if anchor is not None:
                payload["fan_query"] = query_to_dict(anchor.fan_query)
        return payload

    @staticmethod
    def _ticket_from_dict(payload: dict) -> ClusterTicket:
        query = query_from_dict(payload["query"])
        fan_payload = payload.get("fan_query")
        return ClusterTicket(
            ticket_id=payload["ticket_id"],
            session_id=payload["session_id"],
            query=query,
            key=canonical_key(query),
            scope=payload["scope"],
            targets=tuple(payload["targets"]),
            pruned=tuple(payload["pruned"]),
            shard_tickets=(),
            submitted_ms=float(payload["submitted_ms"]),
            cache_hit=bool(payload["cache_hit"]),
            fan_key=(canonical_key(query_from_dict(fan_payload))
                     if fan_payload is not None else None),
            terminated=bool(payload["terminated"]),
        )

    @staticmethod
    def _anchor_from_dict(fan_payload: dict, targets, sub_ids: dict
                          ) -> _RootAnchor:
        fan_query = query_from_dict(fan_payload)
        return _RootAnchor(key=canonical_key(fan_query), fan_query=fan_query,
                           targets=tuple(targets),
                           sub_ids={int(shard_id): int(shard_tid)
                                    for shard_id, shard_tid
                                    in sub_ids.items()})

    # ------------------------------------------------------------------
    # Shard health
    # ------------------------------------------------------------------
    def mark_shard_down(self, shard_id: int) -> None:
        """Record a shard outage (supervisor / failure-detector hook)."""
        with self._lock:
            self._mark_down(shard_id)

    def _mark_down(self, shard_id: int) -> None:
        if shard_id not in self._down_shards:
            self._down_shards.add(shard_id)
            self._counts.outages += 1

    @property
    def down_shards(self) -> Tuple[int, ...]:
        """Shard ids currently marked down, ascending."""
        with self._lock:
            return tuple(sorted(self._down_shards))

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------
    def open_session(self, client_id: str = "anonymous",
                     ttl_ms: Optional[float] = None,
                     now_ms: Optional[float] = None) -> str:
        """Open a TTL-leased tenant session at the root."""
        with self._lock:
            self._ensure_root_open()
            now = self._now(now_ms)
            self._expire(now)
            session = self._sessions.open(client_id, now, ttl_ms)
            self._journal({"op": "open", "sid": session.session_id,
                           "client": client_id, "ttl": session.ttl_ms,
                           "now": now})
            self._checkpoint()
            return session.session_id

    def renew_session(self, session_id: str,
                      ttl_ms: Optional[float] = None,
                      now_ms: Optional[float] = None) -> None:
        """Extend a tenant lease; a lapsed lease cannot be renewed."""
        with self._lock:
            self._ensure_root_open()
            now = self._now(now_ms)
            self._expire(now)
            self._sessions.renew(session_id, now, ttl_ms)
            self._journal({"op": "renew", "sid": session_id,
                           "ttl": ttl_ms, "now": now})
            self._checkpoint()

    def close_session(self, session_id: str,
                      now_ms: Optional[float] = None) -> None:
        """Release every ticket the tenant owns and drop the session."""
        with self._lock:
            self._ensure_root_open()
            now = self._now(now_ms)
            self._sessions.get(session_id)  # unknown: raise, journal nothing
            # Journaled before the shard-side releases: on replay the
            # close record implies every release the crash may have cut
            # short, and the recovery sweep finishes them.
            self._journal({"op": "close", "sid": session_id, "now": now})
            self._release_session(session_id, now)
            self._checkpoint()

    def _release_session(self, session_id: str, now: float) -> None:
        """The ``close`` transition, then its shard-side releases."""
        self._release(self._close(session_id), now)

    def expire_leases(self, now_ms: Optional[float] = None) -> List[str]:
        """Cascade root-lease expiry down to the shards; idempotent."""
        with self._lock:
            self._ensure_root_open()
            return self._expire(self._now(now_ms))

    def _expire(self, now: float) -> List[str]:
        expired = [session.session_id
                   for session in self._sessions.expired(now)]
        if expired:
            self._journal({"op": "expire", "sids": expired, "now": now})
            self._release(self._expire_sessions(expired), now)
        return expired

    # ------------------------------------------------------------------
    # Query admission
    # ------------------------------------------------------------------
    def submit(self, session_id: str, query: Union[str, Query],
               now_ms: Optional[float] = None,
               qos: QoSClass = QoSClass.BEST_EFFORT) -> ClusterTicket:
        """Plan, route, and submit one query on behalf of a tenant.

        Raises :class:`ShardDownError` — *without* acknowledging the
        admission — when the query's only viable shard is down.
        """
        with self._lock:
            self._ensure_root_open()
            now = self._now(now_ms)
            self._expire(now)
            session = self._sessions.get(session_id)
            if isinstance(query, str):
                query = parse_query(query, qid=ROOT_QID)
            canonical, fan_query, targets, pruned = self._plan(
                query, session.client_id)
            anchor = None
            if len(targets) == 1:
                ticket = self._submit_local(session_id, session.client_id,
                                            canonical, targets, pruned,
                                            now, qos)
                self._counts.local += 1
            else:
                ticket, anchor = self._submit_fanout(
                    session_id, canonical, fan_query, targets, pruned, now,
                    qos)
                self._counts.fanout += 1
            # Journal point == ack point: every shard-side submit above
            # succeeded, so the record makes the admission durable.
            record = {"op": "submit",
                      "ticket": self._ticket_to_dict(ticket, anchor),
                      "now": now}
            if anchor is not None:
                record["anchor_subs"] = {
                    str(shard_id): shard_tid
                    for shard_id, shard_tid in sorted(anchor.sub_ids.items())}
            self._journal(record)
            self._admit(ticket, anchor)
            self._checkpoint()
            return ticket

    def _plan(self, query: Query, client_id: str
              ) -> Tuple[Query, Query, Tuple[int, ...], Tuple[int, ...]]:
        """``(canonical, fan_query, targets, pruned)``: the root rewrite
        pass, or the tenant's ring home when there is no partition."""
        if self._rewriter is None:
            canonical = canonicalize(query)
            return canonical, canonical, (self.home_shard(client_id),), ()
        plan = self._rewriter.plan(query)
        return plan.canonical, plan.fan_query, plan.targets, plan.pruned

    def _submit_local(self, session_id: str, client_id: str,
                      canonical: Query, targets: Tuple[int, ...],
                      pruned: Tuple[int, ...], now: float,
                      qos: QoSClass) -> ClusterTicket:
        shard = self._shard(targets[0])
        if shard.shard_id in self._down_shards:
            raise ShardDownError(
                f"shard {shard.name} is down; retry after recovery")
        try:
            shard_sid = self._shard_session(shard, now, session_id,
                                            client_id)
            local = shard.service.submit(shard_sid, canonical, now_ms=now,
                                         qos=qos)
        except ServiceClosed as exc:
            self._mark_down(shard.shard_id)
            raise ShardDownError(
                f"shard {shard.name} died mid-submit; admission was not "
                f"acknowledged") from exc
        return ClusterTicket(
            ticket_id=f"{shard.name}:{local.ticket_id}",
            session_id=session_id,
            query=canonical,
            key=canonical_key(canonical),
            scope=ClusterScope.LOCAL,
            targets=targets,
            pruned=pruned,
            shard_tickets=(local,),
            submitted_ms=now,
            cache_hit=local.cache_hit,
        )

    def _submit_fanout(self, session_id: str, canonical: Query,
                       fan_query: Query, targets: Tuple[int, ...],
                       pruned: Tuple[int, ...], now: float, qos: QoSClass
                       ) -> Tuple[ClusterTicket, Optional[_RootAnchor]]:
        """The fan-out's ticket, and its anchor when the fan-out is new."""
        fan_key = canonical_key(fan_query)
        anchor = self._anchors.get(fan_key)
        dedup_hit = anchor is not None
        if anchor is None:
            anchor = _RootAnchor(key=fan_key, fan_query=fan_query,
                                 targets=targets)
            for shard_id in targets:
                if shard_id in self._down_shards:
                    continue  # degraded fan-out: healed on shard return
                shard = self._shard(shard_id)
                try:
                    sub = shard.service.submit(
                        self._shard_session(shard, now), fan_query,
                        now_ms=now, qos=qos)
                except ServiceClosed:
                    self._mark_down(shard_id)
                    continue
                anchor.sub_ids[shard_id] = sub.ticket_id
                self._link(anchor, shard, sub)
                self._counts.subqueries += 1
            if not anchor.subtickets:
                raise ShardDownError(
                    f"every target shard of the fan-out is down "
                    f"({sorted(targets)}); retry after recovery")
        else:
            self._counts.dedup += 1
        ticket = ClusterTicket(
            ticket_id=f"root:{self._fan_seq + 1}",
            session_id=session_id,
            query=canonical,
            key=canonical_key(canonical),
            scope=ClusterScope.FANOUT,
            targets=targets,
            pruned=pruned,
            shard_tickets=tuple(anchor.subtickets[s] for s in targets
                                if s in anchor.subtickets),
            submitted_ms=now,
            cache_hit=dedup_hit,
            fan_key=fan_key,
        )
        return ticket, None if dedup_hit else anchor

    # ------------------------------------------------------------------
    # EXPLAIN: shard-aware pricing
    # ------------------------------------------------------------------
    def explain(self, query: Union[str, Query],
                session_id: Optional[str] = None,
                now_ms: Optional[float] = None,
                qos: QoSClass = QoSClass.BEST_EFFORT
                ) -> ClusterExplainReport:
        """Price a query across the cluster *without* admitting it.

        Runs the root rewrite pass (region pruning + fan-out
        decomposition) exactly as :meth:`submit` would, then asks every
        target shard's service to EXPLAIN the query it would receive —
        each against its own optimizer table, statistics, and tenant
        ledger — so the report compares what the same question costs per
        region before a single flood goes out.  Read-only at every tier:
        no shard session is opened, and each shard names its probe.
        """
        with self._lock:
            now = self._now(now_ms)
            client = "anonymous"
            if session_id is not None:
                client = self._sessions.get(session_id).client_id
            if isinstance(query, str):
                query = parse_query(query, qid=ROOT_QID)
            canonical, fan_query, targets, pruned = self._plan(query, client)
            scope = (ClusterScope.LOCAL if len(targets) == 1
                     else ClusterScope.FANOUT)
            probe = canonical if scope == ClusterScope.LOCAL else fan_query
            dedup_hit = (scope == ClusterScope.FANOUT
                         and canonical_key(fan_query)
                         in self._root_cache.entries())
            shards = []
            for shard_id in targets:
                shard = self._shard(shard_id)
                shards.append(ShardExplain(
                    shard_id=shard_id, name=shard.name,
                    report=shard.service.explain(probe, now_ms=now, qos=qos,
                                                 client_id=client)))
            by_price = sorted(
                shards, key=lambda s: (s.report.price.radio_s_per_epoch,
                                       s.shard_id))
            self._counts.explains += 1
            return ClusterExplainReport(
                text=str(canonical),
                scope=scope,
                targets=targets,
                pruned=pruned,
                root_dedup_hit=dedup_hit,
                shards=tuple(shards),
                total_radio_s_per_epoch=sum(
                    s.report.price.radio_s_per_epoch for s in shards),
                total_joules_per_epoch=sum(
                    s.report.price.joules_per_epoch for s in shards),
                cheapest_shard=by_price[0].name,
                priciest_shard=by_price[-1].name,
            )

    # ------------------------------------------------------------------
    # Termination
    # ------------------------------------------------------------------
    def terminate(self, session_id: str, ticket_id: str,
                  now_ms: Optional[float] = None) -> None:
        """Release one of the tenant's cluster tickets.

        A terminate that races a shard outage still releases the *root*
        bookkeeping (refcount, anchor, watcher) exactly once — the
        shard-side terminate is queued and retried when the shard heals,
        so a retry after :class:`ShardDownError` used to double-release
        the anchor refcount (the PR 10 regression fix).
        """
        with self._lock:
            self._ensure_root_open()
            now = self._now(now_ms)
            self._expire(now)
            session = self._sessions.get(session_id)
            ticket = self._tickets.get(ticket_id)
            if ticket is None or ticket_id not in session.tickets:
                raise KeyError(
                    f"session {session_id!r} owns no ticket {ticket_id!r}")
            if not ticket.terminated:
                self._journal({"op": "terminate", "ticket_id": ticket_id,
                               "now": now})
            self._release(self._terminate(ticket), now)
            self._checkpoint()

    def _release(self, releases: List[_Release], now: float) -> None:
        """Run shard-side releases in order.  A down shard's are queued
        and retried when it heals, so root bookkeeping, already released
        exactly once, never waits on a shard."""
        for shard_id, shard_sid, shard_tid in releases:
            if shard_id not in self._down_shards:
                service = self._shard(shard_id).service
                try:
                    if shard_tid is None:
                        service.close_session(shard_sid, now_ms=now)
                    else:
                        service.terminate(shard_sid, shard_tid, now_ms=now)
                    continue
                except KeyError:
                    continue  # the shard no longer holds it
                except ServiceClosed:
                    self._mark_down(shard_id)
            if shard_tid is None:
                self._pending_closes.setdefault(shard_id, []).append(
                    shard_sid)
            else:
                self._pending_terminates.setdefault(shard_id, []).append(
                    (shard_sid, shard_tid))

    def _drain_pending(self, now: float) -> None:
        """Retry the terminates/closes queued while a shard, now up, was
        down."""
        for shard_id in sorted(set(self._pending_terminates)
                               | set(self._pending_closes)):
            if shard_id not in self._down_shards:
                self._release(
                    [(shard_id, shard_sid, shard_tid) for shard_sid, shard_tid
                     in self._pending_terminates.pop(shard_id, [])]
                    + [(shard_id, shard_sid, None) for shard_sid
                       in self._pending_closes.pop(shard_id, [])], now)

    def _on_up_shards(self, call: Callable[[_Shard], object]) -> list:
        """``call`` each up shard, by id; one that dies mid-call is marked
        down.  Returns the results."""
        results = []
        for shard in self._shards:
            if shard.shard_id not in self._down_shards:
                try:
                    results.append(call(shard))
                except ServiceClosed:
                    self._mark_down(shard.shard_id)
        return results

    # ------------------------------------------------------------------
    # Housekeeping
    # ------------------------------------------------------------------
    def tick(self, now_ms: Optional[float] = None) -> None:
        """Expire root leases; tick every *up* shard (flush due batches).

        Also retries shard-side terminates/closes queued during outages
        and writes the periodic root snapshot when one is due.
        """
        with self._lock:
            self._ensure_root_open()
            now = self._now(now_ms)
            self._expire(now)
            self._on_up_shards(lambda shard: shard.service.tick(now_ms=now))
            self._drain_pending(now)
            self._checkpoint()

    def flush(self, now_ms: Optional[float] = None) -> int:
        """Flush every up shard's admission window; returns total admitted."""
        with self._lock:
            self._ensure_root_open()
            now = self._now(now_ms)
            return sum(self._on_up_shards(
                lambda shard: shard.service.flush(now_ms=now)))

    # ------------------------------------------------------------------
    # Results: pump + merge
    # ------------------------------------------------------------------
    def subscribe(self, session_id: str, ticket_id: str,
                  maxsize: int = 0) -> SubscriberQueue:
        """A queue receiving this cluster ticket's merged results.

        LOCAL tickets delegate to the owning shard's subscription queue;
        FANOUT tickets get a root-side queue fed by the epoch-aligned
        merge, replaying the anchor's already-merged history first (a
        late subscriber to a deduplicated fan-out misses nothing, up to
        ``maxsize``: a bounded queue keeps the oldest items and the rest
        count in ``cluster.merge_duplicates_dropped_total``).

        Either way the queue is a :class:`~repro.service.SubscriberQueue`:
        ``get``/``get_nowait``/``qsize``/``empty`` behave as on
        :class:`queue.Queue`, but ``put`` never blocks (a full queue
        raises :class:`queue.Full`) and there is no ``task_done``/``join``.
        Its one producer is the owning shard's ``pump`` or this
        coordinator's merge, each under its own lock.
        """
        with self._lock:
            self._ensure_root_open()
            session = self._sessions.get(session_id)
            if ticket_id not in session.tickets:
                raise KeyError(
                    f"session {session_id!r} owns no ticket {ticket_id!r}")
            ticket = self._tickets[ticket_id]
            if ticket.scope == ClusterScope.LOCAL:
                shard = self._shard(ticket.targets[0])
                shard_sid = self._shard_sessions[session_id][shard.shard_id]
                return shard.service.subscribe(
                    shard_sid, ticket.shard_tickets[0].ticket_id,
                    maxsize=maxsize)
            anchor = self._anchors[ticket.fan_key]
            sink = SubscriberQueue(maxsize)
            watcher = _Watcher(ticket_id, ticket.query, sink)
            for item in anchor.merged:
                # A bounded late subscriber keeps the oldest ``maxsize``
                # items; the overflow is counted like _deliver's.
                try:
                    sink.put_nowait(self._view(watcher, item))
                except queue.Full:
                    self._counts.dup_dropped += 1
            anchor.watchers.append(watcher)
            return sink

    @staticmethod
    def _view(watcher: _Watcher, item):
        if isinstance(item, MappedRow):
            return item
        return user_aggregates_view(watcher.user_query, item)

    def pump(self, now_ms: Optional[float] = None, *,
             final: bool = False) -> int:
        """Pump every shard, then merge shard streams at the root.

        Returns items pushed to root subscribers.  Aggregate epochs are
        finalised once every target shard has reported them, or once two
        epoch durations have elapsed (late partials past that point are
        dropped and counted).  ``final=True`` finalises everything —
        call it once after a run's drain.
        """
        with self._lock:
            self._ensure_root_open()
            now = self._now(now_ms)
            self._expire(now)
            self._on_up_shards(lambda shard: shard.has_results
                               and shard.service.pump(now_ms=now))
            return self._merge(float("inf") if final else now)

    def _merge(self, cutoff: float) -> int:
        pushed = 0
        for anchor in self._anchors.values():
            for shard_id in sorted(anchor.queues):
                pushed += self._drain_shard(anchor, shard_id)
            pushed += self._finalize_aggregates(anchor, cutoff)
        return pushed

    def _anchor_completeness(self, anchor: _RootAnchor) -> float:
        """Fraction of the anchor's member shards currently answering."""
        members = anchor.targets or tuple(sorted(anchor.subtickets))
        if not members:
            return 1.0
        surviving = [s for s in members
                     if s not in self._down_shards
                     and s in anchor.subtickets]
        return len(surviving) / len(members)

    def _drain_shard(self, anchor: _RootAnchor, shard_id: int) -> int:
        pushed = 0
        shard_queue = anchor.queues[shard_id]
        frac = self._anchor_completeness(anchor)
        while True:
            try:
                item = shard_queue.get_nowait()
            except queue.Empty:
                break
            if isinstance(item, MappedRow):
                row_key = (item.epoch_time, item.origin)
                if row_key in anchor.seen_rows:
                    self._counts.dup_dropped += 1
                    continue
                anchor.seen_rows.add(row_key)
                if frac < 1.0:
                    # Degraded mode: the down shards' sensors cannot
                    # contribute to this epoch, and the row says so.
                    item = replace(item, completeness=frac)
                anchor.merged.append(item)
                self._counts.merged_rows += 1
                pushed += self._deliver(anchor, item)
            else:
                agg_key = (item.epoch_time, item.group_key)
                if agg_key in anchor.emitted:
                    self._counts.dup_dropped += 1
                    continue
                anchor.partials.setdefault(agg_key, {})[shard_id] = \
                    item.values
        return pushed

    def _finalize_aggregates(self, anchor: _RootAnchor,
                             cutoff: float) -> int:
        if not anchor.fan_query.is_aggregation:
            return 0
        pushed = 0
        members = anchor.targets or tuple(sorted(anchor.subtickets))
        surviving = [s for s in members
                     if s not in self._down_shards
                     and s in anchor.subtickets]
        total = max(len(members), 1)
        for agg_key in sorted(anchor.partials):
            epoch_time, group_key = agg_key
            reported = anchor.partials[agg_key]
            if len(reported) >= len(anchor.subtickets) and \
                    len(anchor.subtickets) >= total:
                completeness = 1.0
            elif (len(surviving) < total and surviving
                    and all(s in reported for s in surviving)):
                # Degraded mode: every *surviving* member has reported;
                # finalise now with the shortfall stamped instead of
                # stalling the stream on the 2-epoch cutoff below.
                completeness = len(reported) / total
            elif epoch_time + 2 * anchor.fan_query.epoch_ms > cutoff:
                continue
            else:
                # Cutoff-expired epoch.  Merely-late partials from *up*
                # shards keep the legacy behaviour (full completeness,
                # late arrivals counted as duplicates when they land).
                missing_down = any(
                    s not in reported and
                    (s in self._down_shards or s not in anchor.subtickets)
                    for s in members)
                completeness = (len(reported) / total
                                if missing_down else 1.0)
            values = combine_shard_aggregates(
                anchor.fan_query, anchor.partials.pop(agg_key).values())
            merged = MappedAggregates(epoch_time, values, group_key,
                                      completeness=completeness)
            if completeness < 1.0:
                self._counts.degraded += 1
            anchor.emitted.add(agg_key)
            anchor.merged.append(merged)
            self._counts.merged_aggs += 1
            pushed += self._deliver(anchor, merged)
        return pushed

    def _deliver(self, anchor: _RootAnchor, item) -> int:
        pushed = 0
        for watcher in anchor.watchers:
            try:
                watcher.sink.put_nowait(self._view(watcher, item))
                pushed += 1
            except queue.Full:
                self._counts.dup_dropped += 1
        return pushed

    # ------------------------------------------------------------------
    # Shutdown / durability
    # ------------------------------------------------------------------
    def shutdown(self, now_ms: Optional[float] = None) -> List[str]:
        """Release every cluster ticket and every anchor no ticket
        references, then shut every shard down."""
        with self._lock:
            now = self._now(now_ms)
            terminated = [ticket_id for ticket_id in sorted(self._tickets)
                          if not self._tickets[ticket_id].terminated]
            self._release(self._shutdown(), now)
            self._journal({"op": "shutdown", "now": now})
            self._on_up_shards(
                lambda shard: shard.service.shutdown(now_ms=now))
            if self._root_journal is not None:
                self._checkpoint(now, force=True)
                self._root_journal.close()
                self._root_journal = None
            return terminated

    def simulate_crash(self) -> None:
        """Drop the coordinator as SIGKILL would (crash-test hook).

        Only root-side state dies: the shards keep their own WALs and
        crash (or survive) independently.  The ``cluster.*`` series stop
        reading this coordinator, and every subsequent public call raises
        :class:`ServiceClosed`; rebuild with :meth:`recover`.
        """
        with self._lock:
            unbind(self._bindings)
            if self._root_journal is not None:
                self._root_journal.close()
                self._root_journal = None
            self._crashed = True

    @classmethod
    def recover(cls, backends: Sequence,
                durability_dir: Union[str, Path], *,
                partition: Optional[FieldPartition] = None,
                batch_window_ms: float = 0.0,
                default_ttl_ms: float = DEFAULT_TTL_MS,
                clock: Optional[Callable[[], float]] = None,
                overload: Optional[OverloadConfig] = None,
                vnodes: int = DEFAULT_VNODES,
                services: Optional[Sequence[QueryService]] = None
                ) -> "ClusterCoordinator":
        """Rebuild a coordinator from the durability directories.

        Every shard recovers independently (snapshot + WAL replay, PR 5
        machinery) unless already-recovered ``services`` are supplied
        (coordinator-only crash: the shard processes never died).  The
        root then restores its *own* bookkeeping — sessions, tickets,
        anchors, refcounts — from the root snapshot, and decodes each
        root WAL record into the transition its live operation runs.  One
        relink per shard resolves the recovered shard ticket ids into live
        handles, and a sweep ends what the shards still run that no root
        record claims (:meth:`_sweep`).  A directory without a root
        journal raises ``ValueError`` before any shard is touched: the
        constructor writes the root boot record before acknowledging any
        operation, so such a directory was never a coordinator's.
        """
        root = Path(durability_dir)
        config = _root_config(root)
        if not (config.snapshot_path.exists() or config.wal_path.exists()):
            raise ValueError(
                f"{str(root)!r} holds no coordinator journal (no "
                f"{ROOT_DIR_NAME}/ WAL or snapshot); refusing to recover")
        if services is None:
            services = [QueryService.recover(
                backend, root / f"shard-{shard_id:02d}",
                clock=clock, overload=overload)
                for shard_id, backend in enumerate(backends)]
        coordinator = cls(backends, partition=partition,
                          batch_window_ms=batch_window_ms,
                          default_ttl_ms=default_ttl_ms, clock=clock,
                          overload=overload, vnodes=vnodes,
                          services=services)
        backlog = Journal.load(config)
        if backlog.snapshot is not None:
            coordinator._restore_root_snapshot(backlog.snapshot)
        # No journal is attached yet, so replay logs nothing.
        report, seq = backlog.replay(coordinator._apply_root_record)
        report.reinjected = sum(coordinator._relink(shard_id)
                                for shard_id in range(coordinator.n_shards))
        report.zombies_aborted = coordinator._sweep()
        coordinator._root_journal = Journal(config, seq=seq,
                                            snapshot_dir_fsync=True)
        coordinator._checkpoint(force=True)
        counts = coordinator._counts
        counts.root_recoveries += 1
        counts.root_replayed += report.replayed_ops
        counts.root_torn += report.torn_records
        coordinator.last_root_recovery = report
        return coordinator

    def _restore_root_snapshot(self, state: dict) -> None:
        self._fan_seq = int(state.get("fan_seq", 0))
        self._sessions.restore(state.get("sessions", {}))
        self._shard_sessions = {
            sid: {int(shard_id): shard_sid
                  for shard_id, shard_sid in per.items()}
            for sid, per in state.get("shard_sessions", {}).items()}
        self._root_sessions = {
            int(shard_id): shard_sid
            for shard_id, shard_sid in state.get("root_sessions",
                                                 {}).items()}
        for payload in state.get("tickets", []):
            ticket = self._ticket_from_dict(payload)
            self._tickets[ticket.ticket_id] = ticket
        for payload in state.get("anchors", []):
            anchor = self._anchor_from_dict(payload["fan_query"],
                                            payload["targets"],
                                            payload["subtickets"])
            self._anchors[anchor.key] = anchor
            self._root_cache.insert(anchor.key, anchor.fan_query)
        for ticket in self._tickets.values():
            if (ticket.scope == ClusterScope.FANOUT
                    and not ticket.terminated
                    and ticket.fan_key in self._anchors):
                entry = self._root_cache.lookup(ticket.fan_key)
                self._root_cache.acquire(entry)
        self._pending_terminates = {
            int(shard_id): [(sid, int(tid)) for sid, tid in pairs]
            for shard_id, pairs in state.get("pending_terminates",
                                             {}).items()}
        self._pending_closes = {
            int(shard_id): list(sids)
            for shard_id, sids in state.get("pending_closes", {}).items()}

    def _apply_root_record(self, rec: dict) -> None:
        """Decode one root WAL record and run its transition.  The
        releases a transition returns are not run: :meth:`_sweep` finds
        every one the crash cut short."""
        op = rec.get("op")
        if op == "open":
            session = self._sessions.open(rec["client"], rec["now"],
                                          rec["ttl"])
            if session.session_id != rec["sid"]:
                raise ValueError(
                    f"root WAL replay regenerated session "
                    f"{session.session_id!r}, expected {rec['sid']!r}")
        elif op == "renew":
            self._sessions.renew(rec["sid"], rec["now"], rec.get("ttl"))
        elif op == "close":
            self._close(rec["sid"])
        elif op == "expire":
            self._expire_sessions(rec["sids"])
        elif op in ("shard_session", "root_session"):
            self._adopt_shard_session(rec.get("sid"), int(rec["shard"]),
                                      rec["shard_sid"])
        elif op == "submit":
            payload = rec["ticket"]
            ticket = self._ticket_from_dict(payload)
            anchor = None
            if (ticket.fan_key is not None
                    and ticket.fan_key not in self._anchors):
                anchor = self._anchor_from_dict(payload["fan_query"],
                                                ticket.targets,
                                                rec.get("anchor_subs", {}))
            self._admit(ticket, anchor)
        elif op == "terminate":
            self._terminate(self._tickets[rec["ticket_id"]])
        elif op == "fanout_sub":
            key = canonical_key(query_from_dict(rec["fan_query"]))
            if key in self._anchors:
                self._anchors[key].sub_ids[int(rec["shard"])] = \
                    int(rec["shard_ticket"])
        elif op == "abort_orphans":
            self._abort_orphans()
        elif op == "shutdown":
            self._shutdown()
        else:
            raise ValueError(f"unknown root WAL op {op!r}")

    # ------------------------------------------------------------------
    # Root transitions.  Each root WAL record kind changes root state
    # through one of these (``open``/``renew`` through the
    # SessionManager's own), called by the live operation after its
    # shard-side calls and its record, and by the replay after decoding
    # the record.  None calls a shard: the shard-side releases a
    # transition implies are returned, for the live operation to run.
    # ------------------------------------------------------------------
    def _adopt_shard_session(self, session_id: Optional[str], shard_id: int,
                             shard_sid: str) -> None:
        """``shard_session``: a tenant's session on a shard;
        ``root_session`` (``session_id`` None): the root's own."""
        if session_id is None:
            self._root_sessions[shard_id] = shard_sid
        else:
            self._shard_sessions.setdefault(session_id, {})[shard_id] = \
                shard_sid

    def _admit(self, ticket: ClusterTicket,
               anchor: Optional[_RootAnchor]) -> None:
        """``submit``: register the ticket.  A fan-out takes a reference
        on its anchor, which ``anchor`` brings when the fan-out is new."""
        self._sessions.get(ticket.session_id).tickets.add(ticket.ticket_id)
        self._tickets[ticket.ticket_id] = ticket
        if ticket.scope == ClusterScope.FANOUT:
            self._fan_seq += 1
            if anchor is None:
                entry = self._root_cache.lookup(ticket.fan_key)
            else:
                self._anchors[anchor.key] = anchor
                entry = self._root_cache.insert(anchor.key, anchor.fan_query)
            self._root_cache.acquire(entry)

    def _terminate(self, ticket: ClusterTicket) -> List[_Release]:
        """``terminate``: end the ticket and drop it from its session."""
        releases = self._end_ticket(ticket)
        self._sessions.get(ticket.session_id).tickets.discard(
            ticket.ticket_id)
        return releases

    def _close(self, session_id: str) -> List[_Release]:
        """``close``: end the session's tickets, then drop it and its
        shard sessions."""
        session = self._sessions.get(session_id)
        releases: List[_Release] = []
        for ticket_id in sorted(session.tickets):
            releases += self._end_ticket(self._tickets[ticket_id])
        session.tickets.clear()
        releases += [(shard_id, shard_sid, None) for shard_id, shard_sid
                     in sorted(self._shard_sessions.pop(session_id,
                                                        {}).items())]
        self._sessions.close(session_id)
        return releases

    def _expire_sessions(self, session_ids: List[str]) -> List[_Release]:
        """``expire``: close each lapsed session."""
        releases: List[_Release] = []
        for session_id in session_ids:
            releases += self._close(session_id)
            self._sessions.expired_total += 1
        return releases

    def _abort_orphans(self) -> List[_Release]:
        """``abort_orphans``: drop every anchor no live ticket references."""
        releases: List[_Release] = []
        for key in self.orphan_anchors():
            # insert() left refcount 0; bump to 1 so release() drops the
            # entry through the ordinary path.
            self._root_cache.acquire(self._root_cache.lookup(key))
            self._root_cache.release(key)
            releases += self._drop_anchor(key)
        return releases

    def _shutdown(self) -> List[_Release]:
        """``shutdown``: end every ticket, then drop the anchors left
        without a reference, as :meth:`abort_orphans` would."""
        releases: List[_Release] = []
        for ticket_id in sorted(self._tickets):
            releases += self._end_ticket(self._tickets[ticket_id])
        return releases + self._abort_orphans()

    def _end_ticket(self, ticket: ClusterTicket) -> List[_Release]:
        """Release a ticket's root bookkeeping exactly once: a shard
        outage must not leave it half-terminated, so its shard-side
        terminates are returned for :meth:`_release` to run or queue."""
        if ticket.terminated:
            return []
        ticket.terminated = True
        if ticket.scope == ClusterScope.LOCAL:
            shard_id = ticket.targets[0]
            shard_sid = self._shard_sessions.get(ticket.session_id,
                                                 {}).get(shard_id)
            return [(shard_id, shard_sid, _local_shard_ticket(ticket))]
        anchor = self._anchors[ticket.fan_key]
        anchor.watchers = [w for w in anchor.watchers
                           if w.ticket_id != ticket.ticket_id]
        if self._root_cache.release(ticket.fan_key) is None:
            return []
        return self._drop_anchor(ticket.fan_key)

    def _drop_anchor(self, key: CanonicalKey) -> List[_Release]:
        anchor = self._anchors.pop(key)
        anchor.queues.clear()
        return [(shard_id, self._root_sessions.get(shard_id), shard_tid)
                for shard_id, shard_tid in sorted(anchor.sub_ids.items())]

    # ------------------------------------------------------------------
    # Relink and sweep (recovery and shard healing)
    # ------------------------------------------------------------------
    def _link(self, anchor: _RootAnchor, shard: _Shard, sub: Ticket) -> int:
        """Make ``sub`` the anchor's subquery on ``shard`` and feed the
        merge from it; returns 1 when a merge queue was subscribed."""
        anchor.subtickets[shard.shard_id] = sub
        anchor.queues.pop(shard.shard_id, None)
        if not shard.has_results or sub.status not in (TicketStatus.LIVE,
                                                       TicketStatus.PENDING):
            return 0
        try:
            anchor.queues[shard.shard_id] = shard.service.subscribe(
                self._root_sessions.get(shard.shard_id), sub.ticket_id,
                maxsize=0)
        except (KeyError, ValueError):
            return 0
        return 1

    def _relink(self, shard_id: int) -> int:
        """Point the root at ``shard_id``'s current service: link each
        anchor's journaled subquery there (one the service does not hold
        stays unlinked), then refresh every live ticket it serves.
        Returns the merge queues subscribed."""
        shard = self._shard(shard_id)
        subscribed = 0
        for anchor in self._anchors.values():
            try:
                sub = shard.service.ticket(anchor.sub_ids.get(shard_id))
            except KeyError:
                anchor.subtickets.pop(shard_id, None)
                anchor.queues.pop(shard_id, None)
                continue
            subscribed += self._link(anchor, shard, sub)
        for ticket in self._tickets.values():
            if ticket.terminated or shard_id not in ticket.targets:
                continue
            if ticket.scope == ClusterScope.LOCAL:
                try:
                    ticket.shard_tickets = (shard.service.ticket(
                        _local_shard_ticket(ticket)),)
                except KeyError:
                    pass  # lost with the shard; the old handle stays
            else:
                anchor = self._anchors[ticket.fan_key]
                ticket.shard_tickets = tuple(
                    anchor.subtickets[s] for s in ticket.targets
                    if s in anchor.subtickets)
        return subscribed

    def _sweep(self) -> int:
        """End what the shards run that no root record claims; returns
        the shard tickets ended.

        A coordinator-owned shard session (leased for ``ROOT_TTL_MS``)
        that is neither a tenant's nor the root's own is closed: a
        replayed close/expire released it before the crash cut its
        shard-side close short, or the crash came between the shard's
        ``open_session`` and the root's record of it.  A shard ticket
        under a held session that no anchor or live ticket claims is
        terminated: a replayed terminate released it, or its submit died
        before the root's record.
        """
        now = self._clock()
        ended = 0
        for shard in self._shards:
            shard_id, service = shard.shard_id, shard.service
            held = {self._root_sessions.get(shard_id)}
            held.update(per.get(shard_id)
                        for per in self._shard_sessions.values())
            claimed = {anchor.sub_ids.get(shard_id)
                       for anchor in self._anchors.values()}
            claimed.update(
                _local_shard_ticket(ticket)
                for ticket in self._tickets.values()
                if not ticket.terminated and ticket.targets == (shard_id,)
                and ticket.scope == ClusterScope.LOCAL)
            live = len(service.live_tickets())
            try:
                for session in service.sessions():
                    if (session.ttl_ms == ROOT_TTL_MS
                            and session.session_id not in held):
                        service.close_session(session.session_id,
                                              now_ms=now)
                for sub in service.live_tickets():
                    if (sub.session_id in held
                            and sub.ticket_id not in claimed):
                        service.terminate(sub.session_id, sub.ticket_id,
                                          now_ms=now)
            except (KeyError, ServiceClosed):
                continue
            ended += live - len(service.live_tickets())
        return ended

    def orphan_anchors(self) -> List[CanonicalKey]:
        """Fan-out anchors no live tenant references (post-recovery)."""
        with self._lock:
            return [key for key, entry in self._root_cache.entries().items()
                    if entry.refcount == 0]

    def abort_orphans(self, now_ms: Optional[float] = None) -> int:
        """Terminate unreferenced fan-out anchors; returns the count."""
        with self._lock:
            now = self._now(now_ms)
            aborted = len(self.orphan_anchors())
            if aborted:
                self._release(self._abort_orphans(), now)
                self._journal({"op": "abort_orphans", "now": now})
                self._checkpoint()
            return aborted

    # ------------------------------------------------------------------
    # Shard healing (supervisor hooks)
    # ------------------------------------------------------------------
    def replace_shard_service(self, shard_id: int,
                              service: QueryService,
                              now_ms: Optional[float] = None) -> None:
        """Swap in a recovered/promoted service for a down shard.

        Resubmits the fan query of every anchor whose subquery the
        replacement lost (or never had), relinks the shard (anchors'
        subtickets and merge queues, tenant ticket handles), and drains
        the terminates/closes queued during the outage.
        """
        with self._lock:
            now = self._now(now_ms)
            shard = self._shard(shard_id)
            service.name = shard.name
            shard.service = service
            self._down_shards.discard(shard_id)
            # Shard sessions the replacement lost are dropped, so the
            # next use reopens (and journals) a fresh one.
            if (self._root_sessions.get(shard_id)
                    not in service.find_sessions(ROOT_CLIENT)):
                self._root_sessions.pop(shard_id, None)
            for per in self._shard_sessions.values():
                shard_sid = per.get(shard_id)
                if shard_sid is not None:
                    try:
                        service.renew_session(shard_sid, now_ms=now)
                    except Exception:
                        per.pop(shard_id, None)
            for key in sorted(self._anchors, key=repr):
                anchor = self._anchors[key]
                if shard_id not in anchor.targets:
                    continue
                try:
                    service.ticket(anchor.sub_ids.get(shard_id))
                    continue
                except KeyError:
                    pass
                try:
                    sub = service.submit(self._shard_session(shard, now),
                                         anchor.fan_query, now_ms=now)
                except ServiceClosed:
                    self._mark_down(shard_id)
                    return
                self._counts.subqueries += 1
                self._journal({
                    "op": "fanout_sub", "shard": shard_id,
                    "fan_query": query_to_dict(anchor.fan_query),
                    "shard_ticket": sub.ticket_id, "now": now})
                anchor.sub_ids[shard_id] = sub.ticket_id
            self._relink(shard_id)
            self._drain_pending(now)

    def shard_backends(self) -> List[object]:
        """The per-shard backends, by shard id (supervisor restarts)."""
        return [shard.backend for shard in self._shards]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self._shards)

    def shard_services(self) -> List[QueryService]:
        """The per-shard services, by shard id (tests, load scripts)."""
        return [shard.service for shard in self._shards]

    def ticket(self, ticket_id: str) -> ClusterTicket:
        """Look up a cluster ticket; raises ``KeyError`` if unknown."""
        with self._lock:
            ticket = self._tickets.get(ticket_id)
            if ticket is None:
                raise KeyError(f"unknown cluster ticket {ticket_id!r}")
            return ticket

    def stats(self) -> ClusterStats:
        """Coordinator counters plus one ``ServiceStats`` per shard."""
        with self._lock:
            counts = self._counts
            return ClusterStats(
                shards=len(self._shards),
                sessions_open=len(self._sessions),
                sessions_opened_total=self._sessions.opened_total,
                sessions_expired_total=self._sessions.expired_total,
                submissions_total=counts.local + counts.fanout,
                local_submissions=counts.local,
                fanout_submissions=counts.fanout,
                fanout_subqueries=counts.subqueries,
                root_dedup_hits=counts.dedup,
                live_anchors=len(self._anchors),
                merged_rows=counts.merged_rows,
                merged_aggregates=counts.merged_aggs,
                merge_duplicates_dropped=counts.dup_dropped,
                per_shard=tuple(shard.service.stats()
                                for shard in self._shards),
                shards_down=len(self._down_shards),
            )

    def validate(self) -> None:
        """Cross-tier invariants (stress/crash-test hooks)."""
        with self._lock:
            for shard in self._shards:
                if shard.shard_id in self._down_shards:
                    continue
                shard.service.validate()
            live_by_key: Dict[CanonicalKey, int] = {}
            for ticket in self._tickets.values():
                if (ticket.scope == ClusterScope.FANOUT
                        and not ticket.terminated):
                    live_by_key[ticket.fan_key] = \
                        live_by_key.get(ticket.fan_key, 0) + 1
            for key, entry in self._root_cache.entries().items():
                expected = live_by_key.get(key, 0)
                assert entry.refcount == expected, (
                    f"root refcount {entry.refcount} != live fan-out "
                    f"tickets {expected} for {key}")
                assert key in self._anchors, f"cache entry without anchor"
