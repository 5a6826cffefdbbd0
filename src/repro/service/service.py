"""The multi-tenant query service fronting the base-station optimizer.

:class:`QueryService` is the admission front-end the ROADMAP's
"millions of users" need: user-facing *sessions* and *tickets* on top of
the tier-1 optimizer's query table.  One instance serves many concurrent
clients; a single re-entrant lock serializes all state transitions, so it
is safe to drive from many threads (wall clock) or from scheduled
simulator events (virtual clock).

The pipeline per submission::

    text --parse+canonicalize--> pending --batch window--> flush:
        cache hit  -> attach to anchor (refcount), no tier-1 work
        cache miss -> one optimizer.register() (Algorithm 1)

and symmetrically on termination the anchor query is only released — and
Algorithm 2 only run — when the *last* duplicate holder lets go.

The service keeps its counts as plain integer fields, and every counter
series of the metrics registry current at construction time reads them
(``service.*``, ``resilience.*`` and ``planner.*`` families, see
``docs/observability.md``).  :class:`ServiceStats` reads the same fields,
and a series bound to several live services reads their sum, so
``stats()`` and ``python -m repro obs`` can never disagree.

Results flow back through :meth:`pump`: every anchor with caught-up
subscribed tickets keeps one :class:`DeliveryCursor` into the append-only
result log, and a pump maps only what the anchor's synthetic queries
(across the whole re-optimization history, via :class:`ResultMapper`)
gained since the last one — once per anchor, like the paper's mapping
from one synthetic query to many user queries — fanning the same new
rows/aggregates out to every subscriber queue of those tickets.  A newly
subscribed ticket first catches up from a cursor of its own, then joins
its anchor's.
"""

from __future__ import annotations

import enum
import math
import queue
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Set, Union

from ..core.basestation import (
    BaseStationOptimizer,
    DeliveryCursor,
    ResultMapper,
)
from ..core.qos import QoSClass
from ..obs import Counts, Histogram, bind_counts, get_registry, scoped, unbind
from ..queries.ast import QidAllocator, Query, query_from_dict, query_to_dict
from ..queries.canonical import CanonicalKey, canonical_key, canonicalize
from ..queries.parser import parse_query
from .admission import AdmissionBatcher, PendingAdmission
from .cache import CanonicalQueryCache
from .durability import (
    FORMAT_VERSION,
    DurabilityConfig,
    Journal,
    RecoveryReport,
)
from .overload import BreakerState, CircuitBreaker, OverloadConfig
from .planner import (
    ExplainReport,
    PlannerStats,
    QueryPlanner,
    TenantQuotas,
)
from .session import DEFAULT_TTL_MS, Session, SessionError, SessionManager
from .subscriber import SubscriberQueue

#: Keep at most this many admission-latency samples (most recent) in the
#: exported ``service.admission_latency_ms`` histogram.
LATENCY_SAMPLE_CAP = 10_000

#: The most recent admission latencies the p95 shedding brake and
#: ``stats()``'s p50/p95 read (the 95th percentile of 256 is the 13th
#: largest).  A snapshot carries them, so they are bounded like the
#: retired ring, not by the exported histogram's cap.
LATENCY_WINDOW = 256

#: How many let-go terminal tickets :meth:`QueryService.ticket` still
#: answers for; the oldest tombstone is evicted first.  Clients look a
#: retired ticket up soon after it ended: the farthest any test under
#: ``tests/`` reads back (other than the ones probing the bound) is 89
#: retirements.  Every snapshot encodes the whole ring, about 3 us a
#: row, so the bound is that distance with room to spare, not more.
RETIRED_RING_SIZE = 256

#: ``(field, family, help, labels)`` of the counters labelled with the
#: service's ``instance`` name; each series reads the field of that name.
_INSTANCE_COUNTERS = (
    ("submissions", "service.submissions_total",
     "queries submitted by clients", {}),
    ("admitted", "service.admitted_total", "tickets that went live", {}),
    ("registrations", "service.registrations_total",
     "tier-1 optimizer passes (cache misses)", {}),
    ("injected", "service.registrations_injected_total",
     "registrations that caused network operations", {}),
    ("absorbed", "service.registrations_absorbed_total",
     "registrations absorbed at the base station", {}),
    ("terminations", "service.terminations_total",
     "live tickets terminated (user, close, or lease expiry)", {}),
    ("delivered", "service.results_delivered_total",
     "mapped result items fanned out to subscribers", {}),
    ("mapped", "service.pump_items_mapped_total",
     "items the result mapper produced for pump, before the "
     "already-delivered filter", {}),
    ("explains", "planner.explains_total", "EXPLAIN requests served", {}),
    ("quota_rejections", "planner.quota_rejections_total",
     "submissions rejected by per-tenant cost quotas", {}),
    ("cost_sheds", "planner.cost_sheds_total",
     "pending submissions evicted by cost-weighted shedding", {}),
)
#: The ``resilience.*`` counters; every service shares their series.
#: The fields are named as in :class:`ResilienceStats`.
_RESILIENCE_COUNTERS = (
    ("wal_records", "resilience.wal_records_total",
     "operations appended to the write-ahead log", {}),
    ("wal_torn_records", "resilience.wal_torn_records_total",
     "torn/corrupt WAL tail records discarded by recovery", {}),
    ("wal_stale_records", "resilience.wal_stale_records_total",
     "stale WAL records skipped by recovery because the snapshot already "
     "contained them (crash between snapshot save and WAL rotation)", {}),
    ("snapshots", "resilience.snapshots_total",
     "service state snapshots written", {}),
    ("recoveries", "resilience.recoveries_total",
     "successful recover() calls", {}),
    ("replayed_ops", "resilience.replayed_ops_total",
     "WAL operations replayed during recovery", {}),
    ("shed_best_effort", "resilience.shed_total",
     "submissions shed by overload protection", {"qos": "best-effort"}),
    ("shed_reliable", "resilience.shed_total",
     "submissions shed by overload protection", {"qos": "reliable"}),
    ("deadline_shed", "resilience.deadline_shed_total",
     "pending submissions shed past their submit deadline", {}),
    ("subscriber_drops", "resilience.subscriber_dropped_total",
     "result items dropped on full subscriber queues", {}),
    ("breaker_opens", "resilience.breaker_opens_total",
     "circuit-breaker open transitions", {}),
    ("passthrough_registrations",
     "resilience.passthrough_registrations_total",
     "degraded-mode registrations (breaker open)", {}),
    ("reinjected", "resilience.reinjected_total",
     "synthetic queries re-disseminated by recovery", {}),
    ("zombie_aborts", "resilience.zombie_aborts_total",
     "zombie network queries aborted by recovery", {}),
)
#: The workload counts a snapshot carries (restored by recovery).
_SNAPSHOT_COUNTERS = ("submissions", "admitted", "registrations",
                      "injected", "absorbed", "terminations", "delivered")


class _Counts(Counts):
    __slots__ = tuple(row[0]
                      for row in _INSTANCE_COUNTERS + _RESILIENCE_COUNTERS)


def _wall_clock_ms() -> Callable[[], float]:
    """A wall clock in ms starting at 0 when the service is built.

    Keeping service time zero-based matches simulator virtual time, so
    explicit ``now_ms`` values and the default clock interoperate.
    """
    t0 = time.monotonic()
    return lambda: (time.monotonic() - t0) * 1000.0


def _coerce_durability(
        durability: Union[DurabilityConfig, str, Path]) -> DurabilityConfig:
    if isinstance(durability, DurabilityConfig):
        return durability
    return DurabilityConfig(directory=str(durability))


class OptimizerBackend:
    """Adapter running a bare :class:`BaseStationOptimizer` (no network).

    Gives the service the same control-plane interface as a simulated
    :class:`~repro.harness.strategies.Deployment` — used by the stress
    tests and benchmarks, where packet-level results are irrelevant.
    """

    #: No simulated network, hence no result log to map from.
    results = None

    def __init__(self, optimizer: BaseStationOptimizer) -> None:
        self.optimizer = optimizer

    def register(self, query: Query,
                 qos: QoSClass = QoSClass.BEST_EFFORT) -> None:
        """Run Algorithm 1 for ``query`` on the wrapped optimizer."""
        self.optimizer.register(query, qos=qos)

    def register_passthrough(self, query: Query,
                             qos: QoSClass = QoSClass.BEST_EFFORT) -> None:
        """Admit ``query`` unmerged (circuit-breaker degraded mode)."""
        self.optimizer.register_passthrough(query, qos=qos)

    def terminate(self, qid: int) -> None:
        """Run Algorithm 2 for user query ``qid``."""
        self.optimizer.terminate(qid)


class ServiceClosed(RuntimeError):
    """Raised for admission calls after :meth:`QueryService.shutdown`."""


class TicketStatus(enum.Enum):
    PENDING = "pending"        # queued in the admission batch window
    LIVE = "live"              # admitted; anchor query running
    TERMINATED = "terminated"  # user terminated
    EXPIRED = "expired"        # lease lapsed; service terminated it
    FAILED = "failed"          # optimizer rejected the anchor registration
    SHED = "shed"              # dropped by overload protection


@dataclass
class Ticket:
    """One user's handle on one submitted query."""

    ticket_id: int
    session_id: str
    #: Canonical form of what the user submitted.
    query: Query
    key: CanonicalKey
    submitted_ms: float
    status: TicketStatus = TicketStatus.PENDING
    #: The shared anchor query serving this ticket (set on admission).
    anchor: Optional[Query] = None
    admitted_ms: Optional[float] = None
    cache_hit: bool = False
    error: Optional[str] = None

    @property
    def anchor_qid(self) -> Optional[int]:
        return self.anchor.qid if self.anchor is not None else None

    @property
    def admission_latency_ms(self) -> Optional[float]:
        if self.admitted_ms is None:
            return None
        return self.admitted_ms - self.submitted_ms

    @property
    def terminated(self) -> bool:
        """Whether the ticket reached a terminal status."""
        return self.status not in (TicketStatus.PENDING, TicketStatus.LIVE)


class RetiredTicket(NamedTuple):
    """What the service remembers of a ticket after its terminal status.

    The query and the anchor are gone with the ticket; the tombstone
    answers ``ticket(id)``'s status questions until the retired ring
    evicts it.  The service keeps it as its compact row (:func:`_row`),
    which is also its snapshot encoding.
    """

    ticket_id: int
    session_id: str
    status: TicketStatus
    error: Optional[str]
    cache_hit: bool
    submitted_ms: float
    admitted_ms: Optional[float]

    terminated = True

    @classmethod
    def from_row(cls, row: list) -> "RetiredTicket":
        ticket_id, session_id, status, error, cache_hit, submitted, \
            admitted = row
        return cls(int(ticket_id), session_id, TicketStatus(status), error,
                   bool(cache_hit), float(submitted), admitted)


def _row(ticket: Ticket) -> list:
    """A terminal ticket's tombstone: one JSON array, in the order of
    :class:`RetiredTicket`'s fields."""
    return [ticket.ticket_id, ticket.session_id, ticket.status.value,
            ticket.error, ticket.cache_hit, ticket.submitted_ms,
            ticket.admitted_ms]


def _ticket_to_dict(ticket: Ticket) -> dict:
    """JSON-safe ticket encoding for the durability snapshot."""
    return {
        "ticket_id": ticket.ticket_id,
        "session_id": ticket.session_id,
        "query": query_to_dict(ticket.query),
        "submitted_ms": ticket.submitted_ms,
        "status": ticket.status.value,
        "anchor": (query_to_dict(ticket.anchor)
                   if ticket.anchor is not None else None),
        "admitted_ms": ticket.admitted_ms,
        "cache_hit": ticket.cache_hit,
        "error": ticket.error,
    }


def _ticket_from_dict(payload: dict) -> Ticket:
    query = query_from_dict(payload["query"])
    return Ticket(
        ticket_id=int(payload["ticket_id"]),
        session_id=payload["session_id"],
        query=query,
        key=canonical_key(query),
        submitted_ms=float(payload["submitted_ms"]),
        status=TicketStatus(payload["status"]),
        anchor=(query_from_dict(payload["anchor"])
                if payload["anchor"] is not None else None),
        admitted_ms=payload["admitted_ms"],
        cache_hit=bool(payload["cache_hit"]),
        error=payload["error"],
    )


class _SharedCursor(NamedTuple):
    """One anchor's delivery cursor, read once per pump for its tickets."""

    anchor: Query
    cursor: DeliveryCursor
    #: The caught-up LIVE subscribed tickets reading through ``cursor``.
    tickets: Set[int]


@dataclass(frozen=True)
class ServiceStats:
    """One consistent snapshot of the service's counters."""

    sessions_open: int
    sessions_opened_total: int
    sessions_expired_total: int
    submissions_total: int
    admitted_total: int
    pending: int
    cache_hits: int
    cache_misses: int
    cache_hit_rate: float
    live_cached_queries: int
    registrations: int
    injected_registrations: int
    absorbed_registrations: int
    terminations: int
    admission_latency_p50_ms: float
    admission_latency_p95_ms: float
    batches_flushed: int
    max_batch_size: int
    live_tickets: int
    live_user_queries: int
    live_synthetic_queries: int
    network_operations: int
    absorbed_operations: int
    results_delivered: int
    #: The backend simulation's ``recovery.*`` tally; zero for backends
    #: without a simulated network.
    recovery_app_retries: int = 0
    recovery_evictions: int = 0
    recovery_readmissions: int = 0
    recovery_redisseminations: int = 0
    #: Graceful-degradation score from the backend deployment (1.0 when
    #: the backend has no network or nothing measurable).
    row_completeness: float = 1.0

    @property
    def admissions_without_inject(self) -> int:
        """Admissions absorbed at the service/base station (no inject)."""
        return self.admitted_total - self.injected_registrations

    @property
    def absorbed_admission_rate(self) -> float:
        if self.admitted_total == 0:
            return 0.0
        return self.admissions_without_inject / self.admitted_total


@dataclass(frozen=True)
class ResilienceStats:
    """Durability/overload counters (``resilience.*`` metric families).

    Deliberately separate from :class:`ServiceStats`: these describe what
    the *infrastructure* did (WAL appends, sheds, breaker trips, recovery
    work), while ``stats()`` describes the workload — so a crashed-and-
    recovered service reaches exact ``stats()`` parity with an uncrashed
    run even though its resilience counters necessarily differ.
    """

    wal_records: int
    wal_torn_records: int
    wal_stale_records: int
    snapshots: int
    recoveries: int
    replayed_ops: int
    shed_best_effort: int
    shed_reliable: int
    deadline_shed: int
    subscriber_drops: int
    breaker_state: str
    breaker_opens: int
    passthrough_registrations: int
    reinjected: int
    zombie_aborts: int

    @property
    def shed_total(self) -> int:
        return self.shed_best_effort + self.shed_reliable


class QueryService:
    """Thread-safe, multi-tenant admission front-end over tier-1.

    ``backend`` is anything with ``optimizer``, ``register(query, qos=)``,
    ``terminate(qid)`` and (optionally) ``results``: a harness
    :class:`Deployment` for full simulated runs, or
    :class:`OptimizerBackend` for pure tier-1 serving.

    ``clock`` supplies "now" in milliseconds; the default is the wall
    clock.  Every public method also accepts an explicit ``now_ms`` so the
    service can run on simulator virtual time
    (``clock=lambda: deployment.sim.now``).
    """

    def __init__(self, backend, *, batch_window_ms: float = 0.0,
                 default_ttl_ms: float = DEFAULT_TTL_MS,
                 clock: Optional[Callable[[], float]] = None,
                 durability: Optional[Union[DurabilityConfig, str, Path]] = None,
                 overload: Optional[OverloadConfig] = None,
                 planner: Optional[QueryPlanner] = None,
                 quotas: Optional[TenantQuotas] = None,
                 name: str = "") -> None:
        if getattr(backend, "optimizer", None) is None:
            raise ValueError(
                "QueryService needs a tier-1 backend (backend.optimizer is "
                "None; use Strategy.TTMQO or BS_ONLY, or OptimizerBackend)")
        self._name = name
        self._backend = backend
        self._clock = clock or _wall_clock_ms()
        self._lock = threading.RLock()
        self._sessions = SessionManager(default_ttl_ms)
        self._cache = CanonicalQueryCache()
        self._batcher = AdmissionBatcher(batch_window_ms)
        #: The ledger: PENDING and LIVE tickets only.  A terminal ticket
        #: leaves it as a tombstone row (see :meth:`_retire`): ``_held``
        #: while its session still lists it (shed and failed tickets,
        #: until the client terminates them or the session ends), then
        #: the retired ring ``_retired``, oldest first, at most
        #: :data:`RETIRED_RING_SIZE` of them.
        self._tickets: Dict[int, Ticket] = {}
        self._held: Dict[int, list] = {}
        self._retired: "OrderedDict[int, list]" = OrderedDict()
        self._next_ticket = 0
        self._ticket_qos: Dict[int, QoSClass] = {}
        self._subs: Dict[int, List[SubscriberQueue]] = {}
        #: ticket id -> how far its subscribers have read (in-memory only:
        #: a recovered service re-delivers from an empty cursor).
        self._cursors: Dict[int, DeliveryCursor] = {}
        #: anchor qid -> the cursor its caught-up tickets share; a ticket
        #: leaves ``_cursors`` for it after its first pump while LIVE.
        self._anchor_cursors: Dict[int, _SharedCursor] = {}
        #: Planner pricing every submission (EXPLAIN, quotas, cost-aware
        #: shedding).  Defaults to an uncalibrated planner over the
        #: backend's own cost model, so prices are always available.
        self._planner = planner or QueryPlanner(backend.optimizer.cost_model)
        self._quotas = quotas or TenantQuotas()
        #: Priced admission state: radio-s/epoch per PENDING/LIVE ticket,
        #: the owning client, and summed spend per client (quota ledger).
        self._ticket_price: Dict[int, float] = {}
        self._ticket_client: Dict[int, str] = {}
        self._quota_spend: Dict[str, float] = {}
        self._overload = overload or OverloadConfig()
        self._breaker = CircuitBreaker(
            self._overload.breaker_failure_threshold,
            self._overload.breaker_cooldown_ms)
        self._closed = False
        #: Set by :meth:`simulate_crash`: a dead process mutates nothing,
        #: so every mutating entry point raises instead of quietly
        #: updating memory the "crash" is supposed to have lost.
        self._crashed = False
        #: The WAL + snapshot journal (``None`` without durability, while
        #: :meth:`recover` replays, and once shut down or crashed).
        self._journal: Optional[Journal] = None
        self._op_depth = 0
        #: Set by :meth:`recover` on the recovered instance.
        self.last_recovery: Optional[RecoveryReport] = None
        self._init_metrics(get_registry())
        if durability is not None:
            self._journal = Journal.boot(_coerce_durability(durability), {
                "op": "boot", "format": FORMAT_VERSION,
                "next_qid": self.optimizer.qids.next_value,
                "config": {
                    "batch_window_ms": self._batcher.window_ms,
                    "default_ttl_ms": self._sessions.default_ttl_ms,
                },
            })
            self._counts.wal_records += 1

    def _init_metrics(self, registry) -> None:
        """Bind the counters and register the gauges (telemetry contract).

        The counts are fields of ``self._counts``, incremented inline
        under the service lock; each counter series reads its field when
        the registry is read.  ``service.*`` and ``planner.*`` series are
        labelled with the instance name (``default`` when unnamed), so
        concurrently-live shards never read each other's counts; the
        ``resilience.*`` series are shared and read the sum over the live
        services.  Gauges are lazy callbacks evaluated at snapshot time;
        the last constructed instance owns them.
        """
        self._registry = registry
        self._counts = _Counts()
        self._bindings = []
        self._bind_counts()
        self._m_latency = registry.histogram(
            "service.admission_latency_ms",
            help="submit-to-live latency per admitted ticket", unit="ms",
            sample_cap=LATENCY_SAMPLE_CAP)
        registry.gauge("resilience.breaker_state",
                       help="0 closed / 1 half-open / 2 open"
                       ).set_fn(lambda: self._breaker.state.gauge_value)
        registry.gauge("planner.priced_backlog_radio_s",
                       help="summed radio-s/epoch price of pending "
                            "admissions"
                       ).set_fn(self._pending_cost_radio_s)
        registry.gauge("planner.live_cost_radio_s",
                       help="summed radio-s/epoch price of LIVE tickets"
                       ).set_fn(self._live_cost_radio_s)
        #: This instance's admission latencies: snapshot state, and what
        #: the p95 shedding brake reads.
        self._lat_local = Histogram(sample_cap=LATENCY_WINDOW)
        registry.gauge("service.sessions_open",
                       help="sessions with an unexpired lease"
                       ).set_fn(lambda: float(len(self._sessions)))
        registry.gauge("service.pending_admissions",
                       help="submissions waiting in the batch window"
                       ).set_fn(lambda: float(len(self._batcher)))
        registry.gauge("service.live_tickets",
                       help="tickets currently in the LIVE state"
                       ).set_fn(lambda: float(sum(
                           1 for t in self._tickets.values()
                           if t.status is TicketStatus.LIVE)))
        registry.gauge("service.cached_queries",
                       help="distinct live anchor queries in the dedup cache"
                       ).set_fn(lambda: float(len(self._cache)))
        registry.gauge("service.cache_hit_rate",
                       help="fraction of admissions served from the cache"
                       ).set_fn(lambda: self._cache.hit_rate)

    def _bind_counts(self) -> None:
        """(Re)bind every counter series to the fields, under the name."""
        unbind(self._bindings)
        self._bindings = (
            bind_counts(self._registry, self._counts, _INSTANCE_COUNTERS,
                        instance=self._name or "default")
            + bind_counts(self._registry, self._counts, _RESILIENCE_COUNTERS))

    @property
    def name(self) -> str:
        """Optional instance name.

        The cluster coordinator names each shard service (``shard-00``...)
        and prefixes it onto ticket ids, so a cluster ticket is traceable
        to the shard that owns it.  Renaming moves the ``instance``-
        labelled series to the new name.
        """
        return self._name

    @name.setter
    def name(self, name: str) -> None:
        with self._lock:
            self._name = name
            if not self._crashed:
                self._bind_counts()

    @property
    def optimizer(self) -> BaseStationOptimizer:
        return self._backend.optimizer

    @property
    def planner(self) -> QueryPlanner:
        return self._planner

    @property
    def overload_config(self) -> OverloadConfig:
        """The overload thresholds this service sheds by (read-only).

        The gateway reads its backpressure knobs from here, so socket-level
        shedding and service-level shedding are configured in one place.
        """
        return self._overload

    def attach_replicator(self, replicator) -> None:
        """Mirror every WAL record and snapshot to ``replicator``.

        Requires durability (the replication stream *is* the WAL stream).
        Attaching first writes a fresh snapshot — shipped to the follower
        as its starting state — so the stream is self-contained: snapshot,
        then every record after it, in order, under the service lock.
        """
        with self._lock:
            if self._journal is None:
                raise ValueError(
                    "replication needs durability (the WAL is the stream); "
                    "build the service with a DurabilityConfig first")
            self._journal.listener = replicator
            self._checkpoint(self._clock())

    def _pending_cost_radio_s(self) -> float:
        """Summed price of the admission backlog (priced-backlog gauge)."""
        return sum(self._ticket_price.get(p.ticket_id, 0.0)
                   for p in self._batcher.pending())

    def _live_cost_radio_s(self) -> float:
        """Summed price of LIVE tickets (live-cost gauge)."""
        return sum(self._ticket_price.get(t.ticket_id, 0.0)
                   for t in self._tickets.values()
                   if t.status is TicketStatus.LIVE)

    def _now(self, now_ms: Optional[float]) -> float:
        return self._clock() if now_ms is None else now_ms

    def _ensure_open(self) -> None:
        if self._closed:
            raise ServiceClosed("service is shut down (admission stopped)")

    def _ensure_alive(self) -> None:
        """Crash fidelity: a SIGKILLed process cannot keep mutating.

        :meth:`simulate_crash` models a killed process; letting the dead
        instance keep applying ticks/terminates in memory would make the
        crash tests compare recovery against state the real crash
        would never have had.
        """
        if self._crashed:
            raise ServiceClosed(
                f"service {self.name or id(self)} crashed; recover() it")

    @property
    def is_open(self) -> bool:
        """False once the service shut down or simulated a crash."""
        return not self._closed

    # ------------------------------------------------------------------
    # Durability (the protocol lives in service/durability.py)
    # ------------------------------------------------------------------
    @contextmanager
    def _op(self, record: Optional[dict]):
        """Write-ahead-log one *outermost* public operation.

        Public methods nest (``submit`` sweeps leases, ``tick`` flushes),
        so only the depth-1 record is logged — replaying it re-runs the
        nested effects — and a due snapshot is taken only between
        operations, never after shutdown.  ``record=None`` marks a no-op
        call (nothing to log, nothing to replay).  Assumes the service
        lock is held.
        """
        journal = self._journal
        if journal is None:
            yield
            return
        self._op_depth += 1
        try:
            if self._op_depth == 1 and record is not None:
                journal.append(record)
                self._counts.wal_records += 1
            yield
        finally:
            self._op_depth -= 1
            if self._op_depth == 0 and not self._closed and journal.due():
                self._checkpoint(self._clock())

    def snapshot(self, now_ms: Optional[float] = None) -> None:
        """Write a full-state snapshot and truncate the WAL."""
        with self._lock:
            if self._journal is None:
                raise ValueError("service was built without durability")
            self._checkpoint(self._now(now_ms))

    def _checkpoint(self, now: float) -> None:
        self._journal.checkpoint(self._snapshot_state(now))
        self._counts.snapshots += 1

    def _snapshot_state(self, now: float) -> dict:
        return {
            "format": FORMAT_VERSION,
            "saved_ms": now,
            "op_seq": self._journal.seq if self._journal is not None else 0,
            "next_qid": self.optimizer.qids.next_value,
            "config": {
                "batch_window_ms": self._batcher.window_ms,
                "default_ttl_ms": self._sessions.default_ttl_ms,
            },
            "sessions": self._sessions.to_dict(),
            "next_ticket": self._next_ticket,
            "tickets": [_ticket_to_dict(self._tickets[tid])
                        for tid in sorted(self._tickets)],
            "held": [self._held[tid] for tid in sorted(self._held)],
            "retired": list(self._retired.values()),
            "ticket_qos": {str(tid): qos.value
                           for tid, qos in sorted(self._ticket_qos.items())},
            "cache": {
                "hits": self._cache.hits,
                "misses": self._cache.misses,
                "peak_entries": self._cache.peak_entries,
                "entries": [
                    {"anchor": query_to_dict(entry.anchor),
                     "refcount": entry.refcount, "hits": entry.hits}
                    for entry in sorted(self._cache.entries().values(),
                                        key=lambda e: e.anchor_qid)],
            },
            "batcher": {
                "pending": [
                    {"ticket_id": p.ticket_id, "session_id": p.session_id,
                     "query": query_to_dict(p.query),
                     "submitted_ms": p.submitted_ms}
                    for p in self._batcher.pending()],
                "window_opened_ms": self._batcher.window_opened_ms,
                "batches_flushed": self._batcher.batches_flushed,
                "max_batch_size": self._batcher.max_batch_size,
            },
            "counters": {key: getattr(self._counts, key)
                         for key in _SNAPSHOT_COUNTERS},
            "latency": self._lat_local.state_dict(),
            "breaker": {
                "state": self._breaker.state.value,
                "consecutive_failures": self._breaker.consecutive_failures,
                "opened_at_ms": self._breaker.opened_at_ms,
                "opens_total": self._breaker.opens_total,
            },
            "optimizer": self.optimizer.snapshot_state(),
        }

    def _restore_snapshot(self, snap: dict) -> None:
        if snap.get("format") != FORMAT_VERSION:
            raise ValueError(
                f"unsupported snapshot format {snap.get('format')!r} "
                f"(this build reads {FORMAT_VERSION})")
        self._sessions.restore(snap["sessions"])
        self._next_ticket = int(snap["next_ticket"])
        self._tickets = {}
        self._held = {}
        self._retired = OrderedDict()
        for entry in snap["tickets"]:
            ticket = _ticket_from_dict(entry)
            if not ticket.terminated:
                self._tickets[ticket.ticket_id] = ticket
                continue
            # A snapshot written before tickets retired lists them all:
            # its terminal ones are held while their session lists them,
            # and fold into the ring by id otherwise.
            try:
                owner = self._sessions.get(ticket.session_id).tickets
            except SessionError:
                owner = set()
            if ticket.ticket_id in owner:
                self._held[ticket.ticket_id] = _row(ticket)
            else:
                self._bury(_row(ticket))
        for row in snap.get("held", ()):
            self._held[row[0]] = row
        for row in snap.get("retired", ()):
            self._bury(row)
        self._ticket_qos = {int(tid): QoSClass(value)
                            for tid, value in snap["ticket_qos"].items()}
        cache = snap["cache"]
        self._cache = CanonicalQueryCache()
        for entry in cache["entries"]:
            anchor = query_from_dict(entry["anchor"])
            restored = self._cache.insert(canonical_key(anchor), anchor)
            restored.refcount = int(entry["refcount"])
            restored.hits = int(entry["hits"])
        self._cache.hits = int(cache["hits"])
        self._cache.misses = int(cache["misses"])
        self._cache.peak_entries = int(cache["peak_entries"])
        batcher = snap["batcher"]
        for entry in batcher["pending"]:
            query = query_from_dict(entry["query"])
            self._batcher.add(
                PendingAdmission(entry["ticket_id"], entry["session_id"],
                                 query, canonical_key(query),
                                 float(entry["submitted_ms"])),
                float(entry["submitted_ms"]))
        self._batcher.restore_window(
            batcher["window_opened_ms"],
            int(batcher["batches_flushed"]), int(batcher["max_batch_size"]))
        for key, value in snap["counters"].items():
            setattr(self._counts, key, int(value))
        self._lat_local.load_state(snap["latency"])
        breaker = snap["breaker"]
        self._breaker.state = BreakerState(breaker["state"])
        self._breaker.consecutive_failures = int(
            breaker["consecutive_failures"])
        self._breaker.opened_at_ms = breaker["opened_at_ms"]
        self._breaker.opens_total = int(breaker["opens_total"])
        self.optimizer.restore_state(snap["optimizer"])
        self.optimizer.qids = QidAllocator(int(snap["next_qid"]))
        # The quota ledger is derived state: planner prices are pure
        # functions of the query, so re-pricing the restored PENDING/LIVE
        # tickets rebuilds spend exactly (nothing extra in the snapshot).
        self._ticket_price = {}
        self._ticket_client = {}
        self._quota_spend = {}
        for tid in sorted(self._tickets):
            ticket = self._tickets[tid]
            price = self._planner.price(ticket.query).radio_s_per_epoch
            try:
                client = self._sessions.get(ticket.session_id).client_id
            except SessionError:
                client = ticket.session_id
            self._ticket_price[tid] = price
            self._ticket_client[tid] = client
            self._quota_spend[client] = (
                self._quota_spend.get(client, 0.0) + price)

    # ------------------------------------------------------------------
    # Durability: recovery
    # ------------------------------------------------------------------
    @classmethod
    def recover(cls, backend,
                durability: Union[DurabilityConfig, str, Path], *,
                clock: Optional[Callable[[], float]] = None,
                overload: Optional[OverloadConfig] = None,
                planner: Optional[QueryPlanner] = None,
                quotas: Optional[TenantQuotas] = None,
                batch_window_ms: Optional[float] = None,
                default_ttl_ms: Optional[float] = None) -> "QueryService":
        """Rebuild a service from its durability directory.

        Loads the snapshot (if any), replays the WAL suffix through the
        ordinary operations — a replayed submission keeps its recorded qid
        and moves the optimizer's allocator past it, so the optimizer
        re-derives identical synthetic qids — then writes a fresh snapshot
        (a clean recovery point for the *next* crash) and reconciles the
        network: RUNNING synthetic queries missing from the network are
        re-disseminated, zombies the recovered table no longer knows are
        aborted.  The report is left on :attr:`last_recovery`.
        """
        config = _coerce_durability(durability)
        backlog = Journal.load(config)
        snap, boot = backlog.snapshot, backlog.boot
        stored = (snap or {}).get("config") or (boot or {}).get("config") or {}
        service = cls(
            backend,
            batch_window_ms=(batch_window_ms if batch_window_ms is not None
                             else stored.get("batch_window_ms", 0.0)),
            default_ttl_ms=(default_ttl_ms if default_ttl_ms is not None
                            else stored.get("default_ttl_ms",
                                            DEFAULT_TTL_MS)),
            clock=clock, overload=overload, planner=planner, quotas=quotas)
        if snap is not None:
            service._restore_snapshot(snap)
        else:
            # WAL-only recovery replays against a blank tier-1.  A
            # reused in-memory backend (in-process crash test) still
            # holds the pre-crash table; clear it or replay would
            # double-register every surviving query.
            service.optimizer.reset()
            if boot is not None and boot.get("next_qid") is not None:
                service.optimizer.qids = QidAllocator(int(boot["next_qid"]))
        # No journal is attached yet, so replay logs nothing.
        report, seq = backlog.replay(service._replay)
        # "Closed" is a process-lifetime property, not durable state: a
        # restart after a clean shutdown resumes an open (ticketless)
        # service, and a replayed shutdown record likewise applies its
        # terminations but leaves the new process admitting.
        service._closed = False
        service._journal = Journal(config, seq=seq)
        service._checkpoint(service._clock())
        reconcile = getattr(backend, "reconcile_queries", None)
        if callable(reconcile) and backend.optimizer is not None:
            report.reinjected, report.zombies_aborted = reconcile()
        counts = service._counts
        counts.recoveries += 1
        counts.wal_torn_records += report.torn_records
        counts.wal_stale_records += report.stale_ops
        counts.replayed_ops += report.replayed_ops
        counts.reinjected += report.reinjected
        counts.zombie_aborts += report.zombies_aborted
        service.last_recovery = report
        return service

    def _replay(self, record: dict) -> None:
        """Re-run one WAL record through the ordinary operations."""
        op = record["op"]
        if op == "open":
            self.open_session(record["client"], ttl_ms=record["ttl"],
                              now_ms=record["now"])
        elif op == "renew":
            self.renew_session(record["sid"], ttl_ms=record["ttl"],
                               now_ms=record["now"])
        elif op == "close":
            self.close_session(record["sid"])
        elif op == "submit":
            self._submit(record["sid"], query_from_dict(record["query"]),
                         record["now"], QoSClass(record["qos"]))
        elif op == "terminate":
            self.terminate(record["sid"], record["ticket"],
                           now_ms=record["now"])
        elif op == "flush":
            self.flush(now_ms=record["now"])
        elif op == "tick":
            self.tick(now_ms=record["now"])
        elif op == "expire":
            self.expire_leases(now_ms=record["now"])
        elif op == "shutdown":
            self.shutdown(now_ms=record["now"])
        else:
            raise ValueError(f"unknown WAL op {op!r}")

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------
    def open_session(self, client_id: str = "anonymous",
                     ttl_ms: Optional[float] = None,
                     now_ms: Optional[float] = None) -> str:
        """Open a TTL-leased session and return its id."""
        with self._lock:
            self._ensure_open()
            now = self._now(now_ms)
            with self._op({"op": "open", "client": client_id, "ttl": ttl_ms,
                           "now": now}):
                self._expire(now)
                return self._sessions.open(client_id, now, ttl_ms).session_id

    def renew_session(self, session_id: str,
                      ttl_ms: Optional[float] = None,
                      now_ms: Optional[float] = None) -> None:
        """Extend a lease.  A lapsed lease cannot be renewed."""
        with self._lock:
            self._ensure_alive()
            now = self._now(now_ms)
            with self._op({"op": "renew", "sid": session_id, "ttl": ttl_ms,
                           "now": now}):
                self._expire(now)
                self._sessions.renew(session_id, now, ttl_ms)

    def close_session(self, session_id: str,
                      now_ms: Optional[float] = None) -> None:
        """Terminate every query the session owns and drop it."""
        with self._lock:
            self._ensure_alive()
            with self._op({"op": "close", "sid": session_id}):
                self._end_session(self._sessions.get(session_id),
                                  TicketStatus.TERMINATED)

    def expire_leases(self, now_ms: Optional[float] = None) -> List[str]:
        """Auto-terminate the queries of every session whose lease lapsed.

        Also swept automatically from :meth:`submit`, :meth:`tick` and
        :meth:`pump`, so TTL enforcement does not depend on clients
        calling this; the explicit call stays idempotent.
        """
        with self._lock:
            now = self._now(now_ms)
            record = ({"op": "expire", "now": now}
                      if self._sessions.expired(now) else None)
            with self._op(record):
                return self._expire(now)

    def _expire(self, now: float) -> List[str]:
        expired_ids: List[str] = []
        for session in self._sessions.expired(now):
            self._end_session(session, TicketStatus.EXPIRED)
            self._sessions.expired_total += 1
            expired_ids.append(session.session_id)
        return expired_ids

    def _end_session(self, session: Session, status: TicketStatus) -> None:
        """End the session's PENDING/LIVE tickets with ``status``, drop it."""
        for ticket_id in sorted(session.tickets & self._tickets.keys()):
            self._terminate_ticket(self._tickets[ticket_id], status)
        self._let_go(session, sorted(session.tickets))
        self._sessions.close(session.session_id)

    # ------------------------------------------------------------------
    # Query admission
    # ------------------------------------------------------------------
    def submit(self, session_id: str, query: Union[str, Query],
               now_ms: Optional[float] = None,
               qos: QoSClass = QoSClass.BEST_EFFORT) -> Ticket:
        """Submit a query (text or parsed) on behalf of a session.

        The returned :class:`Ticket` is PENDING until the batch window
        flushes (immediately when ``batch_window_ms == 0``).  The query is
        named by the optimizer's next qid, issued only once the submission
        is journaled: a query that fails to parse or validate takes none.
        """
        with self._lock:
            self._ensure_open()
            return self._submit(session_id, self._canonical(query),
                                self._now(now_ms), qos)

    def _canonical(self, query: Union[str, Query]) -> Query:
        """``query``'s canonical form, named by the optimizer's next qid."""
        qid = self.optimizer.qids.next_value
        if isinstance(query, str):
            query = parse_query(query, qid=qid)
        return canonicalize(query, qid=qid)

    def _submit(self, session_id: str, canonical: Query, now: float,
                qos: QoSClass) -> Ticket:
        """Admit ``canonical`` under its qid: a live or a replayed submit."""
        with self._lock:
            with self._op({"op": "submit", "sid": session_id,
                           "qid": canonical.qid,
                           "query": query_to_dict(canonical),
                           "qos": qos.value, "now": now}):
                self.optimizer.qids.claim(canonical.qid)
                self._expire(now)
                session = self._sessions.get(session_id)
                self._next_ticket += 1
                ticket = Ticket(
                    ticket_id=self._next_ticket,
                    session_id=session_id,
                    query=canonical,
                    key=canonical_key(canonical),
                    submitted_ms=now,
                )
                self._tickets[ticket.ticket_id] = ticket
                session.tickets.add(ticket.ticket_id)
                self._counts.submissions += 1
                price = self._planner.price(canonical).radio_s_per_epoch
                reason = self._backlog_reason(qos, price)
                if reason is not None and self._overload.cost_weighted_shedding:
                    # Fight for the slot: evict pricier pending BEST_EFFORT
                    # entries until the backlog admits us or nothing
                    # cheaper-to-keep remains.  Only backlog reasons are
                    # fought — evicting can't lower a p95 latency brake.
                    while reason is not None and self._evict_pricier_pending(
                            price, qos):
                        reason = self._backlog_reason(qos, price)
                shed_reason = reason or self._latency_reason(qos)
                quota_shed = False
                if shed_reason is None:
                    shed_reason = self._quota_reason(session.client_id, price)
                    quota_shed = shed_reason is not None
                if shed_reason is not None:
                    self._retire(ticket, TicketStatus.SHED, shed_reason)
                    if quota_shed:
                        self._counts.quota_rejections += 1
                    else:
                        self._count_shed(qos)
                    return ticket
                self._ticket_qos[ticket.ticket_id] = qos
                self._ticket_price[ticket.ticket_id] = price
                self._ticket_client[ticket.ticket_id] = session.client_id
                self._quota_spend[session.client_id] = (
                    self._quota_spend.get(session.client_id, 0.0) + price)
                self._batcher.add(
                    PendingAdmission(ticket.ticket_id, session_id, canonical,
                                     ticket.key, now),
                    now)
                if self._batcher.due(now):
                    self._flush(now)
                return ticket

    def _backlog_reason(self, qos: QoSClass,
                        price_radio_s: float) -> Optional[str]:
        """Why the *backlog* rejects this submission (None = room).

        Deterministic in service state and the caller clock — identical
        decisions under WAL replay.  BEST_EFFORT sheds first (lower
        backlog threshold); RELIABLE rides to its own, higher threshold.
        With ``shed_backlog_cost_radio_s`` set, the *priced* backlog is
        capped too, so one monster query can't hide behind a short queue.
        Backlog reasons are the ones cost-weighted eviction can fight by
        removing pending entries (unlike the p95 latency brake).
        """
        threshold = self._overload.backlog_threshold(qos)
        backlog = len(self._batcher)
        if threshold is not None and backlog >= threshold:
            return (f"shed: admission backlog {backlog} at the "
                    f"{qos.value} threshold {threshold}")
        cost_cap = self._overload.shed_backlog_cost_radio_s
        if cost_cap is not None:
            priced = self._pending_cost_radio_s()
            if priced + price_radio_s > cost_cap:
                return (f"shed: priced backlog "
                        f"{priced + price_radio_s:.3f} radio-s/epoch over "
                        f"the {cost_cap:.3f} cap")
        return None

    def _latency_reason(self, qos: QoSClass) -> Optional[str]:
        """The p95 admission-latency brake (BEST_EFFORT only)."""
        p95_limit = self._overload.shed_latency_p95_ms
        if (qos is QoSClass.BEST_EFFORT and not math.isinf(p95_limit)
                and self._lat_local.count > 0
                and self._lat_local.quantile(95.0) > p95_limit):
            return (f"shed: p95 admission latency "
                    f"{self._lat_local.quantile(95.0):.1f} ms over the "
                    f"{p95_limit:.1f} ms budget")
        return None

    def _quota_reason(self, client_id: str,
                      price_radio_s: float) -> Optional[str]:
        """Why the tenant's cost quota rejects this submission."""
        budget = self._quotas.budget(client_id)
        if budget is None:
            return None
        spent = self._quota_spend.get(client_id, 0.0)
        if spent + price_radio_s > budget + 1e-9:
            return (f"quota: {client_id!r} spend {spent:.3f} + price "
                    f"{price_radio_s:.3f} radio-s/epoch over the "
                    f"{budget:.3f} budget")
        return None

    def _evict_pricier_pending(self, price_radio_s: float,
                               qos: QoSClass) -> bool:
        """Evict the most expensive pending BEST_EFFORT submission.

        Called when a backlog threshold rejected a newcomer under
        cost-weighted shedding.  A RELIABLE newcomer displaces the
        priciest pending BEST_EFFORT entry unconditionally (priority
        dominance); a BEST_EFFORT newcomer only displaces a *strictly*
        pricier one, so equal-price traffic can't churn the queue.
        RELIABLE entries are never evicted.  Returns True if an entry was
        evicted (the caller re-checks the backlog).
        """
        best: Optional[PendingAdmission] = None
        best_price = -1.0
        for pending in self._batcher.pending():
            pqos = self._ticket_qos.get(pending.ticket_id,
                                        QoSClass.BEST_EFFORT)
            if pqos is QoSClass.RELIABLE:
                continue
            pprice = self._ticket_price.get(pending.ticket_id, 0.0)
            # Ties evict the *newest* entry (highest ticket id): oldest
            # equal-price work keeps its place in line.
            if (best is None or pprice > best_price
                    or (pprice == best_price
                        and pending.ticket_id > best.ticket_id)):
                best, best_price = pending, pprice
        if best is None:
            return False
        if qos is not QoSClass.RELIABLE and best_price <= price_radio_s:
            return False
        self._batcher.cancel(best.ticket_id)
        self._retire(
            self._tickets[best.ticket_id], TicketStatus.SHED,
            f"shed: evicted by cost-weighted backlog (price "
            f"{best_price:.3f} radio-s/epoch vs newcomer "
            f"{price_radio_s:.3f}, {qos.value})")
        self._counts.cost_sheds += 1
        self._count_shed(QoSClass.BEST_EFFORT)
        return True

    def _count_shed(self, qos: QoSClass) -> None:
        if qos is QoSClass.RELIABLE:
            self._counts.shed_reliable += 1
        else:
            self._counts.shed_best_effort += 1

    def flush(self, now_ms: Optional[float] = None) -> int:
        """Admit every pending submission now; returns the batch size."""
        with self._lock:
            self._ensure_alive()
            now = self._now(now_ms)
            record = ({"op": "flush", "now": now}
                      if len(self._batcher) else None)
            with self._op(record):
                return self._flush(now)

    def tick(self, now_ms: Optional[float] = None) -> None:
        """Housekeeping: expire lapsed leases, flush a due batch window.

        Call periodically (a simulator timer, or a background thread).
        """
        with self._lock:
            self._ensure_alive()
            now = self._now(now_ms)
            record = ({"op": "tick", "now": now}
                      if self._sessions.expired(now) or self._batcher.due(now)
                      else None)
            with self._op(record):
                self._expire(now)
                if self._batcher.due(now):
                    self._flush(now)

    def _flush(self, now: float) -> int:
        batch = self._batcher.drain()
        for pending in batch:
            ticket = self._tickets[pending.ticket_id]
            if now - pending.submitted_ms > self._overload.submit_deadline_ms:
                qos = self._ticket_qos.get(pending.ticket_id,
                                           QoSClass.BEST_EFFORT)
                self._retire(
                    ticket, TicketStatus.SHED,
                    f"shed: waited {now - pending.submitted_ms:.1f} ms in "
                    f"the batch window, over the "
                    f"{self._overload.submit_deadline_ms:.1f} ms deadline")
                self._counts.deadline_shed += 1
                self._count_shed(qos)
                continue
            entry = self._cache.lookup(pending.key)
            if entry is None:
                anchor = pending.query
                ops_before = self.optimizer.network_operations
                qos = self._ticket_qos.get(pending.ticket_id,
                                           QoSClass.BEST_EFFORT)
                full_path = self._breaker.allow_full(now)
                try:
                    if full_path:
                        self._register_full(anchor, qos, now)
                    else:
                        self._register_passthrough(anchor, qos)
                except Exception as exc:  # noqa: BLE001 - isolate bad query
                    if full_path:
                        self._breaker_failure(now)
                    self._retire(ticket, TicketStatus.FAILED, str(exc))
                    continue
                self._counts.registrations += 1
                if self.optimizer.network_operations > ops_before:
                    self._counts.injected += 1
                else:
                    self._counts.absorbed += 1
                entry = self._cache.insert(pending.key, anchor)
            else:
                ticket.cache_hit = True
            self._cache.acquire(entry)
            ticket.anchor = entry.anchor
            ticket.status = TicketStatus.LIVE
            ticket.admitted_ms = now
            self._counts.admitted += 1
            self._m_latency.observe(now - pending.submitted_ms)
            self._lat_local.observe(now - pending.submitted_ms)
        return len(batch)

    def _register_full(self, anchor: Query, qos: QoSClass,
                       now: float) -> None:
        """Full Algorithm 1 admission, metered for the circuit breaker."""
        budget = self._overload.register_latency_budget_ms
        if math.isinf(budget):
            self._backend.register(anchor, qos=qos)
            self._breaker.record_success()
            return
        t0 = time.perf_counter()
        self._backend.register(anchor, qos=qos)
        elapsed_ms = (time.perf_counter() - t0) * 1000.0
        if elapsed_ms > budget:
            # Admission succeeded but blew its latency budget: counts
            # toward opening the breaker, never fails the ticket.
            self._breaker_failure(now)
        else:
            self._breaker.record_success()

    def _register_passthrough(self, anchor: Query, qos: QoSClass) -> None:
        """Degraded-mode admission while the breaker is open."""
        fallback = getattr(self._backend, "register_passthrough", None)
        if fallback is None:
            self._backend.register(anchor, qos=qos)
            return
        fallback(anchor, qos=qos)
        self._counts.passthrough_registrations += 1

    def _breaker_failure(self, now: float) -> None:
        opens_before = self._breaker.opens_total
        self._breaker.record_failure(now)
        if self._breaker.opens_total > opens_before:
            self._counts.breaker_opens += 1

    # ------------------------------------------------------------------
    # EXPLAIN: priced what-if admission
    # ------------------------------------------------------------------
    def explain(self, query: Union[str, Query],
                session_id: Optional[str] = None,
                now_ms: Optional[float] = None,
                qos: QoSClass = QoSClass.BEST_EFFORT,
                client_id: Optional[str] = None) -> ExplainReport:
        """Price a query against the live query set *without* admitting it.

        Returns the plan the optimizer *would* choose (cache attach,
        Algorithm 1 absorption, or a new injection), the query's price in
        radio-seconds and joules per epoch, the sharing delta against the
        running synthetic set, and the admission verdict (shed reason and
        quota headroom) — everything ``submit`` would decide, decided
        first.

        Strictly read-only: the query is named by the qid a submission
        would take, and the what-if registration runs on a throwaway
        optimizer clone (restored from the live snapshot, with a copy of
        the live qid allocator, inside a scoped metrics registry), so the
        query table, dedup cache, qid allocator, WAL and counters are all
        untouched.
        Works on a closed service too — it's introspection.
        """
        with self._lock:
            canonical = self._canonical(query)
            key = canonical_key(canonical)
            price = self._planner.price(canonical)
            live = self.optimizer
            standalone = self._planner.model_radio_s_per_epoch(canonical)
            # entries() is a read-only copy; lookup() would count a cache
            # hit/miss and EXPLAIN must not move the stats it reports on.
            entry = self._cache.entries().get(key)
            cache_hit = entry is not None
            if cache_hit:
                action = "cache-attach"
                before = after = live.synthetic_count()
                aborts, injected, marginal = 0, False, 0.0
            else:
                with scoped():
                    probe = BaseStationOptimizer(live.cost_model,
                                                 alpha=live.alpha)
                    probe.restore_state(live.snapshot_state())
                    probe.qids = QidAllocator(live.qids.next_value)
                    before = probe.synthetic_count()
                    cost_before = probe.total_synthetic_cost()
                    actions = probe.register(canonical, qos=qos)
                    after = probe.synthetic_count()
                    cost_after = probe.total_synthetic_cost()
                aborts = len(actions.abort_qids)
                injected = len(actions.inject) > 0
                action = "injected" if injected else "absorbed"
                marginal = ((cost_after - cost_before) * canonical.epoch_ms
                            / 1000.0 * self._planner.scale())
            # Quota view: prefer the session's tenant, else an explicit
            # client_id (the cluster coordinator prices for tenants whose
            # shard sessions don't exist yet), else the anonymous tier.
            if session_id is not None:
                client = self._sessions.get(session_id).client_id
            else:
                client = client_id if client_id is not None else "anonymous"
            budget = self._quotas.budget(client)
            spent = self._quota_spend.get(client, 0.0)
            quota_reason = self._quota_reason(client, price.radio_s_per_epoch)
            would_shed = (self._backlog_reason(qos, price.radio_s_per_epoch)
                          or self._latency_reason(qos) or quota_reason)
            self._counts.explains += 1
            return ExplainReport(
                text=str(canonical),
                action=action,
                cache_hit=cache_hit,
                price=price,
                standalone_radio_s_per_epoch=standalone,
                marginal_radio_s_per_epoch=marginal,
                sharing_saving_radio_s_per_epoch=standalone - marginal,
                synthetic_before=before,
                synthetic_after=after,
                aborts=aborts,
                injected=injected,
                would_shed=would_shed,
                quota_budget=budget,
                quota_spent_radio_s=spent,
                quota_ok=quota_reason is None,
            )

    # ------------------------------------------------------------------
    # Query termination
    # ------------------------------------------------------------------
    def terminate(self, session_id: str, ticket_id: int,
                  now_ms: Optional[float] = None) -> None:
        """Terminate one of the session's queries."""
        with self._lock:
            self._ensure_alive()
            now = self._now(now_ms)
            with self._op({"op": "terminate", "sid": session_id,
                           "ticket": ticket_id, "now": now}):
                self._expire(now)
                session = self._sessions.get(session_id)
                if ticket_id not in session.tickets:
                    raise KeyError(
                        f"session {session_id!r} owns no ticket {ticket_id}")
                ticket = self._tickets.get(ticket_id)
                if ticket is not None:  # else it was shed or failed
                    self._terminate_ticket(ticket, TicketStatus.TERMINATED)
                self._let_go(session, (ticket_id,))

    def _terminate_ticket(self, ticket: Ticket, status: TicketStatus) -> None:
        """End a ledger ticket: cancel it if PENDING, release its anchor
        (Algorithm 2 once the last holder lets go) if LIVE."""
        if ticket.status is TicketStatus.PENDING:
            self._batcher.cancel(ticket.ticket_id)
        else:
            dead = self._cache.release(ticket.key)
            if dead is not None:
                self._backend.terminate(dead.anchor_qid)
            self._counts.terminations += 1
        self._retire(ticket, status)

    def _retire(self, ticket: Ticket, status: TicketStatus,
                error: Optional[str] = None) -> None:
        """The one transition into a terminal ``status``.

        Releases the ticket's read cursors, price and quota charge, then
        moves it out of the ledger: its tombstone is held while the
        session lists it (:meth:`_let_go` moves it on to the retired
        ring).  So the ledger holds PENDING/LIVE tickets only, and a
        snapshot costs what is live (tickets, and the ids sessions list)
        plus the bounded ring.
        """
        ticket.status = status
        ticket.error = error
        if (self._subs.pop(ticket.ticket_id, None) is not None
                and self._cursors.pop(ticket.ticket_id, None) is None):
            # A caught-up ticket: the last one to leave releases its
            # anchor's cursor, so no cursor outlives its anchor.
            shared = self._anchor_cursors[ticket.anchor_qid]
            shared.tickets.discard(ticket.ticket_id)
            if not shared.tickets:
                del self._anchor_cursors[ticket.anchor_qid]
        self._ticket_qos.pop(ticket.ticket_id, None)
        price = self._ticket_price.pop(ticket.ticket_id, None)
        client = self._ticket_client.pop(ticket.ticket_id, None)
        if price is not None and client is not None:
            remaining = self._quota_spend.get(client, 0.0) - price
            if remaining > 1e-9:
                self._quota_spend[client] = remaining
            else:
                # Drop the ledger entry at zero so float dust can't
                # accumulate into a phantom quota charge.
                self._quota_spend.pop(client, None)
        del self._tickets[ticket.ticket_id]
        self._held[ticket.ticket_id] = _row(ticket)

    def _let_go(self, session: Session, ticket_ids) -> None:
        """``session`` stops listing ``ticket_ids`` (all terminal by now);
        their tombstones move on to the retired ring in that order."""
        for ticket_id in ticket_ids:
            session.tickets.discard(ticket_id)
            row = self._held.pop(ticket_id, None)
            if row is not None:
                self._bury(row)

    def _bury(self, row: list) -> None:
        """Append to the retired ring, evicting its oldest past the bound."""
        self._retired[row[0]] = row
        if len(self._retired) > RETIRED_RING_SIZE:
            self._retired.popitem(last=False)

    # ------------------------------------------------------------------
    # Result subscriptions
    # ------------------------------------------------------------------
    def subscribe(self, session_id: str, ticket_id: int,
                  maxsize: Optional[int] = None) -> SubscriberQueue:
        """A thread-safe *bounded* queue receiving this ticket's results.

        Acquisition tickets receive :class:`MappedRow`s; aggregation
        tickets receive :class:`MappedAggregates`.  Requires a backend
        with a result log (a simulated deployment).

        The bound defaults to ``OverloadConfig.subscriber_queue_maxsize``;
        a slow consumer loses the *newest* items once full (:meth:`pump`
        counts them in ``resilience.subscriber_dropped_total``) instead of
        growing service memory without limit.  Pass ``maxsize=0`` to
        explicitly opt back into an unbounded queue.

        The queue is a :class:`SubscriberQueue`: ``get``/``get_nowait``/
        ``qsize``/``empty`` behave as on :class:`queue.Queue`, but ``put``
        never blocks (a full queue raises :class:`queue.Full`) and there is
        no ``task_done``/``join``.  :meth:`pump` is its only producer.

        The first subscriber of a ticket receives its whole answer so far
        at the next pump after the ticket is LIVE; a later one receives
        what arrives after it subscribed.  Tickets that share an anchor
        receive the very same item objects: treat them as read-only.  A
        ticket that already ended gets a queue nothing is ever put on.
        """
        if self._backend.results is None:
            raise ValueError(
                "backend has no result log; subscriptions need a simulated "
                "deployment (OptimizerBackend serves admission only)")
        with self._lock:
            session = self._sessions.get(session_id)
            if ticket_id not in session.tickets:
                raise KeyError(
                    f"session {session_id!r} owns no ticket {ticket_id}")
            bound = (self._overload.subscriber_queue_maxsize
                     if maxsize is None else maxsize)
            subscriber = SubscriberQueue(bound)
            if ticket_id not in self._tickets:
                return subscriber  # it ended: nothing will ever arrive
            subscribers = self._subs.get(ticket_id)
            if subscribers is None:
                self._subs[ticket_id] = [subscriber]
                self._cursors[ticket_id] = DeliveryCursor()
            else:
                # Already reading (privately or through its anchor's
                # cursor): a fresh cursor would replay the whole answer
                # into the ticket's existing queues.
                subscribers.append(subscriber)
            return subscriber

    def pump(self, now_ms: Optional[float] = None) -> int:
        """Fan new mapped results out to subscribers; returns items pushed.

        Maps what arrived since the last pump, across the anchor's whole
        synthetic-query history, so results survive re-optimization
        remaps mid-flight and a pump costs O(new rows), not O(log) — once
        per anchor, however many caught-up tickets share it.  A ticket's
        first pump while LIVE maps from its own fresh cursor (a fresh read
        may hand over partial aggregates and recomputed derived epochs as
        they stand *now*, unlike the anchor's incremental history); after
        it the two cursors hold the same positions, seen keys and dirty
        epochs, so the ticket drops its own and joins the anchor's.
        Schedule this against the sim runtime (e.g. once per smallest
        epoch) or call it after a run to drain everything at once.  Also
        sweeps expired leases, so a deployment that only ever pumps still
        enforces TTLs.
        """
        with self._lock:
            self._ensure_alive()
            now = self._now(now_ms)
            record = ({"op": "expire", "now": now}
                      if self._sessions.expired(now) else None)
            with self._op(record):
                self._expire(now)
            if self._backend.results is None:
                return 0
            mapper = ResultMapper(self._backend.results)
            # (items, the queues they go to).  The shared cursors are read
            # first: a newcomer may join one only once both have read to
            # the same point of the log.
            deliveries = [
                (mapper.unseen(shared.anchor,
                               self.optimizer.synthetic_history(anchor_qid),
                               shared.cursor, now),
                 [subscriber for ticket_id in shared.tickets
                  for subscriber in self._subs[ticket_id]])
                for anchor_qid, shared in self._anchor_cursors.items()]
            for ticket_id, cursor in list(self._cursors.items()):
                ticket = self._tickets[ticket_id]
                if ticket.status is not TicketStatus.LIVE:
                    continue
                anchor = ticket.anchor
                deliveries.append((
                    mapper.unseen(
                        anchor, self.optimizer.synthetic_history(anchor.qid),
                        cursor, now),
                    self._subs[ticket_id]))
                del self._cursors[ticket_id]
                self._anchor_cursors.setdefault(
                    anchor.qid, _SharedCursor(anchor, cursor, set())
                ).tickets.add(ticket_id)
            pushed = 0
            dropped = 0
            for items, subscribers in deliveries:
                for item in items:
                    for subscriber in subscribers:
                        try:
                            subscriber.put_nowait(item)
                            pushed += 1
                        except queue.Full:
                            dropped += 1
            counts = self._counts
            counts.mapped += mapper.items_mapped
            counts.delivered += pushed
            counts.subscriber_drops += dropped
            return pushed

    # ------------------------------------------------------------------
    # Graceful shutdown
    # ------------------------------------------------------------------
    def shutdown(self, now_ms: Optional[float] = None) -> List[int]:
        """Drain and stop: no zombie queries survive a clean exit.

        Stops admitting (``submit``/``open_session`` raise
        :class:`ServiceClosed`), flushes the open batch window, terminates
        every remaining PENDING/LIVE ticket through the ordinary
        :meth:`_terminate_ticket` path (running Algorithm 2, releasing
        cache refcounts, aborting network queries), then writes a final
        snapshot.  Returns the terminated ticket ids.  Idempotent.
        """
        with self._lock:
            if self._closed:
                return []
            now = self._now(now_ms)
            with self._op({"op": "shutdown", "now": now}):
                self._expire(now)
                self._flush(now)
                terminated = sorted(self._tickets)
                for ticket_id in terminated:
                    self._terminate_ticket(self._tickets[ticket_id],
                                           TicketStatus.TERMINATED)
                self._closed = True
            if self._journal is not None:
                self._checkpoint(now)
                self._journal.close()
                self._journal = None
            return terminated

    def simulate_crash(self) -> None:
        """Die the way a SIGKILLed process does (crash-test hook).

        No batch flush, no ticket termination, no final snapshot — the
        WAL handle is simply released (every append already flushed, so
        the on-disk state is exactly what an OS would keep of a killed
        process), and the counter series stop reading this instance.
        The instance is dead afterwards; a new one must be built with
        :meth:`recover` over the same durability directory.
        """
        with self._lock:
            unbind(self._bindings)
            if self._journal is not None:
                self._journal.close()
                self._journal = None
            self._closed = True
            self._crashed = True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def ticket(self, ticket_id: int) -> Union[Ticket, RetiredTicket]:
        """Look up a ticket by id; raises ``KeyError`` if unknown.

        A PENDING/LIVE ticket is answered with its :class:`Ticket`; a
        terminal one with its :class:`RetiredTicket` tombstone (same
        ``status``, ``error``, ``cache_hit`` and ``terminated``) while its
        session lists it and then for as long as the retired ring holds
        it.  An evicted id is unknown.
        """
        with self._lock:
            ticket = self._tickets.get(ticket_id)
            if ticket is not None:
                return ticket
            row = self._held.get(ticket_id) or self._retired.get(ticket_id)
            if row is None:
                raise KeyError(f"unknown ticket {ticket_id}")
            return RetiredTicket.from_row(row)

    def live_tickets(self) -> List[Ticket]:
        """All tickets currently in the LIVE state."""
        with self._lock:
            return [t for t in self._tickets.values()
                    if t.status is TicketStatus.LIVE]

    def sessions(self) -> List[Session]:
        """Every registered session (treat as read-only)."""
        with self._lock:
            return self._sessions.sessions()

    def find_sessions(self, client_id: str) -> List[str]:
        """Ids of registered sessions opened by ``client_id``, sorted.

        Sessions are restored by :meth:`recover`, so a shard-aware caller
        (the cluster coordinator) can re-discover the sessions it owned
        on a shard — e.g. its fan-out root session — after a crash.
        """
        with self._lock:
            return sorted(s.session_id for s in self._sessions.sessions()
                          if s.client_id == client_id)

    def stats(self) -> ServiceStats:
        """A consistent snapshot of this instance's counters.

        Takes the service lock, so every field is read from the same
        quiescent state; the counts are the very fields the ``service.*``
        series ``python -m repro obs`` exports read.
        """
        with self._lock:
            counts = self._counts
            recovery = self._backend_recovery()
            return ServiceStats(
                sessions_open=len(self._sessions),
                sessions_opened_total=self._sessions.opened_total,
                sessions_expired_total=self._sessions.expired_total,
                submissions_total=counts.submissions,
                admitted_total=counts.admitted,
                pending=len(self._batcher),
                cache_hits=self._cache.hits,
                cache_misses=self._cache.misses,
                cache_hit_rate=self._cache.hit_rate,
                live_cached_queries=len(self._cache),
                registrations=counts.registrations,
                injected_registrations=counts.injected,
                absorbed_registrations=counts.absorbed,
                terminations=counts.terminations,
                admission_latency_p50_ms=self._lat_local.quantile(50.0),
                admission_latency_p95_ms=self._lat_local.quantile(95.0),
                batches_flushed=self._batcher.batches_flushed,
                max_batch_size=self._batcher.max_batch_size,
                live_tickets=sum(
                    1 for t in self._tickets.values()
                    if t.status is TicketStatus.LIVE),
                live_user_queries=self.optimizer.user_count(),
                live_synthetic_queries=self.optimizer.synthetic_count(),
                network_operations=self.optimizer.network_operations,
                absorbed_operations=self.optimizer.absorbed_operations,
                results_delivered=counts.delivered,
                recovery_app_retries=recovery.get(
                    "recovery.app_retries_total", 0),
                recovery_evictions=recovery.get(
                    "recovery.evictions_total", 0),
                recovery_readmissions=recovery.get(
                    "recovery.readmissions_total", 0),
                recovery_redisseminations=recovery.get(
                    "recovery.redisseminations_total", 0),
                row_completeness=self._backend_completeness(),
            )

    def resilience_stats(self) -> ResilienceStats:
        """Instance-scoped snapshot of the ``resilience.*`` counters.

        Kept out of :meth:`stats` on purpose: recovery and shedding are
        infrastructure events, and folding them into the workload snapshot
        would break the crash/recover ``stats()`` parity the crash tests
        assert.
        """
        with self._lock:
            return ResilienceStats(
                breaker_state=self._breaker.state.value,
                **{field: getattr(self._counts, field)
                   for field, *_ in _RESILIENCE_COUNTERS})

    def planner_stats(self) -> PlannerStats:
        """Instance-scoped snapshot of the ``planner.*`` counters."""
        with self._lock:
            counts = self._counts
            return PlannerStats(
                explains=counts.explains,
                quota_rejections=counts.quota_rejections,
                cost_sheds=counts.cost_sheds,
                priced_backlog_radio_s=self._pending_cost_radio_s(),
                live_cost_radio_s=self._live_cost_radio_s(),
            )

    def _backend_recovery(self) -> Dict[str, int]:
        """The backend simulation's ``recovery.*`` tally (none without
        one)."""
        fn = getattr(self._backend, "recovery_counts", None)
        return fn() if callable(fn) else {}

    def _backend_completeness(self) -> float:
        fn = getattr(self._backend, "row_completeness", None)
        return float(fn()) if callable(fn) else 1.0

    def validate(self) -> None:
        """Cross-layer invariants (used by the concurrency stress test)."""
        with self._lock:
            self.optimizer.table.validate()
            assert len(self._retired) <= RETIRED_RING_SIZE, (
                f"retired ring holds {len(self._retired)} tombstones, "
                f"over its bound {RETIRED_RING_SIZE}")
            listed = {tid for session in self._sessions.sessions()
                      for tid in session.tickets}
            assert listed == self._tickets.keys() | self._held.keys(), (
                f"sessions list {sorted(listed)}, ledger and held tickets "
                f"are {sorted(self._tickets.keys() | self._held.keys())}")
            assert not self._retired.keys() & listed, (
                f"retired tickets still listed by a session: "
                f"{sorted(self._retired.keys() & listed)}")
            for tid, row in self._held.items():
                owner = RetiredTicket.from_row(row).session_id
                assert tid in self._sessions.get(owner).tickets, (
                    f"held ticket {tid} is not its session's")
            live_by_key: Dict[CanonicalKey, int] = {}
            for ticket in self._tickets.values():
                assert not ticket.terminated, (
                    f"ticket {ticket.ticket_id} is {ticket.status.value} "
                    f"but still in the ledger")
                if ticket.status is TicketStatus.LIVE:
                    live_by_key[ticket.key] = live_by_key.get(ticket.key, 0) + 1
            entries = self._cache.entries()
            assert set(entries) == set(live_by_key), (
                f"cache entries {sorted(map(hash, entries))} != live ticket "
                f"keys {sorted(map(hash, live_by_key))}")
            for key, entry in entries.items():
                assert entry.refcount == live_by_key[key], (
                    f"refcount {entry.refcount} != live tickets "
                    f"{live_by_key[key]} for anchor {entry.anchor_qid}")
                assert entry.anchor_qid in self.optimizer.table.user, (
                    f"anchor {entry.anchor_qid} missing from query table")
            # Read path: a subscribed ticket is PENDING or LIVE and reads
            # through its own cursor until its first LIVE pump, then
            # through its anchor's, which exists exactly while it has
            # such a caught-up ticket.
            assert self._cursors.keys() <= self._subs.keys(), (
                f"cursors without subscribers: "
                f"{sorted(self._cursors.keys() - self._subs.keys())}")
            caught_up: Dict[int, Set[int]] = {}
            for ticket_id in self._subs:
                assert ticket_id in self._tickets, (
                    f"ticket {ticket_id} retired but still subscribed")
                ticket = self._tickets[ticket_id]
                if ticket_id not in self._cursors:
                    assert ticket.status is TicketStatus.LIVE, (
                        f"ticket {ticket_id} caught up while "
                        f"{ticket.status.value}")
                    caught_up.setdefault(ticket.anchor_qid, set()).add(
                        ticket_id)
            shared = {qid: s.tickets for qid, s in self._anchor_cursors.items()}
            assert shared == caught_up, (
                f"anchor cursors {shared} != caught-up tickets by anchor "
                f"{caught_up}")
