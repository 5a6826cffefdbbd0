"""Service layer: a concurrent multi-tenant front-end over tier-1 (S9).

Turns the batch reproduction into a servable system: sessions with TTL
leases, a canonical-query dedup cache, batched admission, queue-based
result subscriptions, and a metrics snapshot — see
``docs/architecture.md`` ("The service layer").
"""

from .admission import AdmissionBatcher, PendingAdmission
from .cache import CacheEntry, CanonicalQueryCache
from .durability import (
    DurabilityConfig,
    RecoveryReport,
    SnapshotStore,
    WriteAheadLog,
)
from .overload import BreakerState, CircuitBreaker, OverloadConfig
from .planner import (
    AttributeHistogram,
    ExplainReport,
    PlannerStats,
    QueryPlanner,
    QueryPrice,
    StatisticsStore,
    TenantQuotas,
    WorkloadEstimate,
    collect_statistics,
    estimate_workload,
)
from .replication import (
    PrimaryReplicator,
    ReplicationConfig,
    StandbyServer,
)
from .service import (
    RETIRED_RING_SIZE,
    OptimizerBackend,
    QueryService,
    ResilienceStats,
    RetiredTicket,
    ServiceClosed,
    ServiceStats,
    Ticket,
    TicketStatus,
)
from .session import DEFAULT_TTL_MS, Session, SessionError, SessionManager
from .subscriber import SubscriberQueue

__all__ = [
    "AdmissionBatcher",
    "AttributeHistogram",
    "BreakerState",
    "CircuitBreaker",
    "CacheEntry",
    "CanonicalQueryCache",
    "DEFAULT_TTL_MS",
    "DurabilityConfig",
    "ExplainReport",
    "OptimizerBackend",
    "OverloadConfig",
    "PendingAdmission",
    "PlannerStats",
    "PrimaryReplicator",
    "ReplicationConfig",
    "StandbyServer",
    "QueryPlanner",
    "QueryPrice",
    "QueryService",
    "RETIRED_RING_SIZE",
    "RecoveryReport",
    "ResilienceStats",
    "RetiredTicket",
    "ServiceClosed",
    "ServiceStats",
    "Session",
    "SnapshotStore",
    "SessionError",
    "SessionManager",
    "StatisticsStore",
    "SubscriberQueue",
    "TenantQuotas",
    "Ticket",
    "TicketStatus",
    "WorkloadEstimate",
    "WriteAheadLog",
    "collect_statistics",
    "estimate_workload",
]
