"""Hierarchical multi-base-station sharding with a root coordinator.

The paper's two tiers optimize *within* one base station's deployment.
This package scales *out*: the field is partitioned into K clusters
(:mod:`~repro.cluster.partition`), each served by its own tier-1
optimizer and WAL-backed :class:`~repro.service.QueryService` shard, and
a root coordinator — tier 0 — routes tenants over a consistent-hash ring
(:mod:`~repro.cluster.ring`), fans region-spanning queries out through
the root rewrite pass (:mod:`repro.core.basestation.root`), deduplicates
them in a root-level canonical-query cache, and merges per-shard result
streams epoch-aligned (:mod:`~repro.cluster.merge`).

See ``docs/architecture.md`` ("The cluster tier") and the ``cluster.*``
metric families in ``docs/observability.md``.
"""

from .coordinator import (
    ROOT_CLIENT,
    ClusterCoordinator,
    ClusterExplainReport,
    ClusterScope,
    ClusterStats,
    ClusterTicket,
    ShardDownError,
    ShardExplain,
)
from .deployment import ClusterDeployment
from .merge import combine_shard_aggregates, user_aggregates_view, user_view
from .partition import ClusterRegion, FieldPartition
from .ring import DEFAULT_VNODES, HashRing
from .supervisor import ShardIncident, ShardSupervisor, SupervisorConfig

__all__ = [
    "ClusterCoordinator",
    "ClusterDeployment",
    "ClusterExplainReport",
    "ClusterRegion",
    "ClusterScope",
    "ClusterStats",
    "ClusterTicket",
    "DEFAULT_VNODES",
    "FieldPartition",
    "HashRing",
    "ROOT_CLIENT",
    "ShardDownError",
    "ShardExplain",
    "ShardIncident",
    "ShardSupervisor",
    "SupervisorConfig",
    "combine_shard_aggregates",
    "user_aggregates_view",
    "user_view",
]
