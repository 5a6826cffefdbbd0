"""Scripted multi-tenant load against a sharded cluster deployment.

The cluster analogue of :func:`repro.service.run_scripted_load`: N
scripted clients connect to the root coordinator of a partitioned field,
drawing from a pool that mixes *region-local* questions (``nodeid
BETWEEN`` one shard's band — routed to that shard alone) with *global*
questions (fanned out to every shard and merged at the root).  The K
per-shard simulations advance in lockstep while the coordinator ticks,
flushes, and pumps on the shared virtual clock.

Used by ``python -m repro cluster``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..harness.strategies import Strategy
from .coordinator import ClusterStats
from .deployment import ClusterDeployment
from .partition import FieldPartition

#: Globally scoped questions (span every region, merged at the root).
_GLOBAL_POOL = (
    "SELECT light FROM sensors WHERE light > 300 EPOCH DURATION 4096",
    "SELECT AVG(temp) FROM sensors EPOCH DURATION 8192",
    "SELECT MAX(light) FROM sensors EPOCH DURATION 8192",
    "SELECT temp FROM sensors WHERE temp BETWEEN 10 AND 30 "
    "EPOCH DURATION 4096",
)


def build_query_pool(partition: FieldPartition) -> Tuple[str, ...]:
    """Global questions interleaved with one local question per region."""
    local = tuple(
        f"SELECT temp FROM sensors WHERE nodeid BETWEEN "
        f"{region.sensor_ids[0]} AND {region.sensor_ids[-1]} "
        f"EPOCH DURATION 4096"
        for region in partition.regions)
    pool: List[str] = []
    for index in range(max(len(_GLOBAL_POOL), len(local))):
        if index < len(_GLOBAL_POOL):
            pool.append(_GLOBAL_POOL[index])
        if index < len(local):
            pool.append(local[index])
    return tuple(pool)


@dataclass
class ClusterClientOutcome:
    """What one scripted cluster client experienced."""

    client_id: str
    query_text: str
    ticket_id: str
    #: ``local`` (single-shard) or ``fanout`` (root-merged).
    scope: str
    cache_hit: bool = False
    results_received: int = 0
    terminated_early: bool = False


@dataclass
class ClusterLoadReport:
    """Outcome of one scripted cluster run."""

    stats: ClusterStats
    clients: List[ClusterClientOutcome]
    unique_queries: int
    duration_ms: float
    shards: int

    @property
    def clients_served(self) -> int:
        return sum(1 for c in self.clients if c.results_received > 0)

    @property
    def all_clients_served(self) -> bool:
        """Every client that stayed subscribed got at least one result."""
        return all(c.results_received > 0 for c in self.clients
                   if not c.terminated_early)


def run_cluster_load(
    n_shards: int = 4,
    n_clients: int = 48,
    n_unique: int = 6,
    side: int = 8,
    duration_s: float = 30.0,
    seed: int = 0,
    batch_window_ms: float = 250.0,
    early_terminate_fraction: float = 0.1,
    strategy: Strategy = Strategy.TTMQO,
    progress: Optional[Callable[[float], None]] = None,
) -> ClusterLoadReport:
    """Drive ``n_clients`` scripted clients against a sharded cluster.

    Clients draw from ``n_unique`` distinct questions, arrive spread over
    the first 40% of the horizon, and a small fraction terminates early
    (exercising the root cache's refcounted release).  Control-plane
    actions (connects, ticks, pumps, disconnects) run on the lockstep
    clock between simulation advances.
    """
    partition = FieldPartition(side, n_shards, quality_seed=seed)
    pool = build_query_pool(partition)
    if n_unique < 1 or n_unique > len(pool):
        raise ValueError(
            f"n_unique must be in 1..{len(pool)} for side={side}, "
            f"n_shards={n_shards} (got {n_unique})")
    rng = random.Random(seed ^ 0xC1_05)
    duration_ms = duration_s * 1000.0
    cluster = ClusterDeployment(partition, strategy, seed=seed,
                                batch_window_ms=batch_window_ms)
    coordinator = cluster.coordinator

    outcomes: List[ClusterClientOutcome] = []
    subscriptions: List[tuple] = []  # (session_id, subscriber, outcome)

    def _connect(index: int) -> None:
        text = pool[index % n_unique]
        client_id = f"client-{index:03d}"
        session_id = coordinator.open_session(client_id)
        ticket = coordinator.submit(session_id, text)
        subscriber = coordinator.subscribe(session_id, ticket.ticket_id)
        outcome = ClusterClientOutcome(
            client_id=client_id, query_text=text,
            ticket_id=ticket.ticket_id, scope=ticket.scope)
        outcomes.append(outcome)
        subscriptions.append((session_id, subscriber, outcome))

    def _disconnect(position: int) -> None:
        session_id, _, outcome = subscriptions[position]
        if not outcome.terminated_early:
            outcome.terminated_early = True
            coordinator.terminate(session_id, outcome.ticket_id)

    # One sorted control-plane schedule over the lockstep clock.
    actions: List[Tuple[float, int, Callable[[], None]]] = []
    arrival_span = duration_ms * 0.4
    spacing = arrival_span / max(n_clients, 1)
    for index in range(n_clients):
        actions.append((1000.0 + index * spacing, index,
                        lambda i=index: _connect(i)))
    n_early = int(n_clients * early_terminate_fraction)
    for order, position in enumerate(rng.sample(range(n_clients), n_early)):
        actions.append((duration_ms * rng.uniform(0.7, 0.95),
                        n_clients + order,
                        lambda p=position: _disconnect(p)))
    step = max(batch_window_ms, 512.0)
    t = step
    serial = len(actions)
    while t < duration_ms:
        actions.append((t, serial, lambda: coordinator.flush()))
        actions.append((t + 1.0, serial + 1, lambda: cluster.pump()))
        serial += 2
        t += step
    actions.sort()

    for when, _, action in actions:
        cluster.run_until(when)
        action()
        if progress is not None:
            progress(when / duration_ms)

    # Drain: one extra slice of virtual time so in-flight epochs land.
    cluster.run_until(duration_ms + 4000.0)
    coordinator.flush()
    cluster.pump(final=True)

    for session_id, subscriber, outcome in subscriptions:
        outcome.results_received = subscriber.qsize()
        outcome.cache_hit = coordinator.ticket(outcome.ticket_id).cache_hit

    report = ClusterLoadReport(
        stats=coordinator.stats(),
        clients=outcomes,
        unique_queries=n_unique,
        duration_ms=duration_ms,
        shards=n_shards,
    )
    cluster.close()
    return report
