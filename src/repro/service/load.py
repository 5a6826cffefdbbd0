"""Scripted multi-client load against a simulated deployment.

This is the service layer's "zero to aha" demo: N simulated clients —
far more clients than distinct questions — connect to a
:class:`QueryService` fronting a full packet-level TTMQO deployment.
Each client opens a session, submits a (usually duplicated, textually
perturbed) query, subscribes, and collects mapped results while the
sensor network runs.  The canonical cache plus batched admission absorb
the duplicate arrivals, so the network sees a handful of injections for
dozens of clients, yet every subscription still fills with that client's
own mapped rows/aggregates.

Used by ``python -m repro serve``, ``examples/service_gateway.py`` and
``benchmarks/test_ext_service.py``.
"""

from __future__ import annotations

import random
import signal
import threading
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..harness.strategies import Deployment, DeploymentConfig, Strategy
from .durability import DurabilityConfig
from .service import QueryService, ResilienceStats, ServiceStats


class _GracefulStop(Exception):
    """Internal: unwinds the sim loop after a SIGTERM/SIGINT shutdown."""

#: Base pool of distinct questions clients may ask (cycled, then
#: textually perturbed per client to exercise canonicalization).
_QUERY_POOL = (
    "SELECT light FROM sensors WHERE light > 300 EPOCH DURATION 4096",
    "SELECT light, temp FROM sensors WHERE temp > 15 EPOCH DURATION 4096",
    "SELECT MAX(light) FROM sensors EPOCH DURATION 8192",
    "SELECT MIN(temp) FROM sensors WHERE light > 200 EPOCH DURATION 8192",
    "SELECT temp FROM sensors WHERE temp BETWEEN 10 AND 30 "
    "EPOCH DURATION 4096",
    "SELECT AVG(temp) FROM sensors EPOCH DURATION 8192",
    "SELECT nodeid, light FROM sensors WHERE light < 700 EPOCH DURATION 4096",
    "SELECT MAX(temp) FROM sensors WHERE temp > 5 EPOCH DURATION 8192",
)


def _perturb(text: str, rng: random.Random) -> str:
    """A semantics-preserving textual variant of ``text``.

    Random keyword/attribute case plus ``EPOCH DURATION`` vs ``SAMPLE
    PERIOD`` — the service's canonicalizer must collapse all of these onto
    one cache key.
    """
    variant = text
    choice = rng.random()
    if choice < 0.3:
        variant = variant.lower()
    elif choice < 0.5:
        variant = variant.upper()
    if rng.random() < 0.4:
        variant = variant.replace("EPOCH DURATION", "SAMPLE PERIOD") \
            .replace("epoch duration", "sample period")
    return variant


@dataclass
class ClientOutcome:
    """What one scripted client experienced."""

    client_id: str
    query_text: str
    ticket_id: int
    cache_hit: bool = False
    results_received: int = 0
    terminated_early: bool = False


@dataclass
class LoadReport:
    """Outcome of one scripted service run."""

    stats: ServiceStats
    clients: List[ClientOutcome]
    unique_queries: int
    duration_ms: float
    #: True when SIGTERM/SIGINT cut the run short (graceful shutdown ran).
    interrupted: bool = False
    #: Tickets terminated by the end-of-run ``shutdown()`` (state-dir runs).
    shutdown_terminated: int = 0
    #: Durability/overload counters (state-dir runs; ``None`` otherwise).
    resilience: Optional[ResilienceStats] = None

    @property
    def clients_served(self) -> int:
        return sum(1 for c in self.clients if c.results_received > 0)

    @property
    def all_clients_served(self) -> bool:
        """Every client that stayed subscribed got at least one result."""
        return all(c.results_received > 0 for c in self.clients
                   if not c.terminated_early)


def run_scripted_load(
    n_clients: int = 60,
    n_unique: int = 6,
    side: int = 4,
    duration_s: float = 45.0,
    seed: int = 0,
    batch_window_ms: float = 500.0,
    ttl_s: Optional[float] = None,
    early_terminate_fraction: float = 0.15,
    strategy: Strategy = Strategy.TTMQO,
    config: Optional[DeploymentConfig] = None,
    state_dir: Optional[str] = None,
    handle_signals: bool = False,
    stop_event: Optional[threading.Event] = None,
) -> LoadReport:
    """Drive ``n_clients`` scripted clients against one simulated service.

    Clients draw from ``n_unique`` distinct questions (so duplication
    factor is ``n_clients / n_unique``), arrive spread over the first 40%
    of the horizon, and a small fraction terminate early.  Returns the
    full :class:`LoadReport`.

    ``state_dir`` enables durability (WAL + periodic snapshots in that
    directory) and finishes the run with a graceful ``shutdown()`` — no
    zombie queries survive, and the directory is left at a clean recovery
    point.  ``handle_signals`` additionally installs SIGTERM/SIGINT
    handlers for the duration of the run: on a signal the service stops
    admitting, flushes the open batch window, terminates every live
    ticket through the ordinary path, snapshots, and the run returns
    early with ``interrupted=True``.

    ``signal.signal`` only works on the main thread; when the run is
    hosted elsewhere (the gateway serves from a worker thread),
    ``handle_signals=True`` degrades to a warning instead of a
    ``ValueError``, and graceful shutdown stays reachable through
    ``stop_event`` — an external :class:`threading.Event` polled on every
    housekeeping tick that triggers the same drain path as a signal.
    """
    if n_unique < 1 or n_unique > len(_QUERY_POOL):
        raise ValueError(
            f"n_unique must be in 1..{len(_QUERY_POOL)} (got {n_unique})")
    rng = random.Random(seed ^ 0x5E21)
    duration_ms = duration_s * 1000.0
    deployment = Deployment(strategy,
                            config or DeploymentConfig(side=side, seed=seed))
    sim = deployment.sim
    service = QueryService(deployment, batch_window_ms=batch_window_ms,
                           default_ttl_ms=(ttl_s * 1000.0 if ttl_s
                                           else duration_ms * 10.0),
                           clock=lambda: sim.now,
                           durability=(DurabilityConfig(
                               directory=state_dir, snapshot_every_ops=32)
                               if state_dir is not None else None))
    stop_requested = {"flag": False, "terminated": 0}

    def _on_signal(signum, frame):  # pragma: no cover - signal timing
        stop_requested["flag"] = True

    def _tick() -> None:
        if stop_requested["flag"] or (stop_event is not None
                                      and stop_event.is_set()):
            stop_requested["terminated"] = len(service.shutdown(sim.now))
            raise _GracefulStop
        service.tick()

    outcomes: List[ClientOutcome] = []
    queues: Dict[int, "object"] = {}

    arrival_span = duration_ms * 0.4
    spacing = arrival_span / max(n_clients, 1)

    def _connect(index: int) -> None:
        text = _perturb(_QUERY_POOL[index % n_unique], rng)
        client_id = f"client-{index:03d}"
        session_id = service.open_session(client_id)
        ticket = service.submit(session_id, text)
        subscriber = service.subscribe(session_id, ticket.ticket_id)
        outcome = ClientOutcome(client_id=client_id, query_text=text,
                                ticket_id=ticket.ticket_id)
        outcomes.append(outcome)
        queues[ticket.ticket_id] = (session_id, subscriber, outcome, ticket)

    for index in range(n_clients):
        sim.engine.schedule_at(1000.0 + index * spacing, _connect, index)

    # Batch windows close on a periodic tick; results fan out once per
    # smallest epoch against the sim runtime.
    tick_period = max(batch_window_ms, 64.0)
    t = 1000.0
    while t < duration_ms:
        sim.engine.schedule_at(t + tick_period * 0.999, _tick)
        t += tick_period
    t = 2048.0
    while t < duration_ms:
        sim.engine.schedule_at(t + 1.0, service.pump)
        t += 2048.0

    # A slice of clients disconnects early (exercises refcounted release).
    n_early = int(n_clients * early_terminate_fraction)

    def _disconnect(position: int) -> None:
        session_id, _, outcome, _ = queues[outcomes[position].ticket_id]
        outcome.terminated_early = True
        service.terminate(session_id, outcomes[position].ticket_id)

    for position in rng.sample(range(n_clients), n_early):
        sim.engine.schedule_at(duration_ms * rng.uniform(0.7, 0.95),
                               _disconnect, position)

    previous_handlers = {}
    if handle_signals:
        if threading.current_thread() is threading.main_thread():
            for signum in (signal.SIGTERM, signal.SIGINT):
                previous_handlers[signum] = signal.signal(signum, _on_signal)
        else:
            # signal.signal raises ValueError off the main thread — exactly
            # where the gateway hosts this loop.  Graceful shutdown stays
            # available through stop_event.
            warnings.warn(
                "run_scripted_load(handle_signals=True) called off the main "
                "thread; signal handlers not installed — use stop_event to "
                "request a graceful shutdown",
                RuntimeWarning, stacklevel=2)
    interrupted = False
    try:
        sim.start()
        sim.run_until(duration_ms + 4000.0)
        service.flush()
        service.pump()
    except _GracefulStop:
        interrupted = True
    finally:
        for signum, handler in previous_handlers.items():
            signal.signal(signum, handler)

    for session_id, subscriber, outcome, ticket in queues.values():
        # The submitted ticket itself: ``service.ticket()`` forgets an id
        # once the retired ring has moved past it.
        outcome.results_received = subscriber.qsize()
        outcome.cache_hit = ticket.cache_hit

    stats = service.stats()
    shutdown_terminated = stop_requested["terminated"]
    resilience = None
    if state_dir is not None:
        # Finish at a clean recovery point: the shutdown WAL record plus
        # a final snapshot, with no queries left running in the network.
        # (Idempotent after a signal-driven shutdown.)
        shutdown_terminated += len(service.shutdown())
        resilience = service.resilience_stats()
    deployment.close()

    return LoadReport(
        stats=stats,
        clients=outcomes,
        unique_queries=n_unique,
        duration_ms=duration_ms,
        interrupted=interrupted,
        shutdown_terminated=shutdown_terminated,
        resilience=resilience,
    )
