"""A multi-tenant query gateway over one sensor deployment.

Sixty dashboards connect to the same 16-node deployment, but they only
ask six distinct questions between them — each phrased slightly
differently (case, SAMPLE PERIOD vs EPOCH DURATION).  The
:class:`repro.service.QueryService` front door canonicalizes every
submission, so equivalent queries share one refcounted tier-1 anchor:
the sensor network sees a handful of injections while every client's
subscription queue still fills with its own mapped results.

Each scripted client opens a session, submits its question, subscribes,
and collects results while the packet-level simulation runs; clients
arrive over the first 40% of the horizon and 15% of them disconnect
early.  The service's batch window closes on a periodic tick and results
fan out once per smallest epoch, all on the simulation's virtual clock.

Run:  python examples/service_gateway.py
(exits 1 unless every client that stayed subscribed received results)
"""

import random
import sys
from dataclasses import dataclass
from typing import List

from repro.harness import Deployment, DeploymentConfig, Strategy, print_table
from repro.service import QueryService, ServiceStats
from repro.service.load import _QUERY_POOL, _perturb

#: Share of clients that terminate their query before the horizon.
EARLY_TERMINATE_FRACTION = 0.15


@dataclass
class ScriptedClient:
    """What one scripted client asked and received."""

    client_id: str
    query_text: str
    cache_hit: bool = False
    results_received: int = 0
    terminated_early: bool = False


@dataclass
class DemoReport:
    """The service's counters after the run, and every client's outcome."""

    stats: ServiceStats
    clients: List[ScriptedClient]

    @property
    def clients_served(self) -> int:
        return sum(1 for c in self.clients if c.results_received > 0)

    @property
    def all_clients_served(self) -> bool:
        """Every client that stayed subscribed got at least one result."""
        return all(c.results_received > 0 for c in self.clients
                   if not c.terminated_early)


def run_demo(n_clients: int = 60, n_unique: int = 6, side: int = 4,
             duration_s: float = 45.0, seed: int = 0,
             batch_window_ms: float = 500.0) -> DemoReport:
    """Drive ``n_clients`` scripted clients, drawing from ``n_unique``
    distinct questions, against one simulated TTMQO deployment."""
    rng = random.Random(seed ^ 0x5E21)
    duration_ms = duration_s * 1000.0
    deployment = Deployment(Strategy.TTMQO,
                            DeploymentConfig(side=side, seed=seed))
    sim = deployment.sim
    service = QueryService(deployment, batch_window_ms=batch_window_ms,
                           default_ttl_ms=duration_ms * 10.0,
                           clock=lambda: sim.now)
    clients: List[ScriptedClient] = []
    handles = []  # parallel to clients: (session id, ticket, subscriber)

    def connect(index: int) -> None:
        client_id = f"client-{index:03d}"
        text = _perturb(_QUERY_POOL[index % n_unique], rng)
        session_id = service.open_session(client_id)
        ticket = service.submit(session_id, text)
        handles.append((session_id, ticket,
                        service.subscribe(session_id, ticket.ticket_id)))
        clients.append(ScriptedClient(client_id, text))

    def disconnect(position: int) -> None:
        session_id, ticket, _ = handles[position]
        clients[position].terminated_early = True
        service.terminate(session_id, ticket.ticket_id)

    spacing = duration_ms * 0.4 / max(n_clients, 1)
    for index in range(n_clients):
        sim.engine.schedule_at(1000.0 + index * spacing, connect, index)
    tick_period = max(batch_window_ms, 64.0)
    t = 1000.0
    while t < duration_ms:
        sim.engine.schedule_at(t + tick_period * 0.999, service.tick)
        t += tick_period
    t = 2048.0
    while t < duration_ms:
        sim.engine.schedule_at(t + 1.0, service.pump)
        t += 2048.0
    n_early = int(n_clients * EARLY_TERMINATE_FRACTION)
    for position in rng.sample(range(n_clients), n_early):
        sim.engine.schedule_at(duration_ms * rng.uniform(0.7, 0.95),
                               disconnect, position)

    sim.start()
    sim.run_until(duration_ms + 4000.0)
    service.flush()
    service.pump()
    for client, (_, ticket, subscriber) in zip(clients, handles):
        # A batched admission decides the cache hit when its window closes.
        client.cache_hit = ticket.cache_hit
        client.results_received = subscriber.qsize()
    report = DemoReport(stats=service.stats(), clients=clients)
    deployment.close()
    return report


def main() -> int:
    report = run_demo()
    stats = report.stats

    print_table(
        ["client", "cache", "results", "query (as typed)"],
        [[c.client_id,
          "hit" if c.cache_hit else "miss",
          c.results_received,
          c.query_text[:52] + ("..." if len(c.query_text) > 52 else "")]
         for c in report.clients[:12]],
        title="first 12 of 60 clients",
    )

    print("\n60 clients, 6 distinct questions, 45s simulated:")
    print(f"  sessions opened / expired      : "
          f"{stats.sessions_opened_total} / {stats.sessions_expired_total}")
    print(f"  cache hit rate                 : "
          f"{100.0 * stats.cache_hit_rate:.0f}% "
          f"({stats.cache_hits} of {stats.cache_hits + stats.cache_misses} "
          f"lookups)")
    print(f"  arrivals absorbed w/o inject   : "
          f"{stats.admissions_without_inject} of {stats.admitted_total} "
          f"({100.0 * stats.absorbed_admission_rate:.0f}%)")
    print(f"  admission latency p50 / p95    : "
          f"{stats.admission_latency_p50_ms:.0f} / "
          f"{stats.admission_latency_p95_ms:.0f} ms")
    print(f"  live user / synthetic queries  : "
          f"{stats.live_user_queries} / {stats.live_synthetic_queries}")
    print(f"  results fanned out             : {stats.results_delivered}")
    print(f"  clients that received results  : "
          f"{report.clients_served} of {len(report.clients)}")
    return 0 if report.all_clients_served else 1


if __name__ == "__main__":
    sys.exit(main())
