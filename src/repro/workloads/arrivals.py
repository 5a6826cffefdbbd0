"""Adaptive (dynamic) workload construction for the Figure 4 experiments.

"We keep the average arrival frequency at 40s per query, but we vary the
average duration so that the average number of concurrent queries is
changing.  A set of workload is complete after the termination of 500
queries" (Section 4.3).

Arrivals form a Poisson process with mean interarrival 40 s; durations are
exponential with mean ``concurrency * 40 s``, which by Little's law yields
the requested average number of concurrent queries.
"""

from __future__ import annotations

import random
from typing import List

from .generator import QueryGenerator, QueryModel
from .spec import EventKind, Workload, WorkloadEvent

#: The paper's mean interarrival time (ms).
DEFAULT_INTERARRIVAL_MS = 40_000.0


def dynamic_workload(
    model: QueryModel,
    n_nodes: int,
    n_queries: int = 500,
    concurrency: float = 8.0,
    interarrival_ms: float = DEFAULT_INTERARRIVAL_MS,
    seed: int = 0,
    start_ms: float = 1000.0,
) -> Workload:
    """Generate a Poisson arrival / exponential duration workload.

    The workload horizon extends to the last departure, so runs "complete
    after the termination of [all] queries".
    """
    if n_queries < 1:
        raise ValueError(f"need at least one query (got {n_queries})")
    if concurrency <= 0:
        raise ValueError(f"concurrency must be positive (got {concurrency})")
    rng = random.Random(seed ^ 0x5EED)
    generator = QueryGenerator(model, n_nodes, seed=seed)
    mean_duration = concurrency * interarrival_ms

    events: List[WorkloadEvent] = []
    t = start_ms
    seq = 0
    last_departure = start_ms
    for _ in range(n_queries):
        t += rng.expovariate(1.0 / interarrival_ms)
        duration = max(rng.expovariate(1.0 / mean_duration), 1000.0)
        query = generator.next_query()
        events.append(WorkloadEvent(t, seq, EventKind.ARRIVE, query))
        seq += 1
        departure = t + duration
        events.append(WorkloadEvent(departure, seq, EventKind.DEPART, query))
        seq += 1
        last_departure = max(last_departure, departure)

    return Workload(events, duration_ms=last_departure + 1000.0,
                    description=(f"dynamic: {n_queries} queries, "
                                 f"target concurrency {concurrency:g}"))
