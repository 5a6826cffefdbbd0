"""The scripted-tenant schedule shared by ``serve_sim`` and ``cluster_sim``.

The driver owns the control plane, as :mod:`repro.cluster.load` does: one
sorted action list replayed between ``run_until`` slices, never callbacks
scheduled inside the engine, so calls into different layers are disjoint
in time and can be timed from outside.
"""

from __future__ import annotations

import queue
import random
from typing import List, Tuple

CONNECT, DISCONNECT, HOUSEKEEP = 0, 1, 2

#: ``(virtual ms, serial, kind, client index)``
Action = Tuple[float, int, int, int]


def schedule(rng: random.Random, n_clients: int, duration_ms: float,
             step_ms: float, early_fraction: float) -> List[Action]:
    """Seeded arrivals over the first 40% of the run, some early leavers,
    and a housekeeping slot every ``step_ms``; sorted by time."""
    actions: List[Action] = []
    arrivals = sorted(rng.uniform(1000.0, duration_ms * 0.4)
                      for _ in range(n_clients))
    for index, when in enumerate(arrivals):
        actions.append((when, index, CONNECT, index))
    early = rng.sample(range(n_clients), int(n_clients * early_fraction))
    for order, index in enumerate(early):
        actions.append((duration_ms * rng.uniform(0.7, 0.95),
                        n_clients + order, DISCONNECT, index))
    serial = len(actions)
    t = step_ms
    while t < duration_ms:
        actions.append((t, serial, HOUSEKEEP, -1))
        serial += 1
        t += step_ms
    actions.sort()
    return actions


def drain(subscriber: "queue.Queue", into: list) -> int:
    """Move everything queued for one subscriber into ``into``."""
    moved = 0
    while True:
        try:
            into.append(subscriber.get_nowait())
        except queue.Empty:
            return moved
        moved += 1


class Clients:
    """What the scripted tenants hold and have received so far."""

    def __init__(self, n_clients: int) -> None:
        self.session: List[object] = [None] * n_clients
        self.ticket: List[object] = [None] * n_clients
        self.subscriber: List[object] = [None] * n_clients
        self.received: List[list] = [[] for _ in range(n_clients)]
        self.submitted_ms: List[float] = [0.0] * n_clients
        self.first_ms: List[float] = [-1.0] * n_clients
        self.connected: List[int] = []
        self.terminated: set = set()

    def consume(self, now_ms: float) -> None:
        """Every connected client empties its queue, as a consumer would;
        an undrained bounded queue would fill and drop."""
        for index in self.connected:
            if drain(self.subscriber[index], self.received[index]) \
                    and self.first_ms[index] < 0:
                self.first_ms[index] = now_ms

    def unserved(self) -> List[int]:
        return [i for i, got in enumerate(self.received)
                if i not in self.terminated and not got]

    def ttfr_ms(self) -> List[float]:
        return [first - submitted for first, submitted
                in zip(self.first_ms, self.submitted_ms) if first >= 0]

    def items(self) -> int:
        return sum(len(got) for got in self.received)
