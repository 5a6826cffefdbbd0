"""Workload representation: timed query arrivals and departures.

A workload is a list of events on the virtual-time axis.  Static workloads
(Figure 3, Figure 5) inject everything near t=0 and never terminate;
adaptive workloads (Figure 4) draw arrival/duration processes (500 queries
in the paper's runs).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..queries.ast import Query


class EventKind(enum.Enum):
    ARRIVE = "arrive"
    DEPART = "depart"


@dataclass(frozen=True, order=True)
class WorkloadEvent:
    """One user action: a query arriving at or leaving the base station."""

    time_ms: float
    seq: int
    kind: EventKind = field(compare=False)
    query: Query = field(compare=False)


@dataclass
class Workload:
    """A time-ordered sequence of query arrivals/departures."""

    events: List[WorkloadEvent]
    #: Total horizon; simulations run this long (plus drain time).
    duration_ms: float
    description: str = ""

    def __post_init__(self) -> None:
        self.events = sorted(self.events)

    @classmethod
    def static(cls, queries: Sequence[Query], duration_ms: float,
               start_ms: float = 500.0, spacing_ms: float = 50.0,
               description: str = "") -> "Workload":
        """All queries arrive back-to-back near the start and never leave."""
        events = [
            WorkloadEvent(start_ms + i * spacing_ms, i, EventKind.ARRIVE, q)
            for i, q in enumerate(queries)
        ]
        return cls(events, duration_ms, description)

    @property
    def queries(self) -> List[Query]:
        """Every distinct query that arrives, in arrival order."""
        return [e.query for e in self.events if e.kind is EventKind.ARRIVE]

    def max_qid(self) -> int:
        """The largest qid among the workload's queries (0 when empty).

        A tier-1 replay starts its optimizer's synthetic qids past it.
        """
        return max((e.query.qid for e in self.events), default=0)

    def arrival_count(self) -> int:
        return sum(1 for e in self.events if e.kind is EventKind.ARRIVE)

    def concurrency_profile(self) -> List[Tuple[float, int]]:
        """(time, #running queries) after each event — for sanity checks."""
        profile: List[Tuple[float, int]] = []
        running = 0
        for event in self.events:
            running += 1 if event.kind is EventKind.ARRIVE else -1
            profile.append((event.time_ms, running))
        return profile

    def average_concurrency(self) -> float:
        """Time-averaged number of running queries over the horizon."""
        if not self.events:
            return 0.0
        area = 0.0
        running = 0
        last_t = 0.0
        for event in self.events:
            area += running * (event.time_ms - last_t)
            running += 1 if event.kind is EventKind.ARRIVE else -1
            last_t = event.time_ms
        area += running * max(self.duration_ms - last_t, 0.0)
        return area / self.duration_ms if self.duration_ms > 0 else 0.0
