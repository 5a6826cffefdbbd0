"""Failure injection and delivery-completeness measurement.

The paper defers "node failures and unreliable wireless transmissions" to
future work (Section 5).  This module provides the experimental apparatus
for that extension:

* :class:`FailureInjector` — schedules fail-stop outages (transient
  crashes) on sensor nodes;
* :func:`row_completeness` — the QoS metric the extension optimises:
  the fraction of ground-truth matching (node, epoch) readings that
  actually reached the base station for an acquisition query.

Interesting asymmetry the robustness benchmark demonstrates: the baseline's
fixed routing tree loses a whole subtree while a relay is down, whereas
tier-2's DAG reroutes around failed parents via the delivery-failure
backoff, so TTMQO degrades more gracefully than TinyDB even though neither
was designed for failures.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..queries.ast import Query
from ..sensors.field import SensorWorld
from ..sim.network import Topology
from ..sim.runtime import Simulation


@dataclass(frozen=True)
class Outage:
    """One injected fail-stop interval."""

    node_id: int
    start_ms: float
    duration_ms: float

    @property
    def end_ms(self) -> float:
        return self.start_ms + self.duration_ms

    def covers(self, time_ms: float) -> bool:
        """Half-open containment: down at ``start_ms``, back up at ``end_ms``.

        This matches the simulator exactly — ``SensorNode.fail`` powers the
        radio off at the instant the outage starts and the recovery event at
        ``end_ms`` restores it, so a frame arriving at ``end_ms`` *is*
        received.  Every consumer (``down_nodes_at``, ``expected_rows``)
        uses this same edge convention.
        """
        return self.start_ms <= time_ms < self.end_ms

    def overlaps(self, other: "Outage") -> bool:
        """Share any instant (or touch end-to-start) on the same node?"""
        return (self.node_id == other.node_id
                and self.start_ms <= other.end_ms
                and other.start_ms <= self.end_ms)


def merge_outages(outages: Iterable[Outage]) -> List[Outage]:
    """Union overlapping/touching outages into maximal intervals per node.

    The simulator already behaves this way (``SensorNode.fail`` only ever
    *extends* the failure deadline, so a shorter overlapping outage cannot
    revive a node another outage still covers); merging the schedule gives
    analysis code the same ground truth.  Output is sorted by
    (node, start).
    """
    per_node: dict = {}
    for outage in sorted(outages,
                         key=lambda o: (o.node_id, o.start_ms, o.end_ms)):
        merged = per_node.setdefault(outage.node_id, [])
        if merged and outage.start_ms <= merged[-1].end_ms:
            last = merged[-1]
            if outage.end_ms > last.end_ms:
                merged[-1] = Outage(last.node_id, last.start_ms,
                                    outage.end_ms - last.start_ms)
        else:
            merged.append(outage)
    return [o for node in sorted(per_node) for o in per_node[node]]


class FailureInjector:
    """Schedules outages on a simulation before (or while) it runs."""

    def __init__(self, sim: Simulation, seed: int = 0) -> None:
        self._sim = sim
        self._rng = random.Random((seed << 12) ^ 0xFA11)
        self.outages: List[Outage] = []

    def fail_at(self, node_id: int, start_ms: float, duration_ms: float) -> Outage:
        """Inject one outage at an absolute virtual time."""
        if node_id == self._sim.topology.base_station:
            raise ValueError("refusing to fail the base station")
        outage = Outage(node_id, start_ms, duration_ms)
        self.outages.append(outage)
        node = self._sim.nodes[node_id]
        self._sim.engine.schedule_at(start_ms, node.fail, duration_ms)
        return outage

    def random_outages(
        self,
        count: int,
        duration_ms: float,
        window: Tuple[float, float],
        candidates: Optional[Iterable[int]] = None,
    ) -> List[Outage]:
        """Inject ``count`` outages at random nodes/times inside ``window``.

        The same node may fail more than once; the base station never
        fails.  Deterministic given the injector seed.
        """
        pool = sorted(candidates if candidates is not None
                      else self._sim.topology.node_ids)
        pool = [n for n in pool if n != self._sim.topology.base_station]
        if not pool:
            raise ValueError("no failure candidates")
        lo, hi = window
        if hi - duration_ms <= lo:
            raise ValueError("window too small for the outage duration")
        injected = []
        for _ in range(count):
            node_id = self._rng.choice(pool)
            start = self._rng.uniform(lo, hi - duration_ms)
            injected.append(self.fail_at(node_id, start, duration_ms))
        return injected

    def merged_outages(self) -> List[Outage]:
        """The injected schedule as maximal per-node down intervals."""
        return merge_outages(self.outages)

    def down_nodes_at(self, time_ms: float) -> List[int]:
        """Nodes that are failed at a given instant (merged intervals)."""
        return sorted({o.node_id for o in self.merged_outages()
                       if o.covers(time_ms)})


def expected_rows(
    query: Query,
    world: SensorWorld,
    topology: Topology,
    epochs: Iterable[float],
    down: Optional[Iterable[Outage]] = None,
) -> List[Tuple[float, int]]:
    """Ground-truth (epoch, origin) pairs an acquisition query should yield.

    Nodes that are failed at the epoch instant are excluded — a dead node
    cannot be expected to report, so completeness measures *routing* loss,
    not source loss.
    """
    return expected_rows_by_query([(query, epochs)], world, topology, down)[0]


def expected_rows_by_query(
    work: Sequence[Tuple[Query, Iterable[float]]],
    world: SensorWorld,
    topology: Topology,
    down: Optional[Iterable[Outage]] = None,
) -> List[List[Tuple[float, int]]]:
    """:func:`expected_rows` for each ``(query, epochs)`` of ``work``.

    Each epoch any query observes is visited once, in first-seen order,
    and each (node, attribute) reading it needs is sampled once however
    many queries read it; only one node's readings at one epoch are held
    at a time.  The world is deterministic, so a shared reading is the
    reading each query would have sampled.
    """
    observers: Dict[float, List[int]] = {}
    prepared = []
    for index, (query, epochs) in enumerate(work):
        if not query.is_acquisition:
            raise ValueError("expected_rows only applies to acquisition queries")
        prepared.append((tuple(query.requested_attributes()),
                         query.predicates.matches))
        for t in epochs:
            observers.setdefault(t, []).append(index)
    down_by_node: Dict[int, List[Outage]] = {}
    for outage in merge_outages(down or ()):
        down_by_node.setdefault(outage.node_id, []).append(outage)
    nodes = [node for node in topology.node_ids
             if node != topology.base_station]
    sample = world.sample
    expected: List[List[Tuple[float, int]]] = [[] for _ in work]
    for t, indices in observers.items():
        for node in nodes:
            outages = down_by_node.get(node)
            if outages and any(o.covers(t) for o in outages):
                continue
            readings: Dict[str, float] = {}
            for index in indices:
                attributes, matches = prepared[index]
                row = {}
                for attribute in attributes:
                    value = readings.get(attribute)
                    if value is None:
                        value = readings[attribute] = sample(node, attribute, t)
                    row[attribute] = value
                if matches(row):
                    expected[index].append((t, node))
    return expected


def row_completeness(
    received: Iterable[Tuple[float, int]],
    expected: Iterable[Tuple[float, int]],
) -> float:
    """Fraction of expected (epoch, origin) pairs that arrived."""
    expected_set = set(expected)
    if not expected_set:
        return 1.0
    received_set = set(received) & expected_set
    return len(received_set) / len(expected_set)
