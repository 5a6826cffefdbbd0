"""Application-layer payloads carried inside radio frames.

Shared by the TinyDB baseline processor and the TTMQO in-network processor
(the paper implements TTMQO "on top of TinyDB").  Each payload computes its
own encoded size, which the radio layer turns into airtime.

Payloads are values: they compare and hash on their fields, and nothing
changes one once it is on the air.  They are plain (not frozen)
dataclasses with ``unsafe_hash=True`` because a frozen dataclass pays an
``object.__setattr__`` call per field on construction, and the simulator
builds one or more payloads per frame; ``tests/sim/test_frame_objects.py``
checks the no-mutation rule instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Mapping, Tuple

from ..queries.ast import Query
from ..sim import messages as wire
from .aggregation import PartialAggregate


@dataclass(unsafe_hash=True)
class QueryPayload:
    """Query propagation (flooding) frame.

    ``sender_level`` and ``sender_has_data`` implement the Section 3.2.2
    piggyback: "when the query is propagated from node x at level i to level
    i+1, node x checks whether it has the data the query retrieves, and
    piggybacks this information down".  The baseline ignores both fields.

    ``generation`` supports periodic re-advertisement: floods are
    unacknowledged broadcasts, so a node can miss a query in a collision;
    the base station re-floods running queries with an incremented
    generation and nodes re-propagate each (qid, generation) pair once.
    """

    query: Query
    sender: int
    sender_level: int
    sender_has_data: bool = False
    generation: int = 0
    #: QoS flag (extension): reliable queries get multipath row delivery.
    reliable: bool = False

    def payload_bytes(self) -> int:
        return wire.query_payload_bytes(
            n_attributes=len(self.query.attributes),
            n_aggregates=len(self.query.aggregates),
            n_predicates=len(self.query.predicates),
        ) + 2  # level + has-data/reliable piggyback bits + generation

    def advance(self, sender: int, sender_level: int, has_data: bool) -> "QueryPayload":
        """The payload a relaying node floods onward."""
        return QueryPayload(self.query, sender, sender_level, has_data,
                            self.generation, self.reliable)


@dataclass(unsafe_hash=True)
class AbortPayload:
    """Query abortion frame."""

    qid: int

    def payload_bytes(self) -> int:
        return wire.abort_payload_bytes()


@dataclass(unsafe_hash=True)
class RowResultPayload:
    """A (possibly shared) acquisition result: one origin node's readings.

    ``qids`` is the set of queries this row answers — a singleton for the
    baseline, possibly many under tier-2's shared result messages.
    ``values`` holds every attribute any of those queries requested.
    """

    origin: int
    epoch_time: float
    values: Tuple[Tuple[str, float], ...]
    qids: FrozenSet[int]

    @classmethod
    def from_dict(cls, origin: int, epoch_time: float,
                  values: Mapping[str, float], qids: FrozenSet[int]) -> "RowResultPayload":
        return cls(origin, epoch_time, tuple(sorted(values.items())), qids)

    def values_dict(self) -> Dict[str, float]:
        return dict(self.values)

    def payload_bytes(self) -> int:
        return wire.result_payload_bytes(len(self.values), len(self.qids))


@dataclass(unsafe_hash=True)
class AggGroup:
    """Partial aggregates shared by a set of queries.

    Tier-2 packs "one data message ... to share among all of the queries
    whose partial aggregation value are the same" (Section 3.2.2); each
    group is one such share.  The baseline always uses a single-query group.

    ``group_key`` identifies the GROUP BY bucket these partials belong to
    (extension); ungrouped queries use the empty key.
    """

    qids: FrozenSet[int]
    partials: Tuple[PartialAggregate, ...]
    group_key: Tuple[float, ...] = ()


@dataclass(unsafe_hash=True)
class AggResultPayload:
    """A partial-aggregate frame flowing up toward the base station."""

    sender: int
    epoch_time: float
    groups: Tuple[AggGroup, ...]

    def payload_bytes(self) -> int:
        n_partials = sum(len(g.partials) for g in self.groups)
        n_qids = sum(len(g.qids) for g in self.groups)
        n_key_values = sum(len(g.group_key) for g in self.groups)
        return (wire.aggregate_payload_bytes(n_partials, n_qids)
                + n_key_values * wire.VALUE_BYTES)


@dataclass(unsafe_hash=True)
class BeaconPayload:
    """Periodic network-maintenance beacon."""

    sender: int
    level: int

    def payload_bytes(self) -> int:
        return wire.maintenance_payload_bytes()
