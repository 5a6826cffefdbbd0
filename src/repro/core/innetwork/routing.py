"""Tier-2 wire payloads: shared frames with per-parent responsibilities.

A multicast frame's packet header tells each destination "the set of
queries that the message is for" (Section 3.2.2), so one transmission can
hand different query subsets to different DAG parents.  These payloads
extend the baseline formats with that responsibility table; the base
station ignores it (everything that arrives there is final).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Mapping, Tuple

from ...sim.messages import QID_BYTES, VALUE_BYTES
from ...tinydb.payloads import AggGroup, AggResultPayload, RowResultPayload

#: parent node id -> query ids that parent is responsible for.
Responsibilities = Tuple[Tuple[int, FrozenSet[int]], ...]


def encode_responsibilities(assignment: Mapping[int, FrozenSet[int]]) -> Responsibilities:
    return tuple(sorted(assignment.items()))


def responsibilities_bytes(responsibilities: Responsibilities) -> int:
    """Header overhead: one address plus the qid list per destination."""
    return sum(VALUE_BYTES + QID_BYTES * len(qids)
               for _, qids in responsibilities)


@dataclass(unsafe_hash=True)
class SharedRowPayload(RowResultPayload):
    """A shared acquisition row with its DAG forwarding assignments."""

    responsibilities: Responsibilities = ()

    def payload_bytes(self) -> int:
        base = super().payload_bytes()
        # The qid list is already carried once in the base encoding; only
        # the extra per-destination routing header is added here.
        return base + responsibilities_bytes(self.responsibilities) - QID_BYTES * len(self.qids)

    def subset_for(self, node_id: int) -> FrozenSet[int]:
        """Queries this destination must forward (empty if not addressed)."""
        for parent, qids in self.responsibilities:
            if parent == node_id:
                return qids
        return frozenset()


@dataclass(unsafe_hash=True)
class SharedAggPayload(AggResultPayload):
    """Shared partial aggregates with DAG forwarding assignments."""

    responsibilities: Responsibilities = ()

    def payload_bytes(self) -> int:
        return super().payload_bytes() + responsibilities_bytes(self.responsibilities)

    def subset_for(self, node_id: int) -> FrozenSet[int]:
        for parent, qids in self.responsibilities:
            if parent == node_id:
                return qids
        return frozenset()

    def groups_for(self, qids: FrozenSet[int]) -> Tuple[AggGroup, ...]:
        """Groups restricted to a responsibility subset."""
        from .packing import split_groups

        return split_groups(self.groups, qids)
