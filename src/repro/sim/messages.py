"""Radio message model.

The simulator moves :class:`Message` objects between nodes.  A message has a
*link-layer* addressing mode (broadcast / unicast / multicast — the paper's
tier-2 optimization relies on all three), a payload interpreted by the
application layer, and a length in bytes that drives transmission timing and
therefore the paper's cost metric (``C_start + C_trans * len``).

Sizes follow the TinyOS active-message conventions the paper's TinyDB
implementation used: a fixed link header plus a compact application payload
(2-byte sensor values, 1-byte query ids).  Absolute sizes only need to be
*consistent*, since the paper reports relative transmission-time savings.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, FrozenSet, Optional, Union

#: Link-layer header size in bytes (TinyOS AM header: dest, type, group, len).
HEADER_BYTES = 7
#: Size of one encoded sensor value.
VALUE_BYTES = 2
#: Size of one encoded attribute id or aggregate-operator tag.
ATTR_ID_BYTES = 1
#: Size of one encoded query id.
QID_BYTES = 1
#: Size of one encoded predicate (attribute id + min + max).
PREDICATE_BYTES = ATTR_ID_BYTES + 2 * VALUE_BYTES
#: Size of epoch-duration / timing fields.
EPOCH_FIELD_BYTES = 2

_message_ids = itertools.count(1)


class MessageKind(enum.Enum):
    """Categories of radio traffic the paper's evaluation accounts for."""

    QUERY = "query"          # query propagation (flooding)
    ABORT = "abort"          # query abortion broadcast
    RESULT = "result"        # query result / partial aggregate
    MAINTENANCE = "maintenance"  # periodic network maintenance beacons

    # Members are singletons compared by identity; Enum's own __hash__ is
    # Python-level hash(self._name_), paid on every ledger/plan dict lookup.
    __hash__ = object.__hash__


class Broadcast:
    """Sentinel type for link-layer broadcast destinations."""

    _instance: Optional["Broadcast"] = None

    def __new__(cls) -> "Broadcast":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "BROADCAST"


#: The singleton broadcast destination.
BROADCAST = Broadcast()

#: A link destination: broadcast, a single node id, or a multicast set.
LinkDestination = Union[Broadcast, int, FrozenSet[int]]


@dataclass
class Message:
    """A single radio frame.

    Attributes
    ----------
    kind:
        Traffic category (for the trace collector's per-kind accounting).
    src:
        Sending node id.
    link_dst:
        ``BROADCAST``, a node id (unicast, acknowledged and retransmitted on
        collision), or a frozenset of node ids (multicast — one transmission
        heard by several chosen parents, as in Section 3.2.2).
    payload:
        Application-layer object; the simulator never inspects it.
    payload_bytes:
        Application payload size.  Total frame length is
        ``HEADER_BYTES + payload_bytes``.
    """

    kind: MessageKind
    src: int
    link_dst: LinkDestination
    payload: Any
    payload_bytes: int
    msg_id: int = field(default_factory=lambda: next(_message_ids))
    #: Number of times this frame has been retransmitted (filled by the MAC).
    retransmissions: int = 0

    # The addressing mode and frame length are pure functions of the
    # constructor fields, but the radio/MAC/node hot path reads them
    # hundreds of thousands of times per cell — so they are materialised
    # once here instead of being recomputed per read (``link_dst`` is
    # never mutated after construction).
    def __post_init__(self) -> None:
        link_dst = self.link_dst
        self.length_bytes: int = HEADER_BYTES + self.payload_bytes
        self.is_broadcast: bool = isinstance(link_dst, Broadcast)
        self.is_unicast: bool = isinstance(link_dst, int)
        self.is_multicast: bool = isinstance(link_dst, frozenset)
        if self.is_broadcast:
            self._destinations: Optional[FrozenSet[int]] = None
        elif self.is_unicast:
            self._destinations = frozenset((link_dst,))
        else:
            self._destinations = link_dst  # type: ignore[assignment]

    def destinations(self) -> Optional[FrozenSet[int]]:
        """The explicit destination set, or ``None`` for broadcast."""
        return self._destinations

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Message(#{self.msg_id} {self.kind.value} {self.src}->{self.link_dst!r} "
            f"{self.length_bytes}B)"
        )


def query_payload_bytes(n_attributes: int, n_aggregates: int, n_predicates: int) -> int:
    """Payload size of a query-propagation frame.

    qid + epoch duration + attribute ids + (op, attr) pairs + predicates.
    """
    return (
        QID_BYTES
        + EPOCH_FIELD_BYTES
        + n_attributes * ATTR_ID_BYTES
        + n_aggregates * 2 * ATTR_ID_BYTES
        + n_predicates * PREDICATE_BYTES
    )


def abort_payload_bytes() -> int:
    """Payload size of a query-abortion frame (just the qid)."""
    return QID_BYTES


def result_payload_bytes(n_values: int, n_qids: int) -> int:
    """Payload size of a (possibly shared) acquisition result frame.

    Origin node id + epoch number + one value per carried attribute + the set
    of query ids the frame serves (Section 3.2.2: "the length of a shared
    message may be larger, but it is cheaper to transmit one shared message
    than multiple query result messages").
    """
    return 2 * VALUE_BYTES + n_values * VALUE_BYTES + n_qids * QID_BYTES


def aggregate_payload_bytes(n_partials: int, n_qids: int) -> int:
    """Payload size of a partial-aggregate frame.

    Each partial is (op, attr, value, count): count is needed so AVERAGE-style
    aggregates stay mergeable.
    """
    per_partial = 2 * ATTR_ID_BYTES + VALUE_BYTES + VALUE_BYTES
    return 2 * VALUE_BYTES + n_partials * per_partial + n_qids * QID_BYTES


def maintenance_payload_bytes() -> int:
    """Payload size of a periodic maintenance beacon (id + level + quality)."""
    return 2 * VALUE_BYTES + ATTR_ID_BYTES
