"""Query representation: the TinyDB dialect fragment the paper supports.

A query is a SELECT-FROM-WHERE over the single virtual table ``sensors``
with an EPOCH DURATION clause (Section 2).  It is either a *data
acquisition* query (a plain attribute list) or an *aggregation* query (a
list of ``(operator, attribute)`` pairs); "for a single query, either
attribute_list or agg_list will be empty" (Section 3.1.1).

Epoch durations are multiples of the smallest allowed epoch, 2048 ms
(Section 3.2.1: "the smallest allowed epoch duration is 2048ms, and we
assume that every epoch duration is divisible by it").
"""

from __future__ import annotations

import enum
import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Sequence, Tuple

from .predicates import PredicateSet

#: Smallest allowed epoch duration in milliseconds (Section 3.2.1).
MIN_EPOCH_MS = 2048


class QueryValidationError(ValueError):
    """Raised for structurally invalid queries."""


class AggregateOp(enum.Enum):
    """In-network-computable aggregation operators (TinyDB's core set)."""

    MAX = "MAX"
    MIN = "MIN"
    SUM = "SUM"
    COUNT = "COUNT"
    AVG = "AVG"


@dataclass(frozen=True)
class Aggregate:
    """One ``operator(attribute)`` aggregation request.

    Not orderable (enums are unordered); sort with
    ``key=lambda a: a.sort_key`` where determinism matters.
    """

    op: AggregateOp
    attribute: str

    @property
    def sort_key(self) -> "tuple[str, str]":
        return (self.op.value, self.attribute)

    def __str__(self) -> str:
        return f"{self.op.value}({self.attribute})"


@dataclass(frozen=True)
class GroupBy:
    """One GROUP BY term: ``attribute`` or TinyDB's ``attribute / divisor``.

    The divisor buckets continuous attributes (``GROUP BY light / 10``
    groups readings into 10-lux bins); ``divisor=1`` groups by the raw
    value, the natural form for discrete attributes like ``nodeid``.
    """

    attribute: str
    divisor: float = 1.0

    def __post_init__(self) -> None:
        if self.divisor <= 0:
            raise QueryValidationError(
                f"GROUP BY divisor must be positive (got {self.divisor})")

    def key_of(self, value: float) -> float:
        """The group key a reading falls into."""
        return math.floor(value / self.divisor)

    def __str__(self) -> str:
        if self.divisor == 1.0:
            return self.attribute
        divisor = int(self.divisor) if self.divisor == int(self.divisor) \
            else self.divisor
        return f"{self.attribute} / {divisor}"


class QidAllocator:
    """Issues query ids: the next one, or past one issued elsewhere.

    Each :class:`~repro.core.basestation.BaseStationOptimizer` owns one.
    Its synthetic qids and, behind a query service, its users' qids come
    from it, and a registered or replayed user qid is claimed, so an
    optimizer's ids are a function of its own log.
    """

    __slots__ = ("next_value",)

    def __init__(self, start: int = 1) -> None:
        self.next_value = start

    def __next__(self) -> int:
        value = self.next_value
        self.next_value += 1
        return value

    def claim(self, qid: int) -> None:
        """Move past ``qid``: an id issued here, or one a log recorded."""
        if qid >= self.next_value:
            self.next_value = qid + 1


#: The allocator of queries built outside any optimizer (parsed workloads,
#: tests); :func:`fresh_qids` scopes it.
_qid_counter = QidAllocator(1)


def next_qid() -> int:
    """Allocate a query id from the process-wide workload allocator."""
    return next(_qid_counter)


@contextmanager
def fresh_qids(start: int = 1):
    """Run a block with the workload qid counter reset to ``start``.

    The sweep executor wraps every experiment cell in this scope so a cell
    builds byte-identical queries no matter which process — or how old an
    interpreter — runs it: a fresh worker and a long-lived test process both
    start the cell's queries at ``start``.  The previous counter is restored
    on exit, so qids allocated *after* the scope continue the outer
    sequence.  Optimizers and services issue their own qids
    (:class:`QidAllocator`), so the scope names workload queries only.
    """
    global _qid_counter
    saved = _qid_counter
    _qid_counter = QidAllocator(start)
    try:
        yield
    finally:
        _qid_counter = saved


@dataclass(frozen=True)
class Query:
    """An immutable user (or synthetic) query.

    Attributes
    ----------
    qid:
        Unique identifier.
    attributes:
        Projection list for acquisition queries (empty for aggregation).
    aggregates:
        ``(op, attribute)`` list for aggregation queries (empty for
        acquisition).
    predicates:
        Conjunctive selection over sensed attributes.
    epoch_ms:
        Sampling/reporting period; positive multiple of :data:`MIN_EPOCH_MS`.
    """

    qid: int
    attributes: Tuple[str, ...]
    aggregates: Tuple[Aggregate, ...]
    predicates: PredicateSet
    epoch_ms: int
    #: GROUP BY terms (aggregation queries only; extension, default none).
    group_by: Tuple[GroupBy, ...] = ()

    def __post_init__(self) -> None:
        if self.group_by and not self.aggregates:
            raise QueryValidationError(
                f"query {self.qid}: GROUP BY requires an aggregation query")
        if len({g.attribute for g in self.group_by}) != len(self.group_by):
            raise QueryValidationError(
                f"query {self.qid}: duplicate GROUP BY attributes")
        if bool(self.attributes) == bool(self.aggregates):
            raise QueryValidationError(
                f"query {self.qid}: exactly one of attribute_list/agg_list "
                f"must be non-empty (got attributes={self.attributes}, "
                f"aggregates={self.aggregates})"
            )
        if len(set(self.attributes)) != len(self.attributes):
            raise QueryValidationError(
                f"query {self.qid}: duplicate attributes {self.attributes}"
            )
        if len(set(self.aggregates)) != len(self.aggregates):
            raise QueryValidationError(
                f"query {self.qid}: duplicate aggregates {self.aggregates}"
            )
        if self.epoch_ms <= 0 or self.epoch_ms % MIN_EPOCH_MS != 0:
            raise QueryValidationError(
                f"query {self.qid}: epoch {self.epoch_ms} ms must be a positive "
                f"multiple of {MIN_EPOCH_MS} ms"
            )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def acquisition(
        cls,
        attributes: Sequence[str],
        predicates: Optional[PredicateSet] = None,
        epoch_ms: int = MIN_EPOCH_MS,
        qid: Optional[int] = None,
    ) -> "Query":
        """Build a data acquisition query (``SELECT attrs ...``)."""
        return cls(
            qid=next_qid() if qid is None else qid,
            attributes=tuple(attributes),
            aggregates=(),
            predicates=predicates or PredicateSet.true(),
            epoch_ms=epoch_ms,
        )

    @classmethod
    def aggregation(
        cls,
        aggregates: Sequence[Aggregate],
        predicates: Optional[PredicateSet] = None,
        epoch_ms: int = MIN_EPOCH_MS,
        qid: Optional[int] = None,
        group_by: Sequence[GroupBy] = (),
    ) -> "Query":
        """Build an aggregation query (``SELECT MAX(attr) ...``)."""
        return cls(
            qid=next_qid() if qid is None else qid,
            attributes=(),
            aggregates=tuple(aggregates),
            predicates=predicates or PredicateSet.true(),
            epoch_ms=epoch_ms,
            group_by=tuple(group_by),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def is_acquisition(self) -> bool:
        return bool(self.attributes)

    @property
    def is_aggregation(self) -> bool:
        return bool(self.aggregates)

    def requested_attributes(self) -> FrozenSet[str]:
        """Attributes whose values must be *sensed* to answer the query.

        Covers the projection/aggregation inputs plus every attribute the
        predicates test (a node must sample ``temp`` to evaluate
        ``temp > 20`` even if only ``light`` is selected).

        Derived on the first call and kept, since the nodes ask on every
        epoch; not on construction, which tier 1 does far more often than
        anything senses.  Not a field, so equality, hashing, repr and
        ``dataclasses.replace`` ignore it.
        """
        try:
            return self._requested
        except AttributeError:
            pass
        attrs = set(self.attributes)
        attrs.update(a.attribute for a in self.aggregates)
        attrs.update(self.predicates.attributes)
        attrs.update(g.attribute for g in self.group_by)
        requested = frozenset(attrs)
        object.__setattr__(self, "_requested", requested)
        return requested

    def group_key(self, row: Mapping[str, float]) -> Tuple[float, ...]:
        """The group a row of readings belongs to (empty for ungrouped)."""
        return tuple(g.key_of(row[g.attribute]) for g in self.group_by)

    def epochs_in(self, duration_ms: float) -> int:
        """Number of epoch boundaries within ``duration_ms``."""
        return int(duration_ms // self.epoch_ms)

    def fires_at(self, time_ms: float) -> bool:
        """True if an epoch boundary of this query lands on ``time_ms``.

        Tier-2 aligns epoch start times so boundaries are the times
        divisible by the epoch duration (Section 3.2.1).
        """
        return time_ms % self.epoch_ms == 0

    def __str__(self) -> str:
        if self.is_acquisition:
            select = ", ".join(self.attributes)
        else:
            select = ", ".join(str(a) for a in self.aggregates)
        where = ""
        if not self.predicates.is_true():
            conditions = []
            for attr, lo, hi in self.predicates.to_triples():
                if math.isinf(lo) and math.isinf(hi):
                    continue
                if math.isinf(lo):
                    conditions.append(f"{attr} <= {hi}")
                elif math.isinf(hi):
                    conditions.append(f"{attr} >= {lo}")
                else:
                    conditions.append(f"{attr} BETWEEN {lo} AND {hi}")
            if conditions:
                where = f" WHERE {' AND '.join(conditions)}"
        if self.group_by:
            where += " GROUP BY " + ", ".join(str(g) for g in self.group_by)
        return (
            f"SELECT {select} FROM sensors{where} EPOCH DURATION {self.epoch_ms}"
        )


def query_to_dict(query: Query) -> Dict[str, object]:
    """A JSON-safe encoding of ``query`` (inverse of :func:`query_from_dict`).

    Infinite predicate bounds are encoded as the strings ``"-inf"``/
    ``"inf"`` so the payload survives strict JSON round-trips (the WAL and
    snapshot files of ``repro.service.durability``).
    """
    def _bound(value: float):
        return str(value) if math.isinf(value) else value

    return {
        "qid": query.qid,
        "attributes": list(query.attributes),
        "aggregates": [[a.op.value, a.attribute] for a in query.aggregates],
        "predicates": [[attr, _bound(lo), _bound(hi)]
                       for attr, lo, hi in query.predicates.to_triples()],
        "epoch_ms": query.epoch_ms,
        "group_by": [[g.attribute, g.divisor] for g in query.group_by],
    }


def query_from_dict(payload: Mapping[str, object]) -> Query:
    """Rebuild a :class:`Query` from :func:`query_to_dict` output."""
    triples = [(attr, float(lo), float(hi))
               for attr, lo, hi in payload["predicates"]]
    return Query(
        qid=int(payload["qid"]),
        attributes=tuple(payload["attributes"]),
        aggregates=tuple(Aggregate(AggregateOp(op), attr)
                         for op, attr in payload["aggregates"]),
        predicates=PredicateSet.from_triples(triples),
        epoch_ms=int(payload["epoch_ms"]),
        group_by=tuple(GroupBy(attr, float(divisor))
                       for attr, divisor in payload["group_by"]),
    )


def combined_epoch(e1: int, e2: int) -> int:
    """Epoch of a merged query: the GCD of the two epochs (Section 3.1.2)."""
    return math.gcd(e1, e2)


def gcd_epoch(epochs: Iterable[int]) -> int:
    """GCD clock period for a set of running queries (Section 3.2.1)."""
    result = 0
    for epoch in epochs:
        result = math.gcd(result, epoch)
    return result if result > 0 else MIN_EPOCH_MS
