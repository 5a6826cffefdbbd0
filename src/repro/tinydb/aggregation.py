"""In-network aggregation operators (TinyDB's TAG-style partial state).

Each operator maintains a mergeable partial state ``(value, count)``:

* MAX / MIN — value is the running extremum;
* SUM — value is the running sum;
* COUNT — count of contributing readings;
* AVG — (sum, count), finalised as sum/count.

Partials from different subtrees merge associatively and commutatively,
which is what lets an internal node "forward aggregation values instead of
the original detail values" (Section 3.1.2) and lets tier-2 aggregate "as
soon as possible" at dynamically chosen parents (Section 3.2.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from ..queries.ast import Aggregate, AggregateOp


@dataclass(unsafe_hash=True)
class PartialAggregate:
    """Mergeable partial state of one ``op(attribute)`` aggregate.

    A value like the frame payloads that carry it: see
    :mod:`repro.tinydb.payloads` for why it is not a frozen dataclass.
    """

    op: AggregateOp
    attribute: str
    value: float
    count: int

    @classmethod
    def from_reading(cls, aggregate: Aggregate, reading: float) -> "PartialAggregate":
        """Initial partial state for a single contributing reading."""
        op = aggregate.op
        if op is AggregateOp.COUNT:
            return cls(op, aggregate.attribute, 0.0, 1)
        return cls(op, aggregate.attribute, reading, 1)

    def merge(self, other: "PartialAggregate") -> "PartialAggregate":
        """Combine two partials of the same aggregate."""
        if (self.op, self.attribute) != (other.op, other.attribute):
            raise ValueError(
                f"cannot merge {self.op.value}({self.attribute}) with "
                f"{other.op.value}({other.attribute})"
            )
        count = self.count + other.count
        if self.op is AggregateOp.MAX:
            value = max(self.value, other.value)
        elif self.op is AggregateOp.MIN:
            value = min(self.value, other.value)
        elif self.op in (AggregateOp.SUM, AggregateOp.AVG):
            value = self.value + other.value
        elif self.op is AggregateOp.COUNT:
            value = 0.0
        else:  # pragma: no cover - enum is closed
            raise AssertionError(f"unhandled operator {self.op}")
        return PartialAggregate(self.op, self.attribute, value, count)

    def finalize(self) -> float:
        """The user-visible aggregate value."""
        if self.op is AggregateOp.COUNT:
            return float(self.count)
        if self.op is AggregateOp.AVG:
            return self.value / self.count if self.count else 0.0
        return self.value

    @property
    def key(self) -> Tuple[AggregateOp, str]:
        return (self.op, self.attribute)


def merge_partial_maps(
    a: Mapping[Tuple[AggregateOp, str], PartialAggregate],
    b: Mapping[Tuple[AggregateOp, str], PartialAggregate],
) -> Dict[Tuple[AggregateOp, str], PartialAggregate]:
    """Merge two keyed partial-aggregate maps (union of aggregates)."""
    merged = dict(a)
    for key, partial in b.items():
        if key in merged:
            merged[key] = merged[key].merge(partial)
        else:
            merged[key] = partial
    return merged


def partials_from_row(aggregates: Iterable[Aggregate],
                      row: Mapping[str, float]) -> Dict[Tuple[AggregateOp, str], PartialAggregate]:
    """Partial states contributed by one node's readings."""
    result: Dict[Tuple[AggregateOp, str], PartialAggregate] = {}
    for aggregate in aggregates:
        reading = row.get(aggregate.attribute)
        if reading is None:
            continue
        partial = PartialAggregate.from_reading(aggregate, reading)
        key = partial.key
        result[key] = result[key].merge(partial) if key in result else partial
    return result


#: Grouped partial state: group key -> keyed partial-aggregate map.
GroupedPartials = Dict[Tuple[float, ...], Dict[Tuple[AggregateOp, str], PartialAggregate]]


def grouped_partials_from_row(query, row: Mapping[str, float]) -> GroupedPartials:
    """One node's contribution to a (possibly grouped) aggregation query.

    Ungrouped queries use the single empty group key ``()``, which keeps
    every accumulator uniformly grouped.
    """
    partials = partials_from_row(query.aggregates, row)
    if not partials:
        return {}
    return {query.group_key(row): partials}


def merge_grouped_maps(a: GroupedPartials, b: GroupedPartials) -> GroupedPartials:
    """Merge two grouped partial states (group-wise partial merge)."""
    merged: GroupedPartials = {key: dict(value) for key, value in a.items()}
    for key, partials in b.items():
        if key in merged:
            merged[key] = merge_partial_maps(merged[key], partials)
        else:
            merged[key] = dict(partials)
    return merged


def compute_grouped_aggregates(
    aggregates: Iterable[Aggregate],
    group_by,
    rows: Iterable[Mapping[str, float]],
) -> Dict[Tuple[float, ...], Dict[Aggregate, Optional[float]]]:
    """Reference (centralised) grouped evaluation over detail rows.

    ``group_by`` is the query's tuple of :class:`repro.queries.ast.GroupBy`
    terms; rows missing a grouping attribute are skipped (they cannot be
    assigned to a group).
    """
    agg_list = list(aggregates)
    buckets: Dict[Tuple[float, ...], List[Mapping[str, float]]] = {}
    for row in rows:
        try:
            key = tuple(g.key_of(row[g.attribute]) for g in group_by)
        except KeyError:
            continue
        buckets.setdefault(key, []).append(row)
    return {key: compute_aggregates(agg_list, bucket)
            for key, bucket in buckets.items()}


def compute_aggregates(aggregates: Iterable[Aggregate],
                       rows: Iterable[Mapping[str, float]]) -> Dict[Aggregate, Optional[float]]:
    """Reference (centralised) evaluation of aggregates over detail rows.

    Used by the base station to derive an aggregation user-query's answer
    from an acquisition synthetic query's rows, and by tests as ground
    truth.  Returns ``None`` for aggregates with no contributing rows.
    """
    partials: Dict[Tuple[AggregateOp, str], PartialAggregate] = {}
    agg_list = list(aggregates)
    for row in rows:
        partials = merge_partial_maps(partials, partials_from_row(agg_list, row))
    results: Dict[Aggregate, Optional[float]] = {}
    for aggregate in agg_list:
        partial = partials.get((aggregate.op, aggregate.attribute))
        results[aggregate] = partial.finalize() if partial is not None else None
    return results
