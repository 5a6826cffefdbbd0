"""Mapping synthetic-query results back to user-query answers.

"After the sensor network returns results for the synthetic queries,
corresponding results for user queries can be easily obtained through
mapping and calculation" (Section 1).  Three cases:

* user acquisition <- synthetic acquisition: keep rows whose epoch time is
  a boundary of the user query, re-filter with the user predicates (the
  synthetic predicates are hulls, i.e. wider), and project the user's
  attribute list;
* user aggregation <- synthetic acquisition: re-filter rows per epoch and
  aggregate centrally at the base station;
* user aggregation <- synthetic aggregation: predicates are identical by
  construction, so just select the user's epochs and finalise the subset of
  partial aggregates the user asked for.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Set

from ...queries.ast import Aggregate, Query
from ...tinydb.aggregation import compute_aggregates, compute_grouped_aggregates
from ...tinydb.results import ResultLog


@dataclass(frozen=True)
class MappedRow:
    """One user-visible acquisition result row."""

    epoch_time: float
    origin: int
    values: Dict[str, float]
    #: Fraction of the answering deployment that contributed (< 1.0 only
    #: when the cluster tier merges around a down shard — degraded mode).
    completeness: float = 1.0


@dataclass(frozen=True)
class MappedAggregates:
    """User-visible aggregate values for one epoch (and GROUP BY bucket).

    Ungrouped queries always use the empty ``group_key``.
    """

    epoch_time: float
    values: Dict[Aggregate, Optional[float]]
    group_key: tuple = ()
    #: Fraction of target shards whose partials reached the merge (< 1.0
    #: only for cluster epochs finalised while a shard was down).
    completeness: float = 1.0


_ROW_KEY = attrgetter("epoch_time", "origin")
_AGGREGATE_KEY = attrgetter("epoch_time", "group_key")


class DeliveryCursor:
    """How far one consumer of a user query's answer has read.

    The result log is append-only, so "what is new" is a position per
    synthetic query of the user's mapping history.  Nothing here is
    durable: a consumer that loses its cursor starts again from an empty
    one and is handed the whole answer once more.
    """

    __slots__ = ("positions", "dirty", "seen")

    def __init__(self) -> None:
        #: synthetic qid -> log entries (rows, or first-seen partial
        #: buckets) of that query already mapped.
        self.positions: Dict[int, int] = {}
        #: synthetic qid -> epochs whose derived aggregates must be
        #: recomputed: rows arrived since the last time they were.
        self.dirty: Dict[int, Set[float]] = {}
        #: Keys already handed over.  Two synthetic queries can both report
        #: a handover epoch, and a recomputed epoch repeats its old groups.
        self.seen: Set[tuple] = set()


def _take(since, synthetic: Query, cursor: DeliveryCursor) -> list:
    """Read what ``since(qid, start)`` holds past the cursor; advance it."""
    start = cursor.positions.get(synthetic.qid, 0)
    entries = since(synthetic.qid, start)
    cursor.positions[synthetic.qid] = start + len(entries)
    return entries


class ResultMapper:
    """Derives user-query answers from a base-station :class:`ResultLog`."""

    def __init__(self, log: ResultLog) -> None:
        self._log = log
        #: Items this mapper produced for :meth:`unseen`, before the
        #: cursors' seen-filter (the read path's attempts).
        self.items_mapped = 0

    # ------------------------------------------------------------------
    # Incremental delivery
    # ------------------------------------------------------------------
    def unseen(self, user: Query, history: Iterable[Query],
               cursor: DeliveryCursor, now: Optional[float] = None) -> list:
        """The part of a user query's answer ``cursor`` was not handed yet.

        ``history`` is every synthetic query that served the user query, in
        order (``BaseStationOptimizer.synthetic_history``); each maps only
        what its log gained since the cursor last passed, in ``(epoch,
        origin)`` / ``(epoch, group)`` order, and an item whose key was
        already handed over is dropped.  Aggregates derived from raw rows
        are recomputed from rows that pipeline in for up to a full epoch
        after sampling, and a key is never handed over twice, so with
        ``now`` given an epoch is held back until ``epoch + epoch_ms <=
        now`` instead of freezing a partial answer.
        """
        key_of = _ROW_KEY if user.is_acquisition else _AGGREGATE_KEY
        fresh = []
        for synthetic in history:
            if user.is_acquisition:
                items = self._new_rows(user, synthetic, cursor)
            elif synthetic.is_acquisition:
                items = self._new_row_aggregates(user, synthetic, cursor, now)
            else:
                items = self._new_partial_aggregates(user, synthetic, cursor)
            self.items_mapped += len(items)
            for item in items:
                key = key_of(item)
                if key not in cursor.seen:
                    cursor.seen.add(key)
                    fresh.append(item)
        return fresh

    # ------------------------------------------------------------------
    # Acquisition user queries
    # ------------------------------------------------------------------
    def acquisition_rows(self, user: Query, synthetic: Query) -> List[MappedRow]:
        """Answer rows for an acquisition user query."""
        if not user.is_acquisition:
            raise ValueError(f"query {user.qid} is not an acquisition query")
        return self._new_rows(user, synthetic, DeliveryCursor())

    def _new_rows(self, user: Query, synthetic: Query,
                  cursor: DeliveryCursor) -> List[MappedRow]:
        if not synthetic.is_acquisition:
            raise ValueError(
                f"synthetic query {synthetic.qid} is an aggregation query and "
                f"cannot serve acquisition query {user.qid}"
            )
        needs_filter = synthetic.predicates != user.predicates
        mapped: List[MappedRow] = []
        for row in _take(self._log.rows_since, synthetic, cursor):
            if not user.fires_at(row.epoch_time):
                continue
            if needs_filter and not user.predicates.matches(row.values):
                continue
            projected = {attr: row.values[attr] for attr in user.attributes}
            mapped.append(MappedRow(row.epoch_time, row.origin, projected))
        mapped.sort(key=_ROW_KEY)
        return mapped

    # ------------------------------------------------------------------
    # Aggregation user queries
    # ------------------------------------------------------------------
    def aggregation_results(self, user: Query, synthetic: Query) -> List[MappedAggregates]:
        """Answer aggregates for an aggregation user query."""
        if not user.is_aggregation:
            raise ValueError(f"query {user.qid} is not an aggregation query")
        if synthetic.is_acquisition:
            return self._new_row_aggregates(
                user, synthetic, DeliveryCursor(), None)
        return self._new_partial_aggregates(user, synthetic, DeliveryCursor())

    def _new_row_aggregates(self, user: Query, synthetic: Query,
                            cursor: DeliveryCursor,
                            now: Optional[float]) -> List[MappedAggregates]:
        dirty = cursor.dirty.setdefault(synthetic.qid, set())
        for row in _take(self._log.rows_since, synthetic, cursor):
            if user.fires_at(row.epoch_time):
                dirty.add(row.epoch_time)
        due = sorted(epoch_time for epoch_time in dirty
                     if now is None or epoch_time + user.epoch_ms <= now)
        dirty.difference_update(due)
        needs_filter = synthetic.predicates != user.predicates
        results: List[MappedAggregates] = []
        for epoch_time in due:
            rows = [
                row.values for row in self._log.rows(synthetic.qid, epoch_time)
                if not needs_filter or user.predicates.matches(row.values)
            ]
            if user.group_by:
                grouped = compute_grouped_aggregates(
                    user.aggregates, user.group_by, rows)
                for group_key in sorted(grouped):
                    results.append(MappedAggregates(
                        epoch_time, grouped[group_key], group_key))
            else:
                values = compute_aggregates(user.aggregates, rows)
                results.append(MappedAggregates(epoch_time, values))
        return results

    def _new_partial_aggregates(self, user: Query, synthetic: Query,
                                cursor: DeliveryCursor) -> List[MappedAggregates]:
        if synthetic.predicates != user.predicates:
            raise ValueError(
                f"aggregation synthetic query {synthetic.qid} has different "
                f"predicates from user query {user.qid}; mapping would be wrong"
            )
        if synthetic.group_by != user.group_by:
            raise ValueError(
                f"aggregation synthetic query {synthetic.qid} has different "
                f"grouping from user query {user.qid}; mapping would be wrong"
            )
        buckets = _take(self._log.partial_keys_since, synthetic, cursor)
        results: List[MappedAggregates] = []
        for epoch_time, group_key in sorted(buckets):
            if not user.fires_at(epoch_time):
                continue
            values: Dict[Aggregate, Optional[float]] = {}
            for aggregate in user.aggregates:
                values[aggregate] = self._log.aggregate(
                    synthetic.qid, epoch_time, aggregate, group_key)
            results.append(MappedAggregates(epoch_time, values, group_key))
        return results
