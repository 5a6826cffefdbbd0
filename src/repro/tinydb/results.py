"""Base-station result storage.

Accumulates what the sink hears, per query and epoch.  Both the baseline
base station and the TTMQO base station write into a :class:`ResultLog`;
tier-1's result mapper then derives user-query answers from synthetic-query
entries (Section 3.1: "corresponding results for user queries can be easily
obtained through mapping and calculation").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from ..queries.ast import Aggregate
from .aggregation import PartialAggregate, merge_partial_maps


@dataclass(frozen=True)
class ResultRow:
    """One detail row received for an acquisition query.

    ``received_at`` is the virtual time the row reached the base station;
    ``received_at - epoch_time`` is the end-to-end result latency.
    """

    epoch_time: float
    origin: int
    values: Mapping[str, float]
    received_at: float = 0.0

    @property
    def latency_ms(self) -> float:
        return max(self.received_at - self.epoch_time, 0.0)


class ResultLog:
    """Per-query results accumulated at a base station."""

    def __init__(self) -> None:
        # The log is append-only: per query, rows and first-seen
        # (epoch, group) partial entries keep their arrival order forever,
        # so a reader that remembers how many it has consumed can ask for
        # just the rest (:meth:`rows_since`, :meth:`partial_keys_since`).
        self._rows: Dict[int, List[ResultRow]] = {}
        # (qid, epoch) -> origin -> row, in arrival order: the duplicate
        # check and the per-epoch read are both one lookup.
        self._epoch_rows: Dict[Tuple[int, float], Dict[int, ResultRow]] = {}
        # (qid, epoch) -> group key -> keyed partial map.  Ungrouped
        # queries live entirely under the empty group key ().
        self._partials: Dict[
            Tuple[int, float],
            Dict[Tuple[float, ...], Dict[tuple, PartialAggregate]],
        ] = {}
        self._partial_keys: Dict[
            int, List[Tuple[float, Tuple[float, ...]]]] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def add_row(self, qid: int, epoch_time: float, origin: int,
                values: Mapping[str, float], received_at: float = 0.0) -> None:
        """Record a detail row for an acquisition query.

        Duplicate (origin, epoch) rows — possible when tier-2 multicasts a
        row along two DAG branches or QoS multipath duplicates it — are
        dropped so answers stay exact (the first arrival defines latency).
        """
        epoch_rows = self._epoch_rows.setdefault((qid, epoch_time), {})
        if origin in epoch_rows:
            return
        row = ResultRow(epoch_time, origin, dict(values), received_at)
        epoch_rows[origin] = row
        self._rows.setdefault(qid, []).append(row)

    def row_latencies(self, qid: int) -> List[float]:
        """End-to-end latencies (ms) of every recorded row for a query."""
        return [row.latency_ms for row in self._rows.get(qid, ())]

    def mean_row_latency(self, qid: int) -> float:
        """Mean result latency for a query (0.0 when no rows)."""
        latencies = self.row_latencies(qid)
        return sum(latencies) / len(latencies) if latencies else 0.0

    def add_partials(self, qid: int, epoch_time: float,
                     partials: Iterable[PartialAggregate],
                     group_key: Tuple[float, ...] = ()) -> None:
        """Merge received partial aggregates for (query, epoch, group)."""
        key = (qid, epoch_time)
        incoming = {p.key: p for p in partials}
        groups = self._partials.setdefault(key, {})
        if group_key in groups:
            groups[group_key] = merge_partial_maps(groups[group_key], incoming)
        else:
            groups[group_key] = incoming
            self._partial_keys.setdefault(qid, []).append(
                (epoch_time, group_key))

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def rows(self, qid: int, epoch_time: Optional[float] = None) -> List[ResultRow]:
        """All rows for a query, optionally restricted to one epoch."""
        if epoch_time is None:
            return list(self._rows.get(qid, ()))
        return list(self._epoch_rows.get((qid, epoch_time), {}).values())

    def rows_since(self, qid: int, start: int) -> List[ResultRow]:
        """Rows recorded for a query after its first ``start``, in order."""
        return self._rows.get(qid, [])[start:]

    def row_epochs(self, qid: int) -> List[float]:
        """Distinct epoch times with at least one row, ascending."""
        return sorted({r.epoch_time for r in self._rows.get(qid, ())})

    def aggregate_epochs(self, qid: int) -> List[float]:
        """Epoch times with at least one partial aggregate, ascending."""
        return sorted({epoch for epoch, _ in self._partial_keys.get(qid, ())})

    def partial_keys_since(
            self, qid: int,
            start: int) -> List[Tuple[float, Tuple[float, ...]]]:
        """``(epoch, group key)`` buckets of a query in first-arrival
        order, skipping the first ``start``."""
        return self._partial_keys.get(qid, [])[start:]

    def aggregate(self, qid: int, epoch_time: float, aggregate: Aggregate,
                  group_key: Tuple[float, ...] = ()) -> Optional[float]:
        """Finalised value of one aggregate at one epoch/group (or None)."""
        groups = self._partials.get((qid, epoch_time))
        if not groups:
            return None
        partials = groups.get(group_key)
        if not partials:
            return None
        partial = partials.get((aggregate.op, aggregate.attribute))
        return partial.finalize() if partial is not None else None

    def group_keys(self, qid: int, epoch_time: float) -> List[Tuple[float, ...]]:
        """GROUP BY buckets with data for (query, epoch), sorted."""
        return sorted(self._partials.get((qid, epoch_time), {}))

    def aggregates(self, qid: int, epoch_time: float,
                   group_key: Tuple[float, ...] = ()) -> Dict[tuple, PartialAggregate]:
        """Raw partial map for (query, epoch, group) — empty dict if none."""
        groups = self._partials.get((qid, epoch_time), {})
        return dict(groups.get(group_key, {}))

    def queries_seen(self) -> List[int]:
        qids = set(self._rows) | {qid for qid, _ in self._partials}
        return sorted(qids)

    def total_rows(self) -> int:
        return sum(len(rows) for rows in self._rows.values())
