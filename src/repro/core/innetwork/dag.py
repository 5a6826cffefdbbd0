"""Sharing over space: the query-aware DAG and dynamic parent selection.

Section 3.2.2: during query propagation "the DAG is formed by having an
edge from every node to each of its upper level neighbors", and each flood
frame piggybacks whether the sender "has the data the query retrieves".
During result collection each node picks, *per message*, the upper-level
neighbour that has data for the most of the message's queries (ties broken
by link quality); when no single neighbour covers every query, the message
is multicast and each chosen neighbour takes responsibility for a subset.

:class:`UpperNeighborView` is one node's local knowledge about its DAG
parents: per-query has-data evidence (from the flood piggyback and from
promiscuously overheard result frames — the broadcast channel delivers
every in-range frame) and liveness (sleeping neighbours stop transmitting,
so evidence goes stale).

Liveness recovery (the robustness extension): repeated delivery failures
escalate a neighbour's avoidance backoff exponentially and eventually
*evict* it — an evicted parent is skipped even by the all-unavailable
fallback, unless every parent is evicted (data is never dropped for lack
of a believed-good parent).  Hearing any frame from an evicted neighbour
re-admits it immediately and reports the outage length, so the processor
can observe recovery latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Set


@dataclass
class _NeighborInfo:
    """Evidence about one upper-level neighbour."""

    #: qid -> virtual time of the latest has-data evidence.
    has_data_at: Dict[int, float] = field(default_factory=dict)
    #: Believed asleep until this time (set on repeated delivery failures).
    unavailable_until: float = float("-inf")
    #: Consecutive delivery failures since the neighbour was last heard.
    failures: int = 0
    #: Virtual time of the first failure in the current streak.
    first_failure_at: Optional[float] = None
    #: Evicted after repeated failures; only re-admitted by being heard.
    evicted: bool = False


class UpperNeighborView:
    """One node's routing knowledge about its upper-level neighbours."""

    def __init__(self, uppers: Iterable[int],
                 link_quality: Mapping[int, float],
                 freshness_ms: float = 65536.0,
                 evict_after: int = 4,
                 max_backoff_ms: float = 65536.0) -> None:
        self._info: Dict[int, _NeighborInfo] = {u: _NeighborInfo() for u in uppers}
        #: The neighbours with a delivery-failure streak (``failures > 0``;
        #: an evicted one has one too).  Hearing anyone else changes
        #: nothing, so a receiver probes this set before it calls
        #: :meth:`note_heard`.
        self.streaks: Set[int] = set()
        self._quality = dict(link_quality)
        self._freshness = freshness_ms
        #: Consecutive failures before a neighbour is evicted (0 disables).
        self._evict_after = evict_after
        #: Ceiling for the escalating unreachable backoff.
        self._max_backoff = max_backoff_ms

    # ------------------------------------------------------------------
    # Evidence updates
    # ------------------------------------------------------------------
    def note_has_data(self, neighbor: int, qid: int, now: float) -> None:
        """Record piggybacked or overheard has-data evidence."""
        info = self._info.get(neighbor)
        if info is not None:
            info.has_data_at[qid] = now

    def note_heard(self, neighbor: int, now: float) -> Optional[float]:
        """Record that any frame was heard from this neighbour (it is awake).

        Clears the failure streak and re-admits an evicted neighbour.
        Returns the length of the failure streak in ms (first failure to
        now) when this call re-admits an evicted neighbour — the recovery
        latency — and ``None`` otherwise.
        """
        if neighbor not in self.streaks:
            # No streak to clear: ``note_unreachable`` is the only writer
            # of the backoff and the streak, and it counts a failure.
            return None
        self.streaks.discard(neighbor)
        info = self._info[neighbor]
        info.unavailable_until = float("-inf")
        recovery: Optional[float] = None
        if info.evicted and info.first_failure_at is not None:
            recovery = now - info.first_failure_at
        info.evicted = False
        info.failures = 0
        info.first_failure_at = None
        return recovery

    def note_unreachable(self, neighbor: int, now: float,
                         backoff_ms: float = 4096.0) -> bool:
        """Record a delivery failure (likely sleeping); avoid it a while.

        The avoidance window escalates exponentially with consecutive
        failures (``backoff_ms``, 2x, 4x, ... capped at ``max_backoff_ms``)
        instead of resetting flat — a parent that keeps failing is avoided
        for longer and longer.  After ``evict_after`` consecutive failures
        the neighbour is evicted.  Returns True when *this* call evicted it
        (the transition, not the steady state), so callers can count
        evictions exactly once.
        """
        info = self._info.get(neighbor)
        if info is None:
            return False
        info.failures += 1
        self.streaks.add(neighbor)
        if info.first_failure_at is None:
            info.first_failure_at = now
        backoff = min(backoff_ms * (2.0 ** (info.failures - 1)),
                      self._max_backoff)
        info.unavailable_until = max(info.unavailable_until, now + backoff)
        if (self._evict_after > 0 and not info.evicted
                and info.failures >= self._evict_after):
            info.evicted = True
            return True
        return False

    def drop_query(self, qid: int) -> None:
        """Forget per-query evidence when a query is aborted."""
        for info in self._info.values():
            info.has_data_at.pop(qid, None)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def neighbors(self) -> List[int]:
        return sorted(self._info)

    def has_data(self, neighbor: int, qid: int, now: float) -> bool:
        """Fresh evidence that the neighbour has data for ``qid``."""
        info = self._info.get(neighbor)
        if info is None:
            return False
        seen = info.has_data_at.get(qid)
        return seen is not None and now - seen <= self._freshness

    def is_available(self, neighbor: int, now: float) -> bool:
        info = self._info.get(neighbor)
        return (info is not None and not info.evicted
                and now >= info.unavailable_until)

    def is_evicted(self, neighbor: int) -> bool:
        info = self._info.get(neighbor)
        return info is not None and info.evicted

    def all_suspect(self, now: float,
                    exclude: Optional[Set[int]] = None) -> bool:
        """True when no non-excluded parent is currently believed good.

        This is the condition under which :meth:`select_parents` resorts to
        its fallbacks — the caller may then choose to widen the send to a
        second parent (multicast fallback re-parenting).
        """
        excluded = exclude or set()
        return not any(self.is_available(n, now)
                       for n in self._info if n not in excluded)

    def next_best(self, now: float,
                  exclude: Optional[Set[int]] = None) -> Optional[int]:
        """Best additional parent by (availability, quality, id)."""
        excluded = exclude or set()
        candidates = [n for n in self._info if n not in excluded]
        if not candidates:
            return None
        return max(sorted(candidates),
                   key=lambda n: (self.is_available(n, now),
                                  not self.is_evicted(n),
                                  self.quality(n), -n))

    def quality(self, neighbor: int) -> float:
        return self._quality.get(neighbor, 0.0)

    # ------------------------------------------------------------------
    # Parent selection (the heart of sharing over space)
    # ------------------------------------------------------------------
    def select_parents(self, qids: FrozenSet[int], now: float,
                       exclude: Optional[Set[int]] = None) -> Dict[int, FrozenSet[int]]:
        """Assign the message's queries to upper-level parents.

        Greedy set cover: repeatedly pick the available neighbour with data
        for the most still-unassigned queries ("neighbors with data for more
        queries have higher priority to be chosen"), ties broken by link
        quality then *stable neighbour id* — candidate iteration is sorted,
        so the choice never depends on dict insertion order.  Queries no
        neighbour has data for fall back to the best-quality available
        neighbour (plain TinyDB-style routing).

        Returns parent -> responsible query subset; a single entry means
        unicast, several mean one multicast frame (Section 3.2.2).
        """
        excluded = exclude or set()
        pool = sorted(n for n in self._info if n not in excluded)
        candidates = [n for n in pool if self.is_available(n, now)]
        if not candidates:
            # Everyone believed unavailable: fall back to backed-off but
            # not-evicted neighbours rather than dropping data.
            candidates = [n for n in pool if not self.is_evicted(n)]
        if not candidates:
            # Everyone evicted: last resort, route anyway — liveness beats
            # the eviction heuristic when there is no alternative.
            candidates = pool
        if not candidates:
            return {}

        assignment: Dict[int, Set[int]] = {}
        remaining: Set[int] = set(qids)
        while remaining:
            best, best_cover = None, -1
            for neighbor in candidates:
                cover = sum(1 for qid in remaining
                            if self.has_data(neighbor, qid, now))
                key = (cover, self.quality(neighbor), -neighbor)
                if best is None or key > (best_cover, self.quality(best), -best):
                    best, best_cover = neighbor, cover
            assert best is not None
            if best_cover <= 0:
                # No neighbour has data for any remaining query: route the
                # rest over the best link.
                fallback = max(candidates,
                               key=lambda n: (self.quality(n), -n))
                assignment.setdefault(fallback, set()).update(remaining)
                remaining.clear()
                break
            covered = {qid for qid in remaining if self.has_data(best, qid, now)}
            assignment.setdefault(best, set()).update(covered)
            remaining -= covered
        return {parent: frozenset(subset) for parent, subset in assignment.items()}
