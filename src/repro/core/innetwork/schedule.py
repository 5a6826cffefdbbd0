"""Sharing over time: the GCD epoch clock (Section 3.2.1).

After a new query is propagated, every node "(re)sets the node's clock to
fire at the GCD of the epoch durations of all the queries", with epoch
start times aligned to absolute time ("the epoch start time for the new
query on a sensor node is set to be divisible by the epoch duration").
When the clock fires at time t, every query with ``t mod epoch == 0`` runs
a *shared* data acquisition.

This is what lets epoch durations like 4096 ms and 6144 ms — which tier-1
cannot merge beneficially — still share half of their acquisitions and
transmissions.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ...queries.ast import Query, gcd_epoch
from ...sim.engine import EventQueue, PeriodicTimer
from ...tinydb.epochs import next_boundary


class GcdClock:
    """One node's shared epoch clock over a changing query set."""

    def __init__(self, engine: EventQueue,
                 on_tick: Callable[[float, List[Query]], None]) -> None:
        self._engine = engine
        self._on_tick = on_tick
        self._queries: Dict[int, Query] = {}
        self._timer: Optional[PeriodicTimer] = None
        self._last_tick: Optional[float] = None

    # ------------------------------------------------------------------
    # Query-set maintenance
    # ------------------------------------------------------------------
    @property
    def period(self) -> Optional[int]:
        """Current GCD period in ms, or None when no queries run."""
        if not self._queries:
            return None
        return gcd_epoch(q.epoch_ms for q in self._queries.values())

    @property
    def queries(self) -> List[Query]:
        return sorted(self._queries.values(), key=lambda q: q.qid)

    def add_query(self, query: Query) -> None:
        """Admit a query; re-arms the clock at the (possibly new) GCD."""
        self._queries[query.qid] = query
        self._rearm()

    def remove_query(self, qid: int) -> None:
        """Retire a query; the clock may slow down or stop."""
        if self._queries.pop(qid, None) is not None:
            self._rearm()

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.stop()
            self._timer = None

    def close(self) -> None:
        """Stop for good and drop ``on_tick`` (it holds the clock's owner)."""
        self.stop()
        self._on_tick = None

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _rearm(self) -> None:
        self.stop()
        period = self.period
        if period is None:
            return
        now = self._engine.now
        if now > 0.0 and now % period == 0.0 and self._last_tick != now:
            # The query-set change landed exactly on an epoch boundary the
            # clock has not fired for yet (e.g. a 4096 ms query admitted at
            # t=4096 while only an 8192 ms query was running).  ``next_
            # boundary`` is strictly-after and would delay the first shared
            # acquisition by a whole period; fire at this boundary instead.
            # t=0 is excluded: the first acquisition comes one epoch after
            # admission, never at the instant the clock starts.
            start = now
        else:
            start = next_boundary(now, period)
        self._timer = PeriodicTimer(self._engine, float(period), self._tick,
                                    start=start)

    def _tick(self) -> None:
        now = self._engine.now
        if self._last_tick == now:
            return  # re-armed onto a boundary that already fired
        self._last_tick = now
        firing = [q for q in self.queries if q.fires_at(now)]
        if firing:
            self._on_tick(now, firing)
