"""TinyDB base-station application: query injection, abortion, result log.

The base station (node 0) is the interface to the network: it floods QUERY
frames, floods ABORT frames, and logs every result frame addressed to it.
Both the baseline strategy and tier-1 (which injects *synthetic* queries
through exactly this interface) use this class.

Two robustness mechanisms mirror real TinyDB deployments:

* **control-flood spacing** — successive query/abort floods are released at
  least ``control_spacing_ms`` apart, so a burst of rewriting activity does
  not collide its own dissemination traffic into oblivion;
* **reactive re-abort** — a result frame arriving for an aborted query
  (some node missed the abort flood) triggers a rate-limited re-flood of
  the abortion, which eventually silences zombies.

The app also feeds the observability layer (``tinydb.bs.*`` metrics in
``docs/observability.md``): control-flood counters and, per query id, the
end-to-end result latency from epoch boundary to sink arrival.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Set

from ..queries.ast import Query
from ..sim.messages import MessageKind
from .node_processor import TinyDBNodeApp, TinyDBParams
from .payloads import AbortPayload, AggResultPayload, QueryPayload, RowResultPayload
from .results import ResultLog
from .routing_tree import RoutingTree

#: Minimum spacing between successive control floods (ms).
CONTROL_SPACING_MS = 250.0
#: Minimum interval between re-abort floods for the same zombie query (ms).
REABORT_INTERVAL_MS = 10_000.0


class TinyDBBaseStationApp(TinyDBNodeApp):
    """The sink's application: injects queries and accumulates results."""

    def __init__(self, world, tree: RoutingTree,
                 params: Optional[TinyDBParams] = None, seed: int = 0) -> None:
        super().__init__(world, tree, params, seed)
        self.results = ResultLog()
        self.injected: Dict[int, Query] = {}
        self.aborted: Set[int] = set()
        self._next_control_slot = 0.0
        self._last_reabort: Dict[int, float] = {}
        self._generations: Dict[int, int] = {}
        #: Hooks invoked once per received detail row with its value dict;
        #: tier-1 uses this to keep learned data distributions current
        #: (the Section 3.1.2 "Statistics" maintenance loop).
        self.row_observers: list = []
        #: Optional QoS registry (extension); when set, query floods carry
        #: the query's reliability class so tier-2 can apply multipath.
        self.qos_registry = None
        # Per-row sink counters, looked up on their first row (so a run
        # without aggregates still exports no aggregate series).
        self._rows_received = None
        self._aggregates_received = None

    def _obs(self):
        """The simulation's observability bundle (None outside a sim)."""
        node = getattr(self, "node", None)
        return getattr(node, "obs", None)

    def _count(self, name: str, help: str = "") -> None:
        obs = self._obs()
        if obs is not None:
            obs.registry.counter(name, help=help).inc()

    # ------------------------------------------------------------------
    # Network control interface
    # ------------------------------------------------------------------
    def inject(self, query: Query) -> None:
        """Flood a query into the network.

        The query starts producing results from its first epoch boundary
        after the flood reaches each node.
        """
        if query.qid in self.injected:
            raise ValueError(f"query {query.qid} already injected")
        self.injected[query.qid] = query
        self._seen_queries.add(query.qid)
        self._count("tinydb.bs.queries_injected_total",
                    "queries flooded into the network")
        self._schedule_control(self._flood_query_now, query)

    def abort(self, qid: int) -> None:
        """Flood an abortion for a previously injected query."""
        if qid not in self.injected:
            raise ValueError(f"query {qid} was never injected")
        if qid in self.aborted:
            return
        self.aborted.add(qid)
        self._seen_aborts.add(qid)
        self._count("tinydb.bs.aborts_total",
                    "abortions flooded into the network")
        self._schedule_control(self._flood_abort_now, qid)

    def running_queries(self) -> Dict[int, Query]:
        """Queries injected and not yet aborted."""
        return {qid: q for qid, q in self.injected.items() if qid not in self.aborted}

    # ------------------------------------------------------------------
    # Query re-advertisement (flood repair)
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        super().on_start()
        period = self.params.query_refresh_ms
        if period > 0:
            self.node.every(period, self._refresh_queries,
                            start=self.node.engine.now + period)

    def _refresh_queries(self) -> None:
        """Re-flood every running query with a bumped generation."""
        for qid, query in sorted(self.running_queries().items()):
            self._generations[qid] = self._generations.get(qid, 0) + 1
            self._schedule_control(self._flood_query_now, query)

    # ------------------------------------------------------------------
    # Control-flood pacing
    # ------------------------------------------------------------------
    def _schedule_control(self, fn: Callable, arg) -> None:
        now = self.node.engine.now
        slot = max(now, self._next_control_slot)
        self._next_control_slot = slot + CONTROL_SPACING_MS
        if slot <= now:
            fn(arg)
        else:
            self.node.after(slot - now, fn, arg)

    def _flood_query_now(self, query: Query) -> None:
        if query.qid in self.aborted:
            return  # aborted before the flood slot arrived
        generation = self._generations.get(query.qid, 0)
        self._seen_query_keys.add((query.qid, generation))
        reliable = (self.qos_registry is not None
                    and self.qos_registry.synthetic_class(query.qid).multipath)
        payload = QueryPayload(query, self.node.node_id, 0, False, generation,
                               reliable)
        # SRT-eligible queries go down matching subtrees only; the rest flood.
        self._propagate_query(payload)

    def _flood_abort_now(self, qid: int) -> None:
        payload = AbortPayload(qid)
        self.node.broadcast(MessageKind.ABORT, payload, payload.payload_bytes())

    def _maybe_reabort(self, qid: int) -> None:
        """Re-flood an abort when a zombie keeps reporting (rate-limited)."""
        now = self.node.engine.now
        last = self._last_reabort.get(qid, float("-inf"))
        if now - last >= REABORT_INTERVAL_MS:
            self._last_reabort[qid] = now
            self._count("tinydb.bs.reaborts_total",
                        "rate-limited re-abort floods for zombie queries")
            self._schedule_control(self._flood_abort_now, qid)

    # ------------------------------------------------------------------
    # Overridden behaviour: the sink logs instead of forwarding, and it
    # neither samples nor participates in epochs.
    # ------------------------------------------------------------------
    def _start_query(self, query: Query) -> None:  # pragma: no cover - inject()
        pass                                        # pre-marks qids as seen

    def _handle_result(self, payload) -> None:
        obs = self._obs()
        if isinstance(payload, RowResultPayload):
            values = payload.values_dict()
            now = self.node.engine.now
            for observer in self.row_observers:
                observer(values)
            for qid in payload.qids:
                if qid in self.aborted:
                    self._maybe_reabort(qid)
                    continue
                self.results.add_row(qid, payload.epoch_time, payload.origin,
                                     values, received_at=now)
                if obs is not None:
                    if self._rows_received is None:
                        self._rows_received = obs.registry.counter(
                            "tinydb.bs.rows_received_total",
                            help="acquisition rows logged at the sink")
                    self._rows_received.inc()
                    obs.latency.observe_row(
                        self.node.node_id, qid,
                        max(now - payload.epoch_time, 0.0))
        elif isinstance(payload, AggResultPayload):
            now = self.node.engine.now
            for group in payload.groups:
                for qid in group.qids:
                    if qid in self.aborted:
                        self._maybe_reabort(qid)
                        continue
                    self.results.add_partials(qid, payload.epoch_time,
                                              group.partials, group.group_key)
                    if obs is not None:
                        if self._aggregates_received is None:
                            self._aggregates_received = obs.registry.counter(
                                "tinydb.bs.aggregates_received_total",
                                help="aggregation partials logged at the sink")
                        self._aggregates_received.inc()
                        obs.latency.observe_aggregate(
                            self.node.node_id, qid,
                            max(now - payload.epoch_time, 0.0))
