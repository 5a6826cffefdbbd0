"""The TTMQO in-network processor (tier 2, Section 3.2).

Per-node behaviour:

* **Sharing over time** — one :class:`GcdClock` fires at the GCD of all
  running epochs; every query whose boundary lands on the tick shares a
  single data acquisition (Section 3.2.1).
* **Sharing over space** — results are packed into shared frames (one row
  frame for all satisfied acquisition queries; partial aggregates grouped
  by equal value) and routed along a query-aware DAG with per-message
  dynamic parent selection and multicast (Section 3.2.2).
* **Sleep mode** — a node that neither produced nor relayed anything in the
  current tick powers its radio down until the next tick.  Lower-level
  neighbours route around sleeping parents via has-data evidence and
  delivery-failure backoff.

The base station side (:class:`TTMQOBaseStationApp`) extends the TinyDB
base station with *boundary-aligned* injection: floods are released just
after a global tick, when every node is guaranteed awake.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ...queries.ast import Query, gcd_epoch
from ...sensors.field import SensorWorld
from ...sensors.sampler import Sampler
from ...sim.engine import Event
from ...sim.messages import Message, MessageKind
from ...sim.node import NodeApp
from ...tinydb.aggregation import (
    grouped_partials_from_row,
    merge_grouped_maps,
)
from ...tinydb.basestation import TinyDBBaseStationApp
from ...tinydb.epochs import SlotSchedule, next_boundary
from ...tinydb.node_processor import TinyDBParams
from ...tinydb.payloads import (
    AbortPayload,
    AggGroup,
    AggResultPayload,
    BeaconPayload,
    QueryPayload,
    RowResultPayload,
)
from .dag import UpperNeighborView
from .packing import (
    group_equal_partials,
    satisfied_acquisitions,
    shared_row_content,
    trim_row_values,
)
from .routing import SharedAggPayload, SharedRowPayload, encode_responsibilities
from .schedule import GcdClock


@dataclass(frozen=True)
class TTMQOParams:
    """Tunables of the tier-2 processor."""

    #: TAG slot length for aggregation collection (ms).
    slot_ms: float = 256.0
    #: Max random extra delay within an aggregation slot (ms).
    slot_jitter_ms: float = 96.0
    #: Period of network-maintenance beacons (ms).
    maintenance_period_ms: float = 30720.0
    #: Max random delay before re-flooding a query/abort frame (ms).
    flood_spread_ms: float = 150.0
    #: Max random delay before sending a shared row frame (ms).
    result_jitter_ms: float = 512.0
    #: How long has-data evidence stays fresh (ms).
    freshness_ms: float = 65536.0
    #: Enable Section 3.2.2 sleep mode.
    sleep_enabled: bool = True
    #: Earliest time after a tick at which a node may decide to sleep (ms).
    sleep_defer_ms: float = 1280.0
    #: Minimum remaining time worth sleeping for (ms).
    min_sleep_ms: float = 64.0
    #: How long a parent is avoided after a delivery failure (ms).  The
    #: window escalates exponentially with consecutive failures.
    unreachable_backoff_ms: float = 4096.0
    #: Ceiling for the escalating unreachable backoff (ms).
    max_unreachable_backoff_ms: float = 65536.0
    #: Consecutive delivery failures before a parent is evicted from
    #: routing until it is heard again (0 disables eviction).
    evict_after_failures: int = 4
    #: Maximum app-level reroute attempts per frame.  Higher than the
    #: baseline's same-link retry budget because each attempt re-routes:
    #: under correlated fades later attempts leave the faded link entirely,
    #: so extra attempts keep paying off where same-link retries stall.
    max_reroutes: int = 4
    #: Base delay before an app-level reroute retransmission (ms); doubles
    #: with each attempt (hop-by-hop retransmission backoff).
    reroute_backoff_ms: float = 96.0
    #: When every parent is suspect, widen origin row frames to this many
    #: parents (multicast fallback re-parenting; the base station's result
    #: log deduplicates rows, so duplicates are safe — aggregates are
    #: never widened, duplicated partials would double-count).
    fallback_fanout: int = 2
    #: Delay after a tick boundary before the base station floods (ms).
    inject_offset_ms: float = 8.0
    #: Base station re-disseminates a query when origins that previously
    #: reported have been silent for this many of its epochs (0 disables
    #: the monitor; it is an explicit robustness knob because selective
    #: queries legitimately go silent).
    silence_epochs: int = 0
    #: Period of the base station's subtree-silence check (ms).
    silence_check_ms: float = 4096.0
    #: Minimum spacing between re-disseminations of the same query (ms).
    redissemination_min_interval_ms: float = 30720.0


class TTMQONodeApp(NodeApp):
    """Tier-2 application running on every sensor node."""

    def __init__(self, world: SensorWorld,
                 params: Optional[TTMQOParams] = None, seed: int = 0) -> None:
        self.world = world
        self.params = params or TTMQOParams()
        self._seed = seed
        self.sampler: Optional[Sampler] = None
        self.queries: Dict[int, Query] = {}
        self._seen_queries: Set[int] = set()
        self._seen_query_keys: Set[Tuple[int, int]] = set()
        self._seen_aborts: Set[int] = set()
        self._pending_agg: Dict[Tuple[int, float], Dict[tuple, object]] = {}
        self._processed_results: Set[int] = set()
        #: Queries flagged reliable by the base station (QoS extension):
        #: their rows are duplicated along a second DAG parent at the origin.
        self._reliable_qids: Set[int] = set()
        self._reroutes: Dict[int, int] = {}
        self._active_since_tick = False
        self.clock: Optional[GcdClock] = None
        self.view: Optional[UpperNeighborView] = None
        self._slots: Optional[SlotSchedule] = None
        self._rng: Optional[random.Random] = None

    # ------------------------------------------------------------------
    # NodeApp hooks
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        node = self.node
        self.sampler = Sampler(self.world, node.node_id)
        self._rng = random.Random((self._seed << 16) ^ (node.node_id * 6151))
        self.clock = GcdClock(node.engine, self._on_tick)
        uppers = node.topology.upper_neighbors(node.node_id)
        quality = {u: node.topology.quality(node.node_id, u) for u in uppers}
        self.view = UpperNeighborView(
            uppers, quality, freshness_ms=self.params.freshness_ms,
            evict_after=self.params.evict_after_failures,
            max_backoff_ms=self.params.max_unreachable_backoff_ms)
        self._slots = SlotSchedule(node.topology.max_depth, self.params.slot_ms)
        period = self.params.maintenance_period_ms
        if period > 0 and not node.is_base_station:
            phase = period * (0.1 + 0.8 * self._rng.random())
            node.every(period, self._send_beacon, start=node.engine.now + phase)

    def on_wake(self) -> None:
        pass

    def close(self) -> None:
        if self.clock is not None:
            self.clock.close()

    # ------------------------------------------------------------------
    # Recovery telemetry (no-ops outside a Simulation; see repro.obs)
    # ------------------------------------------------------------------
    def _count(self, name: str, help: str, n: int = 1, **labels) -> None:
        obs = self.node.obs
        if obs is not None:
            obs.registry.counter(name, help=help, **labels).inc(n)

    def _count_recovery(self, name: str, help: str, **labels) -> None:
        obs = self.node.obs
        if obs is not None:
            obs.count_recovery(name, help, **labels)

    def _observe(self, name: str, help: str, value: float, **labels) -> None:
        obs = self.node.obs
        if obs is not None:
            obs.registry.histogram(name, help=help, **labels).observe(value)

    def overhears(self, kind: MessageKind, src: int) -> bool:
        """Floods from anyone, and every frame of a DAG parent: the view
        keeps liveness and has-data evidence about upper neighbours only.
        """
        return (kind is MessageKind.QUERY or kind is MessageKind.ABORT
                or src in self.node.topology.upper_neighbors(self.node.node_id))

    def on_message(self, msg: Message) -> None:
        if msg.src in self.view.streaks:
            self._heard_after_failures(msg.src)
        if msg.kind is MessageKind.QUERY:
            self._handle_query(msg.payload)
        elif msg.kind is MessageKind.ABORT:
            self._handle_abort(msg.payload)
        elif msg.kind is MessageKind.RESULT:
            self._snoop_result(msg)
            destinations = msg.destinations()
            if destinations is not None and self.node.node_id in destinations:
                if msg.msg_id in self._processed_results:
                    return  # duplicate delivery from a multicast retransmission
                self._processed_results.add(msg.msg_id)
                self._handle_result(msg.payload)

    def _heard_after_failures(self, neighbor: int) -> None:
        """A neighbour with a delivery-failure streak was heard: clear it."""
        recovery = self.view.note_heard(neighbor, self.node.engine.now)
        if recovery is not None:
            self._count_recovery(
                "recovery.readmissions_total",
                "evicted DAG parents re-admitted on being heard")
            self._observe("recovery.latency_ms",
                          "first delivery failure to re-admission per "
                          "evicted parent", recovery, unit="ms")

    def on_send_failed(self, msg: Message, failed: Set[int]) -> None:
        """Retransmit a failed result frame around (or back to) its parents.

        Hop-by-hop recovery: each MAC give-up escalates the failed parents'
        avoidance backoff (and may evict them), then the lost query subset
        is re-routed and re-sent after an exponentially growing delay —
        ``reroute_backoff_ms * 2^attempt`` — up to ``max_reroutes`` times.
        """
        if msg.kind is not MessageKind.RESULT:
            return
        now = self.node.engine.now
        for neighbor in sorted(failed):
            evicted = self.view.note_unreachable(
                neighbor, now, self.params.unreachable_backoff_ms)
            if evicted:
                self._count_recovery(
                    "recovery.evictions_total",
                    "DAG parents evicted after repeated delivery failures")
        attempts = self._reroutes.pop(msg.msg_id, 0)
        if attempts >= self.params.max_reroutes:
            return
        delay = self.params.reroute_backoff_ms * (2.0 ** attempts)
        payload = msg.payload
        if isinstance(payload, SharedRowPayload):
            lost = frozenset().union(*(payload.subset_for(f) for f in failed)) \
                if failed else frozenset()
            if lost:
                replacement = SharedRowPayload(payload.origin,
                                               payload.epoch_time,
                                               payload.values, lost)
                self._count_recovery(
                    "recovery.app_retries_total",
                    "app-level retransmissions after MAC give-up",
                    layer="ttmqo")
                self.node.after(delay, self._route_and_send_row, replacement,
                                set(failed), attempts + 1)
        elif isinstance(payload, SharedAggPayload):
            lost = frozenset().union(*(payload.subset_for(f) for f in failed)) \
                if failed else frozenset()
            groups = payload.groups_for(lost)
            if groups:
                self._count_recovery(
                    "recovery.app_retries_total",
                    "app-level retransmissions after MAC give-up",
                    layer="ttmqo")
                self.node.after(delay, self._route_and_send_groups,
                                payload.epoch_time, groups, set(failed),
                                attempts + 1)

    # ------------------------------------------------------------------
    # Query propagation (flooding + DAG piggyback)
    # ------------------------------------------------------------------
    def _handle_query(self, payload: QueryPayload) -> None:
        query = payload.query
        now = self.node.engine.now
        if payload.sender_has_data:
            self.view.note_has_data(payload.sender, query.qid, now)
        # Most copies are duplicates of a generation already relayed, so
        # that test comes first: a duplicate costs one set probe.
        key = (query.qid, payload.generation)
        if key in self._seen_query_keys or query.qid in self._seen_aborts:
            return
        self._seen_query_keys.add(key)
        if query.qid not in self._seen_queries:
            self._seen_queries.add(query.qid)
            self.queries[query.qid] = query
            self.clock.add_query(query)
        if payload.reliable:
            self._reliable_qids.add(query.qid)
        else:
            self._reliable_qids.discard(query.qid)
        # Re-propagate each generation once; refresh floods both repair
        # nodes that missed the query and refresh the has-data piggyback.
        has_data = self._has_data_now(query)
        advanced = payload.advance(self.node.node_id, self.node.level, has_data)
        delay = self._rng.uniform(0.0, self.params.flood_spread_ms)
        self.node.after(delay, self.node.broadcast, MessageKind.QUERY, advanced,
                        advanced.payload_bytes())

    def _handle_abort(self, payload: AbortPayload) -> None:
        if payload.qid in self._seen_aborts:
            return
        self._seen_aborts.add(payload.qid)
        self.queries.pop(payload.qid, None)
        self.clock.remove_query(payload.qid)
        self.view.drop_query(payload.qid)
        self._reliable_qids.discard(payload.qid)
        stale = [key for key in self._pending_agg if key[0] == payload.qid]
        for key in stale:
            del self._pending_agg[key]
        delay = self._rng.uniform(0.0, self.params.flood_spread_ms)
        self.node.after(delay, self.node.broadcast, MessageKind.ABORT, payload,
                        payload.payload_bytes())

    def _has_data_now(self, query: Query) -> bool:
        row = self.sampler.acquire(query.requested_attributes(),
                                   self.node.engine.now, shared=True)
        return query.predicates.matches(row)

    # ------------------------------------------------------------------
    # Snooping: every overheard result frame is routing evidence
    # ------------------------------------------------------------------
    def _snoop_result(self, msg: Message) -> None:
        now = self.node.engine.now
        payload = msg.payload
        if isinstance(payload, RowResultPayload):
            # Only the *origin's own* transmission proves it has data; a
            # relayed row says nothing about the relay's readings (and
            # counting it would lock routes onto whichever relay was picked
            # first).
            if payload.origin == msg.src:
                for qid in payload.qids:
                    self.view.note_has_data(msg.src, qid, now)
        elif isinstance(payload, AggResultPayload):
            # Aggregation differs: a neighbour forwarding partials for a
            # query is a *good* parent for that query — our partial merges
            # into its stream one hop earlier (Section 3.2.2's early
            # aggregation).
            for group in payload.groups:
                for qid in group.qids:
                    self.view.note_has_data(msg.src, qid, now)

    # ------------------------------------------------------------------
    # The shared epoch tick
    # ------------------------------------------------------------------
    def _on_tick(self, t: float, firing: List[Query]) -> None:
        node = self.node
        if node.failed:
            return
        if node.asleep:
            node.wake()
        self._active_since_tick = False

        attributes: Set[str] = set()
        for query in firing:
            attributes.update(query.requested_attributes())
        row = self.sampler.acquire(attributes, t, shared=True)

        # Acquisition queries: one shared row frame for all satisfied queries.
        satisfied = satisfied_acquisitions(firing, row)
        if satisfied:
            values, qids = shared_row_content(satisfied, row)
            payload = SharedRowPayload(
                origin=node.node_id, epoch_time=t,
                values=tuple(sorted(values.items())), qids=qids)
            jitter = self._rng.uniform(0.0, self.params.result_jitter_ms)
            node.after(jitter, self._route_and_send_row, payload)
            self._active_since_tick = True

        # Aggregation queries: open (grouped) accumulators and arm this
        # level's slot; ungrouped queries use the empty group key.
        agg_firing = [q for q in firing if q.is_aggregation]
        for query in agg_firing:
            key = (query.qid, t)
            own: Dict[tuple, Dict[tuple, object]] = {}
            if query.predicates.matches(row):
                own = grouped_partials_from_row(query, row)
                if own:
                    self._active_since_tick = True
            existing = self._pending_agg.get(key)
            self._pending_agg[key] = (merge_grouped_maps(existing, own)
                                      if existing else own)
        if agg_firing:
            delay = (self._slots.send_delay(max(node.level, 1))
                     + self._rng.uniform(0.0, self.params.slot_jitter_ms))
            node.after(delay, self._flush_aggregates, t)

        if self.params.sleep_enabled:
            self._schedule_sleep_decision(t)

    def _schedule_sleep_decision(self, t: float) -> None:
        period = self.clock.period
        if period is None:
            return
        flush_done = (self._slots.send_delay(max(self.node.level, 1))
                      + self.params.slot_jitter_ms + 64.0)
        decide_after = max(self.params.sleep_defer_ms, flush_done)
        next_tick = t + period
        if t + decide_after < next_tick - self.params.min_sleep_ms:
            self.node.after(decide_after, self._maybe_sleep, next_tick)

    def _maybe_sleep(self, next_tick: float) -> None:
        node = self.node
        if node.asleep or self._active_since_tick or not node.mac.idle:
            return
        if self._pending_agg:
            return
        duration = next_tick - node.engine.now
        if duration >= self.params.min_sleep_ms:
            node.sleep(duration)

    # ------------------------------------------------------------------
    # Result routing
    # ------------------------------------------------------------------
    def _route_and_send_row(self, payload: SharedRowPayload,
                            exclude: Optional[Set[int]] = None,
                            attempts: int = 0) -> None:
        now = self.node.engine.now
        assignment = self.view.select_parents(payload.qids, now, exclude=exclude)
        if not assignment and exclude:
            # Every non-excluded parent is out of reach (a single-parent
            # node rerouting around its only link).  Retrying the failed
            # parent is strictly better than dropping the rows.
            assignment = self.view.select_parents(payload.qids, now)
        if not assignment:
            return
        if (self.params.fallback_fanout > 1 and len(assignment) == 1
                and self.view.all_suspect(now, exclude)):
            # Multicast fallback re-parenting: every parent is suspect, so
            # one frame is widened to a second parent — two chances to get
            # the row out for one transmission.  Rows only: the result log
            # deduplicates rows, duplicated aggregates would double-count.
            extra = self.view.next_best(
                now, exclude=(exclude or set()) | set(assignment))
            if extra is not None:
                assignment[extra] = payload.qids
                self._count("recovery.fallback_multicasts_total",
                            "row frames widened to a second parent because "
                            "every parent was suspect")
        routed = SharedRowPayload(payload.origin, payload.epoch_time,
                                  payload.values, payload.qids,
                                  encode_responsibilities(assignment))
        msg = self.node.send(MessageKind.RESULT, frozenset(assignment), routed,
                             routed.payload_bytes())
        if msg is not None and attempts:
            self._reroutes[msg.msg_id] = attempts
        self._active_since_tick = True
        if attempts == 0 and payload.origin == self.node.node_id:
            self._maybe_duplicate_reliable(payload, set(assignment),
                                           exclude or set())

    def _maybe_duplicate_reliable(self, payload: SharedRowPayload,
                                  primary: Set[int],
                                  excluded: Set[int]) -> None:
        """QoS extension: duplicate an origin row along a second DAG parent.

        Reliable queries pay one extra frame per origin so a single lost
        path cannot lose the row; the base station's result log already
        deduplicates by (origin, epoch).  Applies to acquisition rows only
        — duplicated partial aggregates would double-count SUM/COUNT/AVG.
        """
        reliable = payload.qids & self._reliable_qids
        if not reliable:
            return
        alternates = self.view.select_parents(
            reliable, self.node.engine.now, exclude=primary | excluded)
        if not alternates:
            return
        duplicate = SharedRowPayload(payload.origin, payload.epoch_time,
                                     payload.values, reliable,
                                     encode_responsibilities(alternates))
        self.node.send(MessageKind.RESULT, frozenset(alternates), duplicate,
                       duplicate.payload_bytes())

    def _route_and_send_groups(self, epoch_time: float,
                               groups: Tuple[AggGroup, ...],
                               exclude: Optional[Set[int]] = None,
                               attempts: int = 0) -> None:
        """Send one frame per equal-partial group.

        The paper packs one data message per set of "queries whose partial
        aggregation value are the same" (Section 3.2.2) — groups with
        different values travel in separate frames (Figure 2's node B sends
        two aggregated messages), each routed by its own queries.
        """
        now = self.node.engine.now
        for group in groups:
            assignment = self.view.select_parents(group.qids, now,
                                                  exclude=exclude)
            if not assignment and exclude:
                # Same single-parent fallback as rows: retry the failed
                # link rather than lose the partials.
                assignment = self.view.select_parents(group.qids, now)
            if not assignment:
                continue
            payload = SharedAggPayload(
                sender=self.node.node_id, epoch_time=epoch_time,
                groups=(group,),
                responsibilities=encode_responsibilities(assignment))
            msg = self.node.send(MessageKind.RESULT, frozenset(assignment),
                                 payload, payload.payload_bytes())
            if msg is not None and attempts:
                self._reroutes[msg.msg_id] = attempts
            self._active_since_tick = True

    def _flush_aggregates(self, t: float) -> None:
        per_query: Dict[int, Dict[tuple, Dict[tuple, object]]] = {}
        for key in [k for k in self._pending_agg if k[1] == t]:
            grouped = self._pending_agg.pop(key)
            if grouped:
                per_query[key[0]] = grouped
        if not per_query:
            return
        groups = tuple(group_equal_partials(per_query))
        self._route_and_send_groups(t, groups)

    # ------------------------------------------------------------------
    # Relaying
    # ------------------------------------------------------------------
    def _handle_result(self, payload) -> None:
        if isinstance(payload, SharedRowPayload):
            subset = payload.subset_for(self.node.node_id)
            if not subset:
                return
            trimmed = trim_row_values(payload.values_dict(),
                                      list(self.queries.values()), subset)
            forwarded = SharedRowPayload(
                origin=payload.origin, epoch_time=payload.epoch_time,
                values=tuple(sorted(trimmed.items())), qids=subset)
            self._route_and_send_row(forwarded)
        elif isinstance(payload, SharedAggPayload):
            subset = payload.subset_for(self.node.node_id)
            if not subset:
                return
            leftovers: Dict[int, Dict[tuple, Dict[tuple, object]]] = {}
            for group in payload.groups_for(subset):
                incoming = {group.group_key: {p.key: p for p in group.partials}}
                for qid in group.qids:
                    key = (qid, payload.epoch_time)
                    pending = self._pending_agg.get(key)
                    if pending is not None:
                        # Our slot has not fired: merge for shared upstream tx.
                        self._pending_agg[key] = merge_grouped_maps(pending,
                                                                    incoming)
                    else:
                        existing = leftovers.get(qid)
                        leftovers[qid] = (merge_grouped_maps(existing, incoming)
                                          if existing else dict(incoming))
            if leftovers:
                groups = tuple(group_equal_partials(leftovers))
                self._route_and_send_groups(payload.epoch_time, groups)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _send_beacon(self) -> None:
        if self.node.asleep:
            return
        payload = BeaconPayload(self.node.node_id, self.node.level)
        self.node.broadcast(MessageKind.MAINTENANCE, payload,
                            payload.payload_bytes())


class TTMQOBaseStationApp(TinyDBBaseStationApp):
    """Base station for tier-2 networks: boundary-aligned query floods.

    Sleeping nodes are only guaranteed awake right after a global GCD tick,
    so injections and abortions are deferred to the next boundary of the
    *currently flooded* query set plus a small offset.  With no queries
    running nothing sleeps and floods go out immediately.
    """

    def __init__(self, world, tree, params: Optional[TinyDBParams] = None,
                 seed: int = 0, ttmqo_params: Optional[TTMQOParams] = None) -> None:
        super().__init__(world, tree, params, seed)
        self.ttmqo_params = ttmqo_params or TTMQOParams()
        self._flooded: Dict[int, Query] = {}
        self._pending_injects: Dict[int, Event] = {}
        #: qid -> origin -> last result arrival (origin None for partial
        #: aggregates, which do not carry their origins).
        self._last_report: Dict[int, Dict[Optional[int], float]] = {}
        self._last_redissemination: Dict[int, float] = {}

    def on_start(self) -> None:
        super().on_start()
        period = self.ttmqo_params.silence_check_ms
        if self.ttmqo_params.silence_epochs > 0 and period > 0:
            self.node.every(period, self._check_silence,
                            start=self.node.engine.now + period)

    # ------------------------------------------------------------------
    # Deferred network control
    # ------------------------------------------------------------------
    def inject(self, query: Query) -> None:
        if query.qid in self.injected:
            raise ValueError(f"query {query.qid} already injected")
        self.injected[query.qid] = query
        self._seen_queries.add(query.qid)
        self._count("tinydb.bs.queries_injected_total",
                    "queries flooded into the network")
        delay = self._defer_delay()
        if delay <= 0:
            self._schedule_control(self._flood_query_now, query)
        else:
            self._pending_injects[query.qid] = self.node.after(
                delay, self._deferred_inject, query)

    def abort(self, qid: int) -> None:
        if qid not in self.injected:
            raise ValueError(f"query {qid} was never injected")
        if qid in self.aborted:
            return
        self.aborted.add(qid)
        self._seen_aborts.add(qid)
        self._count("tinydb.bs.aborts_total",
                    "abortions flooded into the network")
        pending = self._pending_injects.pop(qid, None)
        if pending is not None:
            # The query never reached the network; cancel silently.
            self.node.engine.cancel(pending)
            return
        delay = self._defer_delay()
        if delay <= 0:
            self._schedule_control(self._flood_abort_now, qid)
        else:
            self.node.after(delay, self._schedule_control,
                            self._flood_abort_now, qid)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _defer_delay(self) -> float:
        """Time until the next all-awake window (just after a global tick)."""
        running = [q for qid, q in self._flooded.items() if qid not in self.aborted]
        if not running:
            return 0.0
        period = gcd_epoch(q.epoch_ms for q in running)
        now = self.node.engine.now
        target = next_boundary(now, period) + self.ttmqo_params.inject_offset_ms
        return target - now

    def _deferred_inject(self, query: Query) -> None:
        self._pending_injects.pop(query.qid, None)
        if query.qid in self.aborted:
            return
        self._schedule_control(self._flood_query_now, query)

    def _flood_query_now(self, query: Query) -> None:
        super()._flood_query_now(query)
        if query.qid not in self.aborted:
            self._flooded[query.qid] = query

    def _flood_abort_now(self, qid: int) -> None:
        super()._flood_abort_now(qid)
        self._flooded.pop(qid, None)

    def _refresh_queries(self) -> None:
        # Refresh floods must also land in an all-awake window.
        delay = self._defer_delay()
        if delay <= 0:
            super()._refresh_queries()
        else:
            parent_refresh = super()._refresh_queries
            self.node.after(delay, parent_refresh)

    # ------------------------------------------------------------------
    # Subtree-silence recovery (robustness extension)
    # ------------------------------------------------------------------
    def _handle_result(self, payload) -> None:
        super()._handle_result(payload)
        if self.ttmqo_params.silence_epochs <= 0:
            return
        now = self.node.engine.now
        if isinstance(payload, RowResultPayload):
            for qid in payload.qids:
                if qid not in self.aborted:
                    self._last_report.setdefault(qid, {})[payload.origin] = now
        elif isinstance(payload, AggResultPayload):
            for group in payload.groups:
                for qid in group.qids:
                    if qid not in self.aborted:
                        self._last_report.setdefault(qid, {})[None] = now

    def _check_silence(self) -> None:
        """Re-disseminate queries whose reporting origins went silent.

        A query that was producing results and stopped — for longer than
        ``silence_epochs`` of its own epochs — most likely lost its subtree
        to failures or a partitioned DAG.  Re-flooding the query (with a
        bumped generation) repairs nodes that lost it, refreshes every
        node's has-data evidence, and clears unreachable state via the
        flood frames themselves being heard.  Rate-limited per query.
        """
        now = self.node.engine.now
        for qid, query in sorted(self.running_queries().items()):
            reports = self._last_report.get(qid)
            if not reports:
                continue  # never produced anything: nothing to recover
            threshold = self.ttmqo_params.silence_epochs * query.epoch_ms
            silent = [origin for origin, last in reports.items()
                      if now - last > threshold]
            if not silent:
                continue
            last_re = self._last_redissemination.get(qid, float("-inf"))
            if now - last_re < self.ttmqo_params.redissemination_min_interval_ms:
                continue
            self._last_redissemination[qid] = now
            # Silent origins must report again before they can re-trigger.
            for origin in silent:
                del reports[origin]
            self._generations[qid] = self._generations.get(qid, 0) + 1
            obs = self._obs()
            if obs is not None:
                obs.count_recovery(
                    "recovery.redisseminations_total",
                    "base-station query re-floods triggered by subtree "
                    "silence")
            self._schedule_control(self._flood_query_now, query)
