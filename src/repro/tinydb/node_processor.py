"""Per-node TinyDB-style query execution (the paper's baseline).

Each query runs independently: its own flood, its own epoch timer, its own
acquisition, and its own result messages routed over the fixed link-quality
routing tree.  "As a reference, we use the following strategy as the
baseline for comparison: each query is optimized by TinyDB, and multiple
queries that have been sent to the base station are all injected into the
network to run concurrently without multi-query optimization" (Section 4.1).

Aggregation uses TAG-style slotted collection: children transmit partial
aggregates one slot before their parent (see :mod:`repro.tinydb.epochs`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from ..queries.ast import Query
from ..sensors.field import SensorWorld
from ..sensors.sampler import Sampler
from ..sim.engine import Event, PeriodicTimer
from ..sim.messages import MessageKind, Message
from ..sim.node import NodeApp
from .aggregation import (
    grouped_partials_from_row,
    merge_grouped_maps,
    merge_partial_maps,
    partials_from_row,
)
from .epochs import SlotSchedule, next_boundary
from .payloads import (
    AbortPayload,
    AggGroup,
    AggResultPayload,
    BeaconPayload,
    QueryPayload,
    RowResultPayload,
)
from .routing_tree import RoutingTree
from .srt import SemanticRoutingTree


@dataclass(frozen=True)
class TinyDBParams:
    """Tunables of the baseline processor."""

    #: TAG slot length for aggregation collection (ms).
    slot_ms: float = 256.0
    #: Period of network-maintenance beacons (ms).
    maintenance_period_ms: float = 30720.0
    #: Maximum random delay before re-flooding a query/abort frame (ms).
    flood_spread_ms: float = 150.0
    #: Max random delay before sending an acquisition row, desynchronising
    #: the epoch-aligned senders (TinyDB spreads sends across the epoch).
    result_jitter_ms: float = 768.0
    #: Max random extra delay within an aggregation slot.
    slot_jitter_ms: float = 96.0
    #: Period of the base station's query re-advertisement (0 disables).
    #: Floods are unacknowledged, so nodes can miss a query in a collision;
    #: periodic refresh floods (with a bumped generation) repair them.
    query_refresh_ms: float = 30720.0
    #: Disseminate node-id based queries along the Semantic Routing Tree
    #: (acknowledged unicasts into matching subtrees) instead of flooding.
    use_srt: bool = False
    #: App-level retransmissions of a RESULT frame after the MAC gives up
    #: (hop-by-hop recovery on the fixed tree link; 0 restores the old
    #: drop-silently behaviour).
    link_retry_limit: int = 2
    #: Base delay before an app-level retransmission (ms); doubles with
    #: each attempt (exponential backoff above the MAC's own backoff).
    link_retry_base_ms: float = 128.0


@dataclass
class _RunningQuery:
    query: Query
    timer: PeriodicTimer


class TinyDBNodeApp(NodeApp):
    """Baseline per-node application.  Subclassed by the base station."""

    def __init__(self, world: SensorWorld, tree: RoutingTree,
                 params: Optional[TinyDBParams] = None, seed: int = 0) -> None:
        self.world = world
        self.tree = tree
        self.params = params or TinyDBParams()
        self._seed = seed
        self.sampler: Optional[Sampler] = None
        self.queries: Dict[int, _RunningQuery] = {}
        self._seen_queries: Set[int] = set()
        self._seen_query_keys: Set[Tuple[int, int]] = set()
        self._seen_aborts: Set[int] = set()
        # (qid, epoch_time) -> accumulating partial-aggregate map.
        self._pending_agg: Dict[Tuple[int, float], Dict[tuple, object]] = {}
        self._slots = SlotSchedule(tree.max_depth, self.params.slot_ms)
        self._rng: Optional[random.Random] = None
        # msg_id -> app-level retransmission attempts already spent.
        self._link_retries: Dict[int, int] = {}
        self.srt = (SemanticRoutingTree(tree, world.topology.positions)
                    if self.params.use_srt else None)

    # ------------------------------------------------------------------
    # NodeApp hooks
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        self.sampler = Sampler(self.world, self.node.node_id)
        self._rng = random.Random((self._seed << 16) ^ (self.node.node_id * 7919))
        period = self.params.maintenance_period_ms
        if period > 0 and not self.node.is_base_station:
            phase = period * (0.1 + 0.8 * self._rng.random())
            self.node.every(period, self._send_beacon, start=self.node.engine.now + phase)

    def on_wake(self) -> None:  # baseline never sleeps
        pass

    def on_send_failed(self, msg: Message, failed) -> None:
        """Hop-by-hop recovery: retransmit a result up the same tree link.

        The fixed routing tree has no alternative route, so the only
        recovery is to try the same parent again after an exponentially
        growing delay (``link_retry_base_ms * 2^attempt``) — the parent may
        have been busy, collided, or briefly down.  Bounded by
        ``link_retry_limit``; exhausted frames are dropped for good.
        """
        if msg.kind is not MessageKind.RESULT:
            return
        attempts = self._link_retries.pop(msg.msg_id, 0)
        if attempts >= self.params.link_retry_limit:
            return
        delay = self.params.link_retry_base_ms * (2.0 ** attempts)
        obs = getattr(self.node, "obs", None)
        if obs is not None:
            obs.count_recovery(
                "recovery.app_retries_total",
                "app-level retransmissions after MAC give-up",
                layer="tinydb")
        self.node.after(delay, self._resend_to_parent, msg.payload,
                        attempts + 1)

    def _resend_to_parent(self, payload, attempts: int) -> None:
        parent = self.tree.parent.get(self.node.node_id)
        if parent is None:
            return
        msg = self.node.send(MessageKind.RESULT, parent, payload,
                             payload.payload_bytes())
        if msg is not None:
            self._link_retries[msg.msg_id] = attempts

    def overhears(self, kind: MessageKind, src: int) -> bool:
        """Floods are for everyone; results and beacons only when addressed."""
        return kind is MessageKind.QUERY or kind is MessageKind.ABORT

    def on_message(self, msg: Message) -> None:
        if msg.kind is MessageKind.QUERY:
            if msg.is_unicast and msg.link_dst != self.node.node_id:
                return  # SRT dissemination addressed to someone else
            self._handle_query(msg.payload)
        elif msg.kind is MessageKind.ABORT:
            self._handle_abort(msg.payload)
        elif msg.kind is MessageKind.RESULT:
            destinations = msg.destinations()
            if destinations is not None and self.node.node_id in destinations:
                self._handle_result(msg.payload)
        # MAINTENANCE frames cost airtime but carry no baseline state.

    # ------------------------------------------------------------------
    # Query/abort flooding
    # ------------------------------------------------------------------
    def _handle_query(self, payload: QueryPayload) -> None:
        query = payload.query
        if query.qid in self._seen_aborts:
            return
        key = (query.qid, payload.generation)
        if key in self._seen_query_keys:
            return
        self._seen_query_keys.add(key)
        if query.qid not in self._seen_queries:
            self._seen_queries.add(query.qid)
            self._start_query(query)
        # Re-propagate every generation once, so refresh floods reach nodes
        # that missed the original dissemination in a collision.
        self._propagate_query(
            payload.advance(self.node.node_id, self.node.level, False))

    def _propagate_query(self, payload: QueryPayload) -> None:
        """Forward a query: SRT unicasts for static queries, else flood."""
        if self.srt is not None and self.srt.applies_to(payload.query):
            for child in self.srt.children_to_forward(self.node.node_id,
                                                      payload.query):
                self.node.send(MessageKind.QUERY, child, payload,
                               payload.payload_bytes())
            return
        self._reflood(MessageKind.QUERY, payload)

    def _handle_abort(self, payload: AbortPayload) -> None:
        if payload.qid in self._seen_aborts:
            return
        self._seen_aborts.add(payload.qid)
        self._stop_query(payload.qid)
        self._reflood(MessageKind.ABORT, payload)

    def _reflood(self, kind: MessageKind, payload) -> None:
        delay = self._rng.uniform(0.0, self.params.flood_spread_ms)
        self.node.after(delay, self.node.broadcast, kind, payload,
                        payload.payload_bytes())

    def _start_query(self, query: Query) -> None:
        start = next_boundary(self.node.engine.now, query.epoch_ms)
        timer = self.node.every(query.epoch_ms, lambda q=query: self._epoch_fire(q),
                                start=start)
        self.queries[query.qid] = _RunningQuery(query, timer)

    def _stop_query(self, qid: int) -> None:
        running = self.queries.pop(qid, None)
        if running is not None:
            running.timer.stop()
        stale = [key for key in self._pending_agg if key[0] == qid]
        for key in stale:
            del self._pending_agg[key]

    # ------------------------------------------------------------------
    # Epoch processing
    # ------------------------------------------------------------------
    def _epoch_fire(self, query: Query) -> None:
        if query.qid not in self.queries or self.node.failed:
            return
        t = self.node.engine.now
        row = self.sampler.acquire(query.requested_attributes(), t, shared=False)
        if query.is_acquisition:
            if query.predicates.matches(row):
                values = {a: row[a] for a in query.attributes}
                payload = RowResultPayload.from_dict(
                    self.node.node_id, t, values, frozenset((query.qid,)))
                jitter = self._rng.uniform(
                    0.0, min(self.params.result_jitter_ms, query.epoch_ms / 4.0))
                self.node.after(jitter, self._send_to_parent, payload)
            return
        # Aggregation: open this epoch's (grouped) partial accumulator and
        # arm the slot.  Ungrouped queries live under the empty group key.
        key = (query.qid, t)
        own = {}
        if query.predicates.matches(row):
            own = grouped_partials_from_row(query, row)
        existing = self._pending_agg.get(key)
        self._pending_agg[key] = (merge_grouped_maps(existing, own)
                                  if existing else own)
        delay = (self._slots.send_delay(max(self.node.level, 1))
                 + self._rng.uniform(0.0, self.params.slot_jitter_ms))
        self.node.after(delay, self._flush_partial, query.qid, t)

    def _flush_partial(self, qid: int, epoch_time: float) -> None:
        grouped = self._pending_agg.pop((qid, epoch_time), None)
        if not grouped:
            return
        groups = tuple(
            AggGroup(frozenset((qid,)), tuple(partials.values()), group_key)
            for group_key, partials in sorted(grouped.items())
            if partials
        )
        if not groups:
            return
        payload = AggResultPayload(
            sender=self.node.node_id,
            epoch_time=epoch_time,
            groups=groups,
        )
        self._send_to_parent(payload)

    # ------------------------------------------------------------------
    # Result forwarding
    # ------------------------------------------------------------------
    def _handle_result(self, payload) -> None:
        if isinstance(payload, RowResultPayload):
            self._send_to_parent(payload)
            return
        if isinstance(payload, AggResultPayload):
            for group in payload.groups:
                (qid,) = tuple(group.qids)  # baseline groups are singletons
                key = (qid, payload.epoch_time)
                pending = self._pending_agg.get(key)
                incoming = {group.group_key: {p.key: p for p in group.partials}}
                if pending is not None:
                    # Our slot has not fired yet: merge and send combined later.
                    self._pending_agg[key] = merge_grouped_maps(pending,
                                                                incoming)
                else:
                    # Late or unknown epoch: relay unchanged.
                    self._send_to_parent(
                        AggResultPayload(self.node.node_id, payload.epoch_time,
                                         (group,)))

    def _send_to_parent(self, payload) -> None:
        parent = self.tree.parent.get(self.node.node_id)
        if parent is None:
            return  # the base station overrides result handling entirely
        self.node.send(MessageKind.RESULT, parent, payload, payload.payload_bytes())

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _send_beacon(self) -> None:
        payload = BeaconPayload(self.node.node_id, self.node.level)
        self.node.broadcast(MessageKind.MAINTENANCE, payload, payload.payload_bytes())
