"""Simulation statistics: the source of the paper's evaluation metrics.

The paper's headline metric is the *average transmission time*: "the average
percentage of transmission time spent on each node for all running queries
over the simulation time" (Section 4.1), counting result messages, query
propagation and abortion messages, network maintenance messages and
retransmissions.  :class:`TraceCollector` accumulates per-node radio busy
time and per-kind message counts; :meth:`TraceCollector.average_transmission_time`
computes the metric.

The collector is the simulation's only radio ledger: the channel, the MAC
and the nodes report each frame, collision, loss, retransmission, drop and
radio-off period to it once.  ``RunResult``, the planner's statistics and
the live ``sim.*`` registry series (``docs/observability.md``) all read
that one record: a frame is written once, into the ledger, and the
registry's per-frame series read the ledger's totals when they are read.
Only the rare labelled events (link losses, drops, outages) are pushed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from operator import getitem
from typing import Dict, Iterable, List, Optional, Set, TYPE_CHECKING

from .engine import EventQueue
from .messages import Message, MessageKind

if TYPE_CHECKING:  # pragma: no cover
    from ..obs import SimObs


@dataclass(frozen=True)
class EnergyModel:
    """Per-state power draw in milliwatts (mica2-era magnitudes).

    Radio transmission is the paper's cost proxy, but sleep mode's benefit
    only shows in an energy model that charges idle listening: a mote's
    radio draws nearly as much receiving/idling as transmitting, and orders
    of magnitude less asleep.
    """

    tx_mw: float = 60.0
    listen_mw: float = 24.0
    sleep_mw: float = 0.03

    def energy_mj(self, tx_ms: float, sleep_ms: float, elapsed_ms: float) -> float:
        """Energy in millijoules for one node over ``elapsed_ms``."""
        listen_ms = max(elapsed_ms - tx_ms - sleep_ms, 0.0)
        return (self.tx_mw * tx_ms + self.listen_mw * listen_ms
                + self.sleep_mw * sleep_ms) / 1000.0


@dataclass
class NodeStats:
    """Per-node accumulated radio statistics."""

    node_id: int
    tx_busy_ms: float = 0.0
    tx_count: int = 0
    tx_bytes: int = 0
    sleep_ms: float = 0.0
    by_kind: Dict[MessageKind, int] = field(default_factory=dict)


@dataclass
class LinkStats:
    """Network-wide link-layer events of one simulation."""

    collisions: int = 0
    retransmissions: int = 0


class TraceCollector:
    """Accumulates radio activity across a simulation run.

    Handed the simulation's observability bundle, the collector binds the
    process-wide registry's ``sim.radio.*`` / ``sim.mac.*`` /
    ``sim.node.*`` series to its accumulators at the moment each series
    first has something to count — collisions and retransmissions at
    construction, a kind's series on its first frame, a node's transmit
    time on its first frame and its sleep time on its first sleep — and
    each frame appends its ``radio.tx`` span record to the bundle.  Series
    shared by several simulations (cluster shards, cells in one scope)
    read the sum of their per-simulation totals.  The bound readers hold
    only the accumulators (``NodeStats``, the per-kind records,
    ``LinkStats``, the span samples), never the collector, so the
    registry does not keep a finished simulation alive.  What frees one
    is ``Simulation.close()``, which its owner calls once the run is read:
    it cuts the simulation's own reference cycles (pending events, node ↔
    application, node ↔ MAC), and the run is freed by reference counting
    when the owner drops it.  The collector is in none of those cycles.
    """

    def __init__(self, engine: EventQueue,
                 obs: Optional["SimObs"] = None) -> None:
        self._engine = engine
        self._obs = obs
        self._nodes: Dict[int, NodeStats] = {}
        #: Per kind: [frames, bytes, airtime ms, ring code], in
        #: transmission order.
        self._kinds: Dict[MessageKind, List] = {}
        self._sleepers: Set[int] = set()
        self._link = LinkStats()
        self.started_at = engine.now
        self.dropped_frames = 0
        self._span_ring = self._span_samples = None
        if obs is not None:
            self._span_ring = obs.radio_tx
            self._span_samples = obs.radio_tx_ms
            obs.registry.counter(
                "sim.radio.collisions_total",
                help="receivers that lost a frame to a collision"
            ).add_part(partial(getattr, self._link, "collisions"))
            obs.registry.counter(
                "sim.mac.retransmissions_total",
                help="link-layer retransmissions of acknowledged frames"
            ).add_part(partial(getattr, self._link, "retransmissions"))

    @property
    def collisions(self) -> int:
        """Receivers that lost a frame to a collision."""
        return self._link.collisions

    @property
    def retransmissions(self) -> int:
        """Retried frames put on the air."""
        return self._link.retransmissions

    # ------------------------------------------------------------------
    # Recording hooks (called by the radio/MAC/node layers)
    # ------------------------------------------------------------------
    def node_stats(self, node_id: int) -> NodeStats:
        """This node's accumulator, created on first use."""
        stats = self._nodes.get(node_id)
        if stats is None:
            stats = NodeStats(node_id)
            self._nodes[node_id] = stats
        return stats

    def record_transmission(self, src: int, msg: Message, duration: float) -> None:
        """One frame on air: Eq. 3 charges its sender ``duration`` ms.

        Every per-frame write is made here, in one call: the sender's
        ``NodeStats``, the kind's totals, then the span sample and the
        span ring (see :class:`repro.obs.accounting.FrameRing`).
        """
        kind = msg.kind
        length = msg.length_bytes
        stats = self._nodes.get(src)
        if stats is None or not stats.tx_count:
            stats = self._first_transmission(src)
        stats.tx_busy_ms += duration
        stats.tx_count += 1
        stats.tx_bytes += length
        by_kind = stats.by_kind
        by_kind[kind] = by_kind.get(kind, 0) + 1
        totals = self._kinds.get(kind)
        if totals is None:
            totals = self._first_of_kind(kind)
        totals[0] += 1
        totals[1] += length
        totals[2] += duration
        ring = self._span_ring
        if ring is not None:
            start = self._engine.now
            end = start + duration
            self._span_samples.append(end - start)
            nodes, codes, starts, ends = ring.columns
            index = ring.pushed
            ring.pushed = index + 1
            if index < ring.cap:
                nodes.append(src)
                codes.append(totals[3])
                starts.append(start)
                ends.append(end)
            else:
                index %= ring.cap
                nodes[index] = src
                codes[index] = totals[3]
                starts[index] = start
                ends[index] = end

    def _first_transmission(self, src: int) -> NodeStats:
        stats = self.node_stats(src)
        if self._obs is not None:
            self._obs.registry.counter(
                "sim.node.tx_ms_total", help="per-node radio transmit time",
                unit="ms", node=src
            ).add_part(partial(getattr, stats, "tx_busy_ms"))
        return stats

    def _first_of_kind(self, kind: MessageKind) -> List:
        totals = [0, 0, 0.0, None]
        if self._obs is not None:
            totals[3] = self._span_ring.code(kind)
            registry = self._obs.registry
            if not self._kinds:  # this simulation's first frame
                registry.histogram(
                    "span.radio.tx.duration_ms",
                    help="duration of radio.tx spans", unit="ms"
                ).add_part(self._span_samples)
            frames, size, airtime = (partial(getitem, totals, index)
                                     for index in range(3))
            registry.counter(
                "sim.radio.tx_frames_total",
                help="frames put on air (retransmissions count again)",
                kind=kind.value).add_part(frames)
            registry.counter(
                "sim.radio.tx_bytes_total", help="frame bytes put on air",
                unit="bytes", kind=kind.value).add_part(size)
            registry.counter(
                "sim.radio.airtime_ms_total",
                help="channel time C_start + C_trans*len (Eq. 3)",
                unit="ms", kind=kind.value).add_part(airtime)
        self._kinds[kind] = totals
        return totals

    def record_collision(self, msg: Message, receivers: int) -> None:
        """``receivers`` nodes lost this frame to a collision."""
        self._link.collisions += receivers

    def record_link_loss(self, model: str) -> None:
        """A channel loss model (``bernoulli``/``burst``) ate a frame copy."""
        if self._obs is not None:
            self._obs.registry.counter(
                "sim.radio.link_losses_total",
                help="frames eaten by the channel loss models",
                model=model).inc()

    def record_retransmission(self) -> None:
        """A retried frame is going on the air."""
        self._link.retransmissions += 1

    def record_drop(self, reason: str) -> None:
        """The MAC gave up on a frame: ``queue_full`` or ``retry_exhausted``."""
        self.dropped_frames += 1
        if self._obs is not None:
            self._obs.registry.counter(
                "sim.mac.dropped_frames_total",
                help="frames abandoned by the MAC", reason=reason).inc()

    def record_sleep(self, node_id: int, duration: float) -> None:
        """Accrue radio-off time to the node (sleep mode or outage)."""
        stats = self.node_stats(node_id)
        stats.sleep_ms += duration
        if node_id not in self._sleepers:
            self._sleepers.add(node_id)
            if self._obs is not None:
                self._obs.registry.counter(
                    "sim.node.sleep_ms_total",
                    help="per-node radio-off time", unit="ms", node=node_id
                ).add_part(partial(getattr, stats, "sleep_ms"))

    def record_outage(self, node_id: int, off_ms: float) -> None:
        """An injected fail-stop outage adds ``off_ms`` of radio-off time."""
        self.record_sleep(node_id, off_ms)
        if self._obs is not None:
            self._obs.registry.counter(
                "sim.node.failures_total",
                help="injected fail-stop outages").inc()

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    @property
    def elapsed_ms(self) -> float:
        """Virtual time since this collector started observing."""
        return self._engine.now - self.started_at

    def total_transmissions(self, kinds: Optional[Iterable[MessageKind]] = None) -> int:
        """Total frames put on air (retransmissions counted as new frames)."""
        selected = set(kinds) if kinds is not None else None
        total = 0
        for stats in self._nodes.values():
            for kind, count in stats.by_kind.items():
                if selected is None or kind in selected:
                    total += count
        return total

    def total_tx_time_ms(self) -> float:
        """Summed radio transmit time across all nodes, in ms."""
        return sum(s.tx_busy_ms for s in self._nodes.values())

    def average_transmission_time(self, node_ids: Iterable[int],
                                  include_base_station: Optional[int] = None) -> float:
        """The paper's metric: mean fraction of time nodes spend transmitting.

        Parameters
        ----------
        node_ids:
            Nodes to average over (normally every sensor node; pass the
            base-station id in ``include_base_station`` to exclude it, since
            the paper's motes — not the powered sink — are the resource that
            matters).
        """
        ids = [n for n in node_ids if n != include_base_station]
        if not ids or self.elapsed_ms <= 0:
            return 0.0
        fractions = [
            self._nodes[n].tx_busy_ms / self.elapsed_ms if n in self._nodes else 0.0
            for n in ids
        ]
        return sum(fractions) / len(fractions)

    def average_energy_mj(self, node_ids: Iterable[int],
                          model: Optional[EnergyModel] = None,
                          include_base_station: Optional[int] = None) -> float:
        """Mean per-node energy (mJ) over the run under an energy model.

        With an observability bundle this is also what publishes the
        ``sim.energy.*`` gauges, from the same loop, so
        ``sim.energy.avg_node_mj`` is the returned float.
        """
        model = model or EnergyModel()
        ids = [n for n in node_ids if n != include_base_station]
        elapsed_ms = self.elapsed_ms
        registry = self._obs.registry if self._obs is not None else None
        total = 0.0
        for node_id in ids:
            stats = self._nodes.get(node_id)
            tx = stats.tx_busy_ms if stats else 0.0
            sleep = stats.sleep_ms if stats else 0.0
            mj = model.energy_mj(tx, min(sleep, elapsed_ms), elapsed_ms) \
                if elapsed_ms > 0 else 0.0
            total += mj
            if registry is not None:
                registry.gauge("sim.energy.node_mj",
                               help="per-node energy under the energy model",
                               unit="mJ", node=node_id).set(mj)
        average = total / len(ids) if ids else 0.0
        if registry is not None:
            registry.gauge("sim.energy.total_mj",
                           help="summed node energy (base station excluded)",
                           unit="mJ").set(total)
            registry.gauge("sim.energy.avg_node_mj",
                           help="mean per-node energy (matches "
                                "RunResult.average_energy_mj)",
                           unit="mJ").set(average)
        return average

    def messages_by_kind(self) -> Dict[MessageKind, int]:
        """Network-wide frame counts per traffic kind."""
        totals: Dict[MessageKind, int] = {}
        for stats in self._nodes.values():
            for kind, count in stats.by_kind.items():
                totals[kind] = totals.get(kind, 0) + count
        return totals

    def airtime_by_kind(self) -> Dict[MessageKind, float]:
        """Network-wide radio airtime (ms) per traffic kind, summed in
        transmission order."""
        return {kind: totals[2] for kind, totals in self._kinds.items()}

    def involved_nodes(self, kind: Optional[MessageKind] = None) -> List[int]:
        """Nodes that transmitted at least one frame (optionally of ``kind``)."""
        result = []
        for node_id, stats in sorted(self._nodes.items()):
            if kind is None:
                if stats.tx_count > 0:
                    result.append(node_id)
            elif stats.by_kind.get(kind, 0) > 0:
                result.append(node_id)
        return result

    def summary(self) -> Dict[str, float]:
        """A flat dict of headline numbers, for reporting."""
        return {
            "elapsed_ms": self.elapsed_ms,
            "total_tx_time_ms": self.total_tx_time_ms(),
            "total_frames": float(self.total_transmissions()),
            "result_frames": float(self.total_transmissions([MessageKind.RESULT])),
            "query_frames": float(self.total_transmissions([MessageKind.QUERY])),
            "abort_frames": float(self.total_transmissions([MessageKind.ABORT])),
            "maintenance_frames": float(
                self.total_transmissions([MessageKind.MAINTENANCE])
            ),
            "collisions": float(self.collisions),
            "retransmissions": float(self.retransmissions),
            "dropped_frames": float(self.dropped_frames),
        }
