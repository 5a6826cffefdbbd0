"""Broadcast radio channel with packet-level collision semantics.

Reproduces the aspects of TOSSIM's packet-level radio that the paper's
metric observes:

* every transmission occupies the channel for
  ``C_start + C_trans * length_bytes`` milliseconds (the paper's Eq. 3 cost
  of a single hop);
* the channel is a shared broadcast medium — every powered-on node within
  radio range hears a frame, which tier-2 exploits for multicast and
  snooping;
* two frames overlapping in time at a receiver that is in range of both
  senders collide and neither is received ("transmission failures, such as
  collisions", Section 3.1.2);
* nodes are half-duplex: a node cannot receive while transmitting.

The paper otherwise assumes a lossless environment (Section 4.1), so link
loss is off by default.  Two optional loss models power the robustness
extension: an independent Bernoulli per-receiver ``loss_rate`` and a
seeded per-link Gilbert–Elliott burst model
(:class:`GilbertElliottParams`) whose two-state Markov chain reproduces
the correlated loss bursts real motes see.

The channel reports every frame on the air, collision and link loss to
the simulation's radio ledger (:class:`repro.sim.trace.TraceCollector`),
which also feeds the ``sim.radio.*`` series documented in
``docs/observability.md``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import (AbstractSet, Callable, Dict, FrozenSet, Iterator, Optional,
                    Set, Tuple, TYPE_CHECKING)

from .engine import EventQueue
from .messages import LinkDestination, Message, MessageKind

if TYPE_CHECKING:  # pragma: no cover
    from .network import Topology
    from .trace import TraceCollector


@dataclass(frozen=True)
class GilbertElliottParams:
    """Two-state Markov (Gilbert–Elliott) burst-loss model for one link.

    Each directed link carries an independent chain: in the *good* state
    frames are lost with ``loss_good``, in the *bad* state with
    ``loss_bad``.  The chain advances once per frame on the link, so mean
    burst length is ``1 / p_bad_to_good`` frames and the stationary
    bad-state probability is ``p_good_to_bad / (p_good_to_bad +
    p_bad_to_good)``.  Defaults model short deep fades: ~12% of time in a
    bad state that drops three of four frames.
    """

    #: Per-frame probability of a good link entering a fade.
    p_good_to_bad: float = 0.05
    #: Per-frame probability of a fade ending.
    p_bad_to_good: float = 0.35
    #: Frame-loss probability while the link is good.
    loss_good: float = 0.0
    #: Frame-loss probability while the link is bad.
    loss_bad: float = 0.75

    def __post_init__(self) -> None:
        for name in ("p_good_to_bad", "p_bad_to_good"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1] (got {value})")
        for name in ("loss_good", "loss_bad"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ValueError(f"{name} must be in [0, 1) (got {value})")

    @property
    def stationary_bad(self) -> float:
        """Long-run fraction of frames sent while the link is bad."""
        total = self.p_good_to_bad + self.p_bad_to_good
        return self.p_good_to_bad / total if total > 0 else 0.0

    @property
    def mean_loss_rate(self) -> float:
        """Long-run per-frame loss probability of the chain."""
        bad = self.stationary_bad
        return bad * self.loss_bad + (1.0 - bad) * self.loss_good


@dataclass(frozen=True)
class RadioParams:
    """Physical-layer timing constants.

    Defaults model the mica2 CC1000 radio the paper's TinyDB ran on:
    38.4 kbps => 4.8 bytes/ms, with a startup cost covering preamble and
    synchronisation.  ``C_trans`` is the reciprocal of the data rate, exactly
    how the paper instantiates its cost model ("we use the reciprocal of the
    data rate of the sensor nodes as the value of C_trans").

    ``loss_rate`` is an independent per-receiver frame-loss probability.
    The paper "assume[s] a lossless communication environment" (its default
    here, 0.0) and names unreliable transmission as future work; a non-zero
    rate enables that extension (see the robustness benchmark).  ``burst``
    additionally (or instead) enables the per-link Gilbert–Elliott burst
    model; both default off, leaving the lossless channel untouched.
    """

    data_rate_bytes_per_ms: float = 4.8
    startup_ms: float = 2.0
    loss_rate: float = 0.0
    burst: Optional[GilbertElliottParams] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1) (got {self.loss_rate})")

    @property
    def c_trans(self) -> float:
        """Per-byte transmission cost in ms (the paper's ``C_trans``)."""
        return 1.0 / self.data_rate_bytes_per_ms

    @property
    def c_start(self) -> float:
        """Per-frame startup cost in ms (the paper's ``C_start``)."""
        return self.startup_ms

    def airtime_ms(self, length_bytes: int) -> float:
        """On-air duration of one frame: ``C_start + C_trans * len``."""
        return self.c_start + self.c_trans * length_bytes


def ge_link_seed(seed: int, src: int, dst: int) -> int:
    """The deterministic RNG seed of one directed link's loss chain.

    Each link owns an independent stream so loss patterns never depend on
    global transmission order.
    """
    return (seed << 16) ^ (src * 0x1F123BB5) ^ (dst * 0x9E3779B1) ^ 0x6E110B


@dataclass
class _Transmission:
    src: int
    msg: Message
    end: float
    #: The sender's own bit and the bits of the nodes in range of it.
    bit: int
    adj: int
    #: Bitsets accumulated while the frame is on the air: the union of the
    #: overlapping transmitters' ``bit`` (``overlap_self``) and of their
    #: ``adj`` (``overlap_adj``).  See ``Channel.transmit``.
    overlap_adj: int = 0
    overlap_self: int = 0


def _set_bits(bits: int) -> Iterator[int]:
    """Each set bit of ``bits`` on its own, lowest (lowest node id) first."""
    while bits:
        low = bits & -bits
        yield low
        bits ^= low


def _hears_everything(kind: MessageKind, src: int) -> bool:
    """The interest of a node that declared none: every frame."""
    return True


def _decode(bits: int, ids: Tuple[int, ...]) -> Set[int]:
    """The node ids whose bits are set in ``bits``."""
    return {ids[bit.bit_length() - 1] for bit in _set_bits(bits)}


class DeliveryReport:
    """Outcome of one transmission, handed back to the sending MAC.

    The MAC reads ``failed_destinations`` on every frame, so that is
    materialised.  Who received the frame and who lost it to what is kept
    as the bitsets reception was computed in, and decoded to node-id sets
    only when somebody asks.
    """

    __slots__ = ("msg", "failed_destinations", "_ids", "_received_bits",
                 "_collided_bits", "_lost_bits")

    def __init__(self, msg: Message, failed_destinations: AbstractSet[int],
                 ids: Tuple[int, ...], received_bits: int,
                 collided_bits: int, lost_bits: int) -> None:
        self.msg = msg
        #: Intended destinations that failed to receive (collision / asleep
        #: / transmitting / channel loss / out of range).
        self.failed_destinations = failed_destinations
        self._ids = ids
        self._received_bits = received_bits
        self._collided_bits = collided_bits
        self._lost_bits = lost_bits

    @property
    def received(self) -> Set[int]:
        """Node ids that successfully received the frame."""
        return _decode(self._received_bits, self._ids)

    @property
    def collided(self) -> Set[int]:
        """Receivers lost to a collision specifically."""
        return _decode(self._collided_bits, self._ids)

    @property
    def lost(self) -> Set[int]:
        """Receivers lost to channel loss (Bernoulli or burst model)."""
        return _decode(self._lost_bits, self._ids)


#: One frame shape's delivery plan: the bits of its explicit destinations
#: that are in range of the sender, the destinations that are not (they
#: always fail), and ``(receiver bit, hook)`` in ascending receiver id for
#: the in-range nodes that act on it.
_Plan = Tuple[int, FrozenSet[int],
              Tuple[Tuple[int, Callable[[Message], None]], ...]]


class Channel:
    """The shared radio medium.

    Nodes register receive hooks; the MAC layer calls :meth:`transmit` after
    carrier sensing via :meth:`is_busy_at`.

    The topology is frozen at construction into Python-int bitsets, one bit
    per node: carrier sensing and collision classification are then single
    integer ANDs, and which frames overlap is accumulated while they are on
    the air instead of being searched for when one completes.
    ``docs/performance.md`` gives the invariants and the measurements
    behind the representation.
    """

    def __init__(self, engine: EventQueue, topology: "Topology",
                 params: Optional[RadioParams] = None,
                 trace: Optional["TraceCollector"] = None,
                 seed: int = 0) -> None:
        self._engine = engine
        self.params = params or RadioParams()
        self._trace = trace
        self._active: Dict[int, _Transmission] = {}
        # node id -> (receive hook, interest predicate).
        self._attached: Dict[int, Tuple[
            Callable[[Message], None],
            Callable[[MessageKind, int], bool]]] = {}
        self._loss_rng = random.Random((seed << 8) ^ 0x10551)
        self._seed = seed
        # Frozen topology.  ``_bit[u]`` is node u's own bit (ids ranked in
        # ascending order), ``_adj_bits[u]`` the bits of the nodes in range
        # of u (symmetric, own bit clear), ``_cover_bits[u]`` their union:
        # the senders u's carrier sense hears, itself included.
        ids = self._ids = tuple(topology.node_ids)
        neighbors = {u: tuple(sorted(topology.neighbors[u])) for u in ids}
        bit = self._bit = {u: 1 << i for i, u in enumerate(ids)}
        self._adj_bits: Dict[int, int] = {
            u: sum(bit[v] for v in neighbors[u]) for u in ids}
        self._cover_bits: Dict[int, int] = {
            u: self._adj_bits[u] | bit[u] for u in ids}
        # Per sender, (receiver id, receiver bit) in ascending receiver id —
        # which is ascending bit, the order delivery and the loss models'
        # RNG consumption follow.
        self._neighbor_pairs: Dict[int, Tuple[Tuple[int, int], ...]] = {
            u: tuple((v, bit[v]) for v in neighbors[u]) for u in ids}
        # Bit u set iff node u has a frame on the air right now (a node
        # never has two at once, so one bit per node suffices).
        self._active_bits = 0
        # Bit u set iff node u's radio is powered down (``set_radio``).
        self._off_bits = 0
        # Gilbert–Elliott state per *directed* in-range link, enumerated in
        # (src, dst) ascending order; 1 = bad.  Each link owns its RNG
        # (seeded by ``ge_link_seed``, created on first use) so loss
        # patterns are independent of global transmission order — the same
        # link sees the same fade sequence regardless of what other nodes
        # do.
        self._edge_index: Dict[Tuple[int, int], int] = {
            link: edge for edge, link in enumerate(
                (u, v) for u in ids for v in neighbors[u])}
        self._ge_bad = bytearray(len(self._edge_index))
        self._link_rngs: Dict[Tuple[int, int], random.Random] = {}
        # True while neither loss model can consume RNG state: reception
        # is then three integer expressions and no per-receiver probe.
        self._lossless = (self.params.loss_rate <= 0.0
                          and self.params.burst is None)
        # Per-frame-length airtime cache: frame lengths cluster on a few
        # payload shapes, so this avoids two float ops per transmission.
        self._airtime_cache: Dict[int, float] = {}
        # Delivery plans per frame shape ``(src, kind, link_dst)``, filled
        # on first use and dropped whenever a node (re-)attaches.
        self._plans: Dict[
            Tuple[int, MessageKind, LinkDestination], _Plan] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def attach(self, node_id: int, on_receive: Callable[[Message], None],
               overhears: Callable[[MessageKind, int], bool]
               = _hears_everything) -> None:
        """Register a node's receive hook and what it wants to overhear.

        ``on_receive`` is called for every frame the node receives as an
        explicit link destination, and for the others when
        ``overhears(kind, src)`` is true (by default, all of them).  The
        answer is cached per frame shape, so it must not change while the
        node stays attached.
        """
        self._attached[node_id] = (on_receive, overhears)
        self._plans.clear()

    def close(self) -> None:
        """Forget every receive hook (they hold the applications)."""
        self._attached.clear()
        self._plans.clear()

    def set_radio(self, node_id: int, on: bool) -> None:
        """Power a node's receiver up or down (radios start powered up)."""
        if on:
            self._off_bits &= ~self._bit[node_id]
        else:
            self._off_bits |= self._bit[node_id]

    # ------------------------------------------------------------------
    # Carrier sensing / transmission
    # ------------------------------------------------------------------
    def is_busy_at(self, node_id: int) -> bool:
        """Carrier sense: is this node or any in-range node transmitting?"""
        return bool(self._active_bits & self._cover_bits[node_id])

    def is_transmitting(self, node_id: int) -> bool:
        """Is this node's own frame currently on the air?"""
        return node_id in self._active

    def transmit(self, src: int, msg: Message,
                 on_complete: Callable[[DeliveryReport], None]) -> float:
        """Put ``msg`` on the air from ``src``; returns the airtime in ms.

        The MAC must only call this when the sender itself is idle; whether
        the *medium* is clear is the MAC's concern (carrier sensing), and an
        imperfect decision simply results in a collision here.
        """
        if src in self._active:
            raise RuntimeError(f"node {src} is already transmitting")
        length = msg.length_bytes
        duration = self._airtime_cache.get(length)
        if duration is None:
            duration = self._airtime_cache[length] = \
                self.params.airtime_ms(length)
        now = self._engine.now
        bit = self._bit[src]
        adj = self._adj_bits[src]
        record = _Transmission(src=src, msg=msg, end=now + duration,
                               bit=bit, adj=adj)
        # Two frames overlap iff the earlier one is still on the air when
        # the later starts, so updating both records here sees exactly the
        # pairs whose intervals intersect.  A record whose ``end == now``
        # is still in ``_active`` only because its completion event has
        # not run yet; it does not overlap (the predicate is strict).
        for other in self._active.values():
            if other.end <= now:
                continue
            other.overlap_adj |= adj
            other.overlap_self |= bit
            record.overlap_adj |= other.adj
            record.overlap_self |= other.bit
        self._active[src] = record
        self._active_bits |= bit
        if self._trace is not None:
            self._trace.record_transmission(src, msg, duration)
        self._engine.schedule(duration, self._complete, record, on_complete)
        return duration

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _complete(self, record: _Transmission,
                  on_complete: Callable[[DeliveryReport], None]) -> None:
        """Take the frame off the air, classify its receivers, deliver it.

        Reception is decided for all of the sender's neighbours at once
        from the bitsets accumulated in :meth:`transmit`: out go the
        overlapping transmitters themselves (half-duplex) and the radios
        that are off right now, then whoever is in range of another
        overlapping sender collided.  Only the nodes that act on this
        frame shape (its delivery plan) are then called.
        """
        src = record.src
        del self._active[src]
        self._active_bits &= ~record.bit
        msg = record.msg
        plan = self._plans.get((src, msg.kind, msg.link_dst))
        if plan is None:
            plan = self._build_plan(src, msg)
        destination_bits, out_of_range, deliveries = plan
        candidates = record.adj & ~(record.overlap_self | self._off_bits)
        collided = candidates & record.overlap_adj
        received = candidates & ~collided
        lost = 0
        if not self._lossless:
            lost = self._lost_bits(src, received)
            received &= ~lost
        failed = out_of_range
        missed = destination_bits & ~received
        if missed:
            failed = _decode(missed, self._ids) | out_of_range
        report = DeliveryReport(msg, failed, self._ids, received, collided,
                                lost)
        if collided and self._trace is not None:
            # bin().count rather than int.bit_count(): Python 3.9.
            self._trace.record_collision(msg, bin(collided).count("1"))

        # Deliver after the report is fully built so the sender's MAC and the
        # receivers observe a consistent ordering: ascending receiver id.
        for receiver_bit, hook in deliveries:
            if receiver_bit & received:
                hook(msg)
        on_complete(report)

    def _build_plan(self, src: int, msg: Message) -> _Plan:
        """Resolve who acts on frames shaped like ``msg`` sent by ``src``.

        That is the attached neighbours of ``src`` that are explicit link
        destinations or declared interest in ``(kind, src)``, in ascending
        id.  Hooks and interest are fixed while a node stays attached and
        :meth:`attach` drops every plan, so resolving them once is safe.
        """
        adj = self._adj_bits[src]
        destination_bits = 0
        out_of_range = set()
        for destination in msg.destinations() or ():
            bit = self._bit.get(destination, 0) & adj
            if bit:
                destination_bits |= bit
            else:
                out_of_range.add(destination)
        deliveries = []
        for receiver, bit in self._neighbor_pairs[src]:
            if receiver not in self._attached:
                continue
            hook, overhears = self._attached[receiver]
            if bit & destination_bits or overhears(msg.kind, src):
                deliveries.append((bit, hook))
        plan = self._plans[(src, msg.kind, msg.link_dst)] = (
            destination_bits, frozenset(out_of_range), tuple(deliveries))
        return plan

    def _lost_bits(self, src: int, received: int) -> int:
        """Probe the loss models for each receiver, in ascending id.

        Returns the bits of the receivers whose copy a model ate; the
        order fixes how ``_loss_rng`` and the per-link streams are consumed.
        """
        lost = 0
        for bit in _set_bits(received):
            model = self._channel_loss(src, self._ids[bit.bit_length() - 1])
            if model is not None:
                lost |= bit
                if self._trace is not None:
                    self._trace.record_link_loss(model)
        return lost

    def _channel_loss(self, src: int, receiver: int) -> Optional[str]:
        """Name of the loss model that ate the frame, or None if delivered.

        No RNG is consumed while both models are disabled, so lossless runs
        remain bit-identical to a build without the loss extension.
        """
        if self.params.loss_rate > 0.0 \
                and self._loss_rng.random() < self.params.loss_rate:
            return "bernoulli"
        if self.params.burst is not None and self._burst_loss(src, receiver):
            return "burst"
        return None

    def _burst_loss(self, src: int, receiver: int) -> bool:
        """Advance the link's Gilbert–Elliott chain one frame; lost?"""
        burst = self.params.burst
        link = (src, receiver)
        rng = self._link_rngs.get(link)
        if rng is None:
            rng = self._link_rngs[link] = random.Random(
                ge_link_seed(self._seed, src, receiver))
        edge = self._edge_index[link]
        bad = self._ge_bad[edge]
        if bad:
            if rng.random() < burst.p_bad_to_good:
                bad = 0
        elif rng.random() < burst.p_good_to_bad:
            bad = 1
        self._ge_bad[edge] = bad
        return rng.random() < (burst.loss_bad if bad else burst.loss_good)
