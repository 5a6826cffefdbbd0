"""Sensor-node runtime: timers, radio send/receive, sleep mode.

A :class:`SensorNode` is the hardware abstraction an application (the TinyDB
baseline processor or the TTMQO in-network processor) runs on.  It owns a MAC
instance, dispatches received frames to the application, and implements the
power-management primitive tier-2 uses ("if the data at node x does not
satisfy any query, x switches into sleep mode and will wake up after a
predefined time", Section 3.2.2).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional, TYPE_CHECKING, Union

from .engine import Event, EventQueue, PeriodicTimer
from .mac import MacLayer, MacParams
from .messages import BROADCAST, Broadcast, LinkDestination, Message, \
    MessageKind
from .radio import Channel

if TYPE_CHECKING:  # pragma: no cover
    from ..obs import SimObs
    from .network import Topology
    from .trace import TraceCollector


class NodeApp:
    """Base class for per-node application logic.

    Subclasses override the ``on_*`` hooks.  The node is injected before
    ``on_start`` runs.
    """

    node: "SensorNode"

    def on_start(self) -> None:
        """Called once when the simulation starts."""

    def overhears(self, kind: MessageKind, src: int) -> bool:
        """Do I act on a ``kind`` frame from neighbour ``src`` that does not
        name me as a link destination?

        The channel asks once per ``(kind, src)`` and skips ``on_message``
        where the answer is no, so the answer must be fixed for the app's
        lifetime and *conservative*: true wherever ``on_message`` might
        change state, and ``on_message`` keeps its own guards.  The default
        overhears everything.
        """
        return True

    def on_message(self, msg: Message) -> None:
        """Called for each frame this node receives (radio on, no collision)
        that is addressed to it or that :meth:`overhears` said yes to.

        Receivers of one frame are called in ascending node id.
        """

    def on_wake(self) -> None:
        """Called when a sleep period ends."""

    def on_send_failed(self, msg: Message, failed: set) -> None:
        """Called when the MAC gives up on an acknowledged frame.

        ``failed`` is the set of destinations that never acknowledged
        (collision storms, or a sleeping parent).  Tier-2 uses this to
        reroute around unavailable DAG parents.
        """

    def close(self) -> None:
        """Called once the simulation is closed; nothing will run again.

        Override to drop what points back at the application from objects
        it owns (a callback it handed to a helper), so the finished run is
        not a reference cycle.
        """


class SensorNode:
    """One mote: radio + MAC + timers + an application."""

    def __init__(
        self,
        node_id: int,
        engine: EventQueue,
        channel: Channel,
        topology: "Topology",
        trace: "TraceCollector",
        mac_params: Optional[MacParams] = None,
        seed: int = 0,
        obs: Optional["SimObs"] = None,
    ) -> None:
        self.node_id = node_id
        self.engine = engine
        self.channel = channel
        self.topology = topology
        self.trace = trace
        #: Observability bundle for the applications' own telemetry
        #: (``tinydb.*``, ``recovery.*``); None when the node is constructed
        #: outside a :class:`repro.sim.runtime.Simulation`.  Radio events go
        #: to ``trace``.
        self.obs = obs
        self.mac = MacLayer(node_id, engine, channel, mac_params, seed=seed,
                            on_drop=self._send_failed, trace=trace)
        self._radio_on = True
        self._sleep_until: Optional[float] = None
        self._wake_event: Optional[Event] = None
        self._failed = False
        self._failed_until: Optional[float] = None
        self._recover_event: Optional[Event] = None
        self.app: Optional[NodeApp] = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach_app(self, app: NodeApp) -> None:
        """Install the application layer and back-link it to this node."""
        app.node = self
        self.app = app
        self.channel.attach(self.node_id, app.on_message, app.overhears)

    def start(self) -> None:
        """Boot the node: runs the application's ``on_start`` hook."""
        if self.app is not None:
            self.app.on_start()

    def close(self) -> None:
        """Cut the node's links to its application and MAC.

        The application keeps :attr:`NodeApp.node` (it stays readable) and
        its :meth:`NodeApp.close` hook runs; the MAC forgets its give-up
        hook, a method of this node.  See ``Simulation.close``.
        """
        self.mac.close()
        app, self.app = self.app, None
        if app is not None:
            app.close()

    # ------------------------------------------------------------------
    # Radio interface
    # ------------------------------------------------------------------
    @property
    def level(self) -> int:
        """BFS depth of this node in the topology."""
        return self.topology.levels[self.node_id]

    @property
    def is_base_station(self) -> bool:
        """Is this node the topology's sink?"""
        return self.node_id == self.topology.base_station

    @property
    def asleep(self) -> bool:
        """True while the radio is powered off (sleep mode)."""
        return not self._radio_on

    @property
    def failed(self) -> bool:
        """True while the node suffers an injected fail-stop outage."""
        return self._failed

    def send(
        self,
        kind: MessageKind,
        link_dst: Union[LinkDestination, Iterable[int]],
        payload: Any,
        payload_bytes: int,
    ) -> Optional[Message]:
        """Queue a frame.  ``link_dst`` may be BROADCAST, an id, or id-set.

        Returns ``None`` (frame silently dropped) while the node is failed.
        """
        if self._failed:
            return None
        if not isinstance(link_dst, (int, Broadcast, frozenset)):
            link_dst = frozenset(link_dst)
        if isinstance(link_dst, frozenset) and len(link_dst) == 1:
            link_dst = next(iter(link_dst))
        msg = Message(kind, self.node_id, link_dst, payload, payload_bytes)
        self.mac.enqueue(msg)
        return msg

    def broadcast(self, kind: MessageKind, payload: Any, payload_bytes: int) -> Message:
        """Queue a link-layer broadcast (unacknowledged one-hop flood)."""
        return self.send(kind, BROADCAST, payload, payload_bytes)

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def after(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Run ``fn(*args)`` after ``delay`` ms of virtual time."""
        return self.engine.schedule(delay, fn, *args)

    def every(self, period: float, fn: Callable[[], Any],
              start: Optional[float] = None) -> PeriodicTimer:
        """Run ``fn()`` every ``period`` ms; see :class:`PeriodicTimer`."""
        return PeriodicTimer(self.engine, period, fn, start=start)

    # ------------------------------------------------------------------
    # Power management (Section 3.2.2 sleep mode)
    # ------------------------------------------------------------------
    def sleep(self, duration: float) -> None:
        """Power the radio down for ``duration`` ms, then call ``app.on_wake``.

        While asleep the node neither receives nor transmits; queued frames
        are held until wake-up.  Timers keep running (the mote's clock stays
        on so epoch schedules survive sleep).
        """
        if not self._radio_on:
            # Extend the current sleep if the new deadline is later.
            deadline = self.engine.now + duration
            if self._sleep_until is not None and deadline <= self._sleep_until:
                return
            if self._wake_event is not None:
                self.engine.cancel(self._wake_event)
        self._sleep_until = self.engine.now + duration
        self._set_radio(False)
        self.trace.record_sleep(self.node_id, duration)
        self._wake_event = self.engine.schedule(duration, self._wake)

    def wake(self) -> None:
        """Power the radio up immediately (cancels any pending wake event)."""
        if self._wake_event is not None:
            self.engine.cancel(self._wake_event)
            self._wake_event = None
        self._wake()

    def _wake(self) -> None:
        if self._radio_on or self._failed:
            return
        self._sleep_until = None
        self._wake_event = None
        self._set_radio(True)
        if self.app is not None:
            self.app.on_wake()

    def _set_radio(self, on: bool) -> None:
        """Power receiver and MAC up or down together."""
        self._radio_on = on
        self.channel.set_radio(self.node_id, on)
        self.mac.set_enabled(on)

    # ------------------------------------------------------------------
    # Failure injection (the paper's future-work extension)
    # ------------------------------------------------------------------
    def fail(self, duration: float) -> None:
        """Inject a fail-stop outage: the node neither sends, receives,
        samples nor relays for ``duration`` ms, then recovers with its
        state intact (a transient crash/reboot).

        The paper explicitly defers node failures to future work
        (Section 5); this hook powers the robustness extension benchmark.

        Overlapping outages merge: the node stays down until the *latest*
        deadline of any injected outage (a shorter overlap can never revive
        it early), and the radio-off time is accounted once — only the time
        the new outage adds beyond the current deadline is recorded.
        """
        now = self.engine.now
        deadline = now + duration
        if self._failed:
            assert self._failed_until is not None
            if deadline <= self._failed_until:
                return  # fully covered by the outage already in force
            off_ms = deadline - self._failed_until
            if self._recover_event is not None:
                self.engine.cancel(self._recover_event)
        else:
            off_ms = duration
        if self._wake_event is not None:
            self.engine.cancel(self._wake_event)
            self._wake_event = None
            self._sleep_until = None
        self._failed = True
        self._failed_until = deadline
        self._set_radio(False)
        self.trace.record_outage(self.node_id, off_ms)
        self._recover_event = self.engine.schedule(deadline - now,
                                                   self._recover)

    def _recover(self) -> None:
        self._failed = False
        self._failed_until = None
        self._recover_event = None
        self._set_radio(True)
        if self.app is not None:
            self.app.on_wake()

    # ------------------------------------------------------------------
    # MAC give-up
    # ------------------------------------------------------------------
    def _send_failed(self, msg: Message, failed: set) -> None:
        if self.app is not None:
            self.app.on_send_failed(msg, failed)
