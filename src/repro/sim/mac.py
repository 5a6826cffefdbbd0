"""CSMA MAC layer with acknowledged unicast/multicast and retransmission.

Models the TinyOS B-MAC-style medium access the paper's TinyDB stack used:

* carrier-sense multiple access with random backoff before every attempt
  (desynchronises the epoch-aligned senders that tier-2 creates);
* link-layer acknowledgements for unicast and multicast frames — a frame
  that any intended destination misses (collision, sleeping parent, parent
  busy transmitting) is retransmitted after a congestion backoff, up to
  ``max_retries`` times.  These retransmissions are exactly the
  "retransmission messages due to transmission failure" the paper includes
  in its measured average transmission time (Section 4.1);
* broadcast frames (query flooding, beacons) are fire-and-forget.

Acknowledgement frames themselves are a few bits piggybacked in TinyOS and
are not modelled as separate traffic.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Optional, Set, TYPE_CHECKING

from .engine import Event, EventQueue
from .messages import Message
from .radio import Channel, DeliveryReport

if TYPE_CHECKING:  # pragma: no cover
    from .trace import TraceCollector


@dataclass(frozen=True)
class MacParams:
    """MAC timing/retry constants (milliseconds)."""

    #: Random initial backoff drawn from [min, max) before each attempt.
    initial_backoff_min: float = 0.2
    initial_backoff_max: float = 8.0
    #: Backoff drawn when carrier sensing finds the medium busy.
    congestion_backoff_min: float = 2.0
    congestion_backoff_max: float = 24.0
    #: Maximum link-layer retransmissions of an acknowledged frame.  The
    #: paper assumes a lossless environment (failures only cost
    #: retransmissions), so the retry budget is generous.
    max_retries: int = 8
    #: Bounded outbound queue (frames dropped beyond this, like a mote).
    queue_capacity: int = 64


class MacLayer:
    """Per-node MAC: serialises one node's transmissions onto the channel."""

    def __init__(
        self,
        node_id: int,
        engine: EventQueue,
        channel: Channel,
        params: Optional[MacParams] = None,
        seed: int = 0,
        on_drop: Optional[Callable[[Message, Set[int]], None]] = None,
        trace: Optional["TraceCollector"] = None,
    ) -> None:
        self.node_id = node_id
        self._engine = engine
        self._channel = channel
        self.params = params or MacParams()
        self._rng = random.Random((seed << 20) ^ (node_id * 0x9E3779B1) ^ 0xC0FFEE)
        self._queue: Deque[Message] = deque()
        self._current: Optional[Message] = None
        self._retries_left = 0
        self._pending_event: Optional[Event] = None
        self._enabled = True
        self._on_drop = on_drop
        self._trace = trace

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------
    @property
    def idle(self) -> bool:
        """True when nothing is queued or in flight."""
        return self._current is None and not self._queue

    def enqueue(self, msg: Message) -> bool:
        """Queue a frame for transmission.  Returns False if dropped (full)."""
        if len(self._queue) >= self.params.queue_capacity:
            self._give_up(msg, set(msg.destinations() or ()), "queue_full")
            return False
        self._queue.append(msg)
        self._maybe_start()
        return True

    def close(self) -> None:
        """Forget the give-up hook (it holds the node; see ``Simulation.close``)."""
        self._on_drop = None

    def set_enabled(self, enabled: bool) -> None:
        """Power the radio up/down.  A sleeping node neither sends nor senses.

        Frames already queued stay queued and are sent on wake-up; so is
        the frame a power-down interrupted between attempts, which resumes
        after a congestion backoff with the retries it had left.
        """
        self._enabled = enabled
        if not enabled:
            if self._pending_event is not None:
                self._pending_event.cancel()
                self._pending_event = None
        elif self._current is None:
            self._maybe_start()
        elif self._pending_event is None \
                and not self._channel.is_transmitting(self.node_id):
            self._schedule_attempt(self._congestion_backoff())

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _maybe_start(self) -> None:
        if not self._enabled or self._current is not None:
            return
        if self._pending_event is not None or not self._queue:
            return
        self._current = self._queue.popleft()
        self._retries_left = self.params.max_retries
        self._schedule_attempt(self._initial_backoff())

    def _schedule_attempt(self, delay: float) -> None:
        self._pending_event = self._engine.schedule(delay, self._attempt)

    def _attempt(self) -> None:
        self._pending_event = None
        if not self._enabled or self._current is None:
            return
        if self._channel.is_busy_at(self.node_id):
            self._schedule_attempt(self._congestion_backoff())
            return
        if self._trace is not None \
                and self._retries_left < self.params.max_retries:
            self._trace.record_retransmission()
        self._channel.transmit(self.node_id, self._current, self._on_complete)

    def _on_complete(self, report: DeliveryReport) -> None:
        msg = self._current
        assert msg is not None
        needs_ack = not msg.is_broadcast
        if needs_ack and report.failed_destinations and self._retries_left > 0:
            self._retries_left -= 1
            msg.retransmissions += 1
            self._schedule_attempt(self._congestion_backoff())
            return
        if needs_ack and report.failed_destinations:
            self._give_up(msg, set(report.failed_destinations),
                          "retry_exhausted")
        self._current = None
        self._maybe_start()

    def _give_up(self, msg: Message, failed: Set[int], reason: str) -> None:
        if self._trace is not None:
            self._trace.record_drop(reason)
        if self._on_drop is not None:
            self._on_drop(msg, failed)

    def _initial_backoff(self) -> float:
        return self._rng.uniform(self.params.initial_backoff_min,
                                 self.params.initial_backoff_max)

    def _congestion_backoff(self) -> float:
        """Retry backoff, widening with each failed attempt.

        Without the widening window, two hidden-terminal senders whose
        frame airtime exceeds the backoff range re-collide forever; the
        attempt multiplier is the standard CSMA escape hatch.
        """
        attempt = self.params.max_retries - self._retries_left + 1
        window = self._rng.uniform(self.params.congestion_backoff_min,
                                   self.params.congestion_backoff_max)
        return window * attempt
