"""Discrete-event simulation engine.

This is the foundation of the TOSSIM-replacement simulator (system S1 in
DESIGN.md).  It provides a classic event-queue kernel: events are callbacks
scheduled at absolute virtual times (milliseconds, ``float``), executed in
non-decreasing time order with FIFO tie-breaking.

The engine knows nothing about radios or sensor nodes; those layers
(:mod:`repro.sim.radio`, :mod:`repro.sim.mac`, :mod:`repro.sim.node`) schedule
events through it.

Two hot-path mechanics matter for throughput (see ``docs/performance.md``):

* **Cohort draining** — :meth:`EventQueue.run_until` pops every event
  sharing the minimal timestamp in one drain instead of re-probing the
  heap per callback.  Epoch-synchronous workloads schedule large
  same-timestamp cohorts (every node samples at the epoch boundary), so
  this removes one cancelled-scan plus horizon check per event while
  preserving FIFO tie-break order exactly (cohorts pop in sequence-number
  order, and events a cohort member schedules at the *same* timestamp
  join the next drain — precisely where serial popping would have put
  them).
* **Cancellation compaction** — cancellation is lazy (cancelled entries
  are skipped when popped), which historically let long quiescent runs
  grow the heap without bound: a workload that schedules and cancels
  timers far in the future leaves every dead entry resident until its
  timestamp is reached.  The queue now counts live cancellations and
  rebuilds the heap once cancelled entries dominate (see
  ``COMPACT_MIN_CANCELLED``), bounding memory by the pending-event count.

A pending event holds a bound method of whatever scheduled it (a node, a
MAC, an application, a timer), and each of those holds the queue, so a
simulation is one reference cycle while anything is pending.
:meth:`EventQueue.close` drops the pending events and their callbacks;
``Simulation.close`` calls it as part of freeing a finished run.

Example
-------
>>> eq = EventQueue()
>>> fired = []
>>> _ = eq.schedule(5.0, fired.append, "a")
>>> _ = eq.schedule(2.0, fired.append, "b")
>>> eq.run_until(10.0)
>>> fired
['b', 'a']
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple

#: Compaction fires only once at least this many cancelled entries are
#: resident *and* they outnumber live entries — small queues never pay
#: the rebuild, unbounded cancel-heavy runs stay O(live).
COMPACT_MIN_CANCELLED = 512


class SimulationError(RuntimeError):
    """Raised when the engine is used inconsistently (e.g. time travel)."""


def _dropped() -> None:
    """The callback of an event its queue dropped on closing."""


class Event:
    """A scheduled callback.

    Instances are returned by :meth:`EventQueue.schedule` and can be used to
    cancel the event before it fires.  Events are lightweight: cancellation
    is lazy (the queue skips cancelled entries when they are popped), but
    the owning queue is notified so it can compact once dead entries
    dominate the heap.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_queue")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any],
                 args: Tuple[Any, ...],
                 queue: Optional["EventQueue"] = None):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._queue = queue

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._queue is not None:
            self._queue._note_cancelled()

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.3f}, fn={getattr(self.fn, '__name__', self.fn)}, {state})"


class EventQueue:
    """A deterministic discrete-event scheduler.

    Time is a monotonically non-decreasing ``float`` in milliseconds.  Events
    scheduled for the same instant fire in the order they were scheduled,
    which keeps runs reproducible.

    Internally the heap stores ``(time, seq, event)`` tuples: the unique
    sequence number fully orders same-time entries, so heap comparisons
    never fall through to Python-level ``Event.__lt__`` calls.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._events_processed = 0
        self._cancelled = 0
        self._closed = False

    @property
    def now(self) -> float:
        """Current virtual time in milliseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (cancelled events excluded)."""
        return self._events_processed

    @property
    def heap_size(self) -> int:
        """Resident heap entries, cancelled ones included (memory proxy)."""
        return len(self._heap)

    def __len__(self) -> int:
        return sum(1 for _, _, e in self._heap if not e.cancelled)

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` ms from now.

        ``delay`` must be non-negative.  Returns the :class:`Event`, which may
        be cancelled.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        time = self._now + delay
        seq = next(self._seq)
        event = Event(time, seq, fn, args, queue=self)
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute virtual time ``time`` (ms)."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} before current time t={self._now}"
            )
        seq = next(self._seq)
        event = Event(time, seq, fn, args, queue=self)
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def peek_time(self) -> Optional[float]:
        """Time of the next pending event, or ``None`` if the queue is empty."""
        self._drop_cancelled()
        return self._heap[0][0] if self._heap else None

    def close(self) -> None:
        """Drop every pending event and its callback.  Idempotent.

        The dropped events are marked cancelled and lose ``fn`` and
        ``args``, so an owner still holding one (a timer, a sleeping
        node's wake-up) no longer reaches back through it.  A closed queue
        runs nothing: :meth:`step` and :meth:`run_until` raise
        :class:`SimulationError`.  :meth:`schedule` does not check (it is
        the hot path); what it adds after closing never runs.
        """
        for _, _, event in self._heap:
            event.cancelled = True
            event.fn = _dropped
            event.args = ()
        self._heap = []
        self._cancelled = 0
        self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise SimulationError("the event queue is closed")

    def step(self) -> bool:
        """Execute the next pending event.

        Returns ``True`` if an event was executed, ``False`` if the queue was
        empty.
        """
        self._check_open()
        self._drop_cancelled()
        if not self._heap:
            return False
        _, _, event = heapq.heappop(self._heap)
        self._now = event.time
        self._events_processed += 1
        event.fn(*event.args)
        return True

    def run_until(self, t_end: float) -> None:
        """Run events with ``time <= t_end``; afterwards ``now == t_end``.

        Events scheduled during execution are honoured if they fall within the
        horizon.  Same-timestamp cohorts are popped in one drain (FIFO order
        preserved — see the module docstring).
        """
        self._check_open()
        heap = self._heap
        pop = heapq.heappop
        while heap:
            head = heap[0]
            event = head[2]
            if event.cancelled:
                pop(heap)
                if self._cancelled:
                    self._cancelled -= 1
                continue
            t = head[0]
            if t > t_end:
                break
            self._now = t
            pop(heap)
            self._events_processed += 1
            event.fn(*event.args)
            # Drain the rest of the cohort at time t without re-checking
            # the horizon or re-storing the clock.  Events scheduled
            # *during* the drain at the same timestamp carry higher seq
            # numbers, so the heap feeds them to this loop in exactly the
            # order serial popping would have — FIFO tie-break preserved.
            while heap and heap[0][0] == t:
                event = pop(heap)[2]
                # A cohort member may cancel a later member; honour it.
                if event.cancelled:
                    if self._cancelled:
                        self._cancelled -= 1
                    continue
                self._events_processed += 1
                event.fn(*event.args)
        if t_end > self._now:
            self._now = t_end

    def run(self, max_events: Optional[int] = None) -> None:
        """Run until the queue drains (or ``max_events`` events executed)."""
        executed = 0
        while self.step():
            executed += 1
            if max_events is not None and executed >= max_events:
                return

    def _drop_cancelled(self) -> None:
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
            if self._cancelled:
                self._cancelled -= 1

    def _note_cancelled(self) -> None:
        """An event on (or recently popped from) this queue was cancelled.

        Once cancelled entries pass the compaction threshold *and* make up
        the majority of the heap, rebuild it without them — otherwise a
        long quiescent run that keeps scheduling-and-cancelling far-future
        timers grows the heap unboundedly (dead entries only leave the old
        lazy scheme when their timestamp is finally reached).
        """
        self._cancelled += 1
        if (self._cancelled >= COMPACT_MIN_CANCELLED
                and self._cancelled * 2 > len(self._heap)):
            self._compact()

    def _compact(self) -> None:
        """Drop every cancelled entry and re-heapify the survivors."""
        self._heap = [entry for entry in self._heap
                      if not entry[2].cancelled]
        heapq.heapify(self._heap)
        self._cancelled = 0


class PeriodicTimer:
    """A repeating timer built on :class:`EventQueue`.

    Fires ``fn()`` every ``period`` ms starting at ``start`` (absolute time,
    defaults to one period from now).  ``stop()`` cancels future firings.
    The first firing time is exposed for epoch-alignment logic.

    ``fn`` is held only by the pending firing, never by the timer, so
    closing the queue releases it: an owner that keeps its timer and is
    itself reached from ``fn`` is then no longer a reference cycle.
    """

    def __init__(
        self,
        queue: EventQueue,
        period: float,
        fn: Callable[[], Any],
        start: Optional[float] = None,
    ) -> None:
        if period <= 0:
            raise SimulationError(f"timer period must be positive (got {period})")
        self._queue = queue
        self.period = period
        self._stopped = False
        self.first_fire = queue.now + period if start is None else start
        if self.first_fire < queue.now:
            raise SimulationError(
                f"timer start t={self.first_fire} is before now t={queue.now}"
            )
        self._event: Optional[Event] = queue.schedule_at(
            self.first_fire, self._fire, fn)

    def _fire(self, fn: Callable[[], Any]) -> None:
        if self._stopped:
            return
        # Re-arm first so that fn() may stop/reconfigure the timer safely.
        self._event = self._queue.schedule(self.period, self._fire, fn)
        fn()

    def stop(self) -> None:
        """Cancel all future firings.  Idempotent."""
        self._stopped = True
        if self._event is not None:
            self._event.cancel()
            self._event = None

    @property
    def stopped(self) -> bool:
        """True once :meth:`stop` has cancelled future firings."""
        return self._stopped
