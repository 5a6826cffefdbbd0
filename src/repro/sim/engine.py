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

A pending event is one heap entry, the list ``[time, seq, fn, args]``.
:meth:`EventQueue.schedule` returns it and :meth:`EventQueue.cancel` takes
it back.  The unique sequence number orders same-time entries, so heap
comparisons never reach ``fn``.  Cancelling sets ``fn`` to ``None`` in
place, and whoever pops the entry skips it.  There is no event object and
no wrapping tuple: one list is all a pending event allocates.

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
from typing import Any, Callable, List, Optional

#: Compaction fires only once at least this many cancelled entries are
#: resident *and* they outnumber live entries — small queues never pay
#: the rebuild, unbounded cancel-heavy runs stay O(live).
COMPACT_MIN_CANCELLED = 512

#: A pending event: ``[time, seq, fn, args]``; ``fn`` is ``None`` once
#: the event is cancelled (or its queue closed).
Event = List[Any]


class SimulationError(RuntimeError):
    """Raised when the engine is used inconsistently (e.g. time travel)."""


class EventQueue:
    """A deterministic discrete-event scheduler.

    Time is a monotonically non-decreasing ``float`` in milliseconds.  Events
    scheduled for the same instant fire in the order they were scheduled,
    which keeps runs reproducible.
    """

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._seq = itertools.count()
        #: Current virtual time in milliseconds.  Only the queue writes it.
        self.now = 0.0
        self._events_processed = 0
        self._cancelled = 0
        self._closed = False

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (cancelled events excluded)."""
        return self._events_processed

    @property
    def heap_size(self) -> int:
        """Resident heap entries, cancelled ones included (memory proxy)."""
        return len(self._heap)

    def __len__(self) -> int:
        return sum(1 for entry in self._heap if entry[2] is not None)

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` ms from now.

        ``delay`` must be non-negative.  Returns the heap entry, which
        :meth:`cancel` accepts.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        entry = [self.now + delay, next(self._seq), fn, args]
        heapq.heappush(self._heap, entry)
        return entry

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute virtual time ``time`` (ms)."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before current time t={self.now}"
            )
        entry = [time, next(self._seq), fn, args]
        heapq.heappush(self._heap, entry)
        return entry

    def cancel(self, entry: Event) -> None:
        """Prevent a scheduled event from firing.  Idempotent.

        Cancellation is lazy: the entry stays in the heap with ``fn`` set
        to ``None`` and is skipped when popped, but the queue counts it so
        it can compact once dead entries dominate.  Cancelling an event
        that already fired counts too; the count only decides when to
        compact.
        """
        if entry[2] is None:
            return
        entry[2] = None
        entry[3] = ()
        self._cancelled += 1
        if (self._cancelled >= COMPACT_MIN_CANCELLED
                and self._cancelled * 2 > len(self._heap)):
            self._compact()

    def peek_time(self) -> Optional[float]:
        """Time of the next pending event, or ``None`` if the queue is empty."""
        self._drop_cancelled()
        return self._heap[0][0] if self._heap else None

    def close(self) -> None:
        """Drop every pending event and its callback.  Idempotent.

        The dropped entries lose ``fn`` and ``args``, as cancelled ones
        do, so an owner still holding one (a timer, a sleeping node's
        wake-up) no longer reaches back through it.  A closed queue runs
        nothing: :meth:`step` and :meth:`run_until` raise
        :class:`SimulationError`.  :meth:`schedule` does not check (it is
        the hot path); what it adds after closing never runs.
        """
        for entry in self._heap:
            entry[2] = None
            entry[3] = ()
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
        time, _, fn, args = heapq.heappop(self._heap)
        self.now = time
        self._events_processed += 1
        fn(*args)
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
            fn = head[2]
            if fn is None:
                pop(heap)
                if self._cancelled:
                    self._cancelled -= 1
                continue
            t = head[0]
            if t > t_end:
                break
            self.now = t
            pop(heap)
            self._events_processed += 1
            fn(*head[3])
            # Drain the rest of the cohort at time t without re-checking
            # the horizon or re-storing the clock.  Events scheduled
            # *during* the drain at the same timestamp carry higher seq
            # numbers, so the heap feeds them to this loop in exactly the
            # order serial popping would have — FIFO tie-break preserved.
            while heap and heap[0][0] == t:
                _, _, fn, args = pop(heap)
                # A cohort member may cancel a later member; honour it.
                if fn is None:
                    if self._cancelled:
                        self._cancelled -= 1
                    continue
                self._events_processed += 1
                fn(*args)
        if t_end > self.now:
            self.now = t_end

    def run(self, max_events: Optional[int] = None) -> None:
        """Run until the queue drains (or ``max_events`` events executed)."""
        executed = 0
        while self.step():
            executed += 1
            if max_events is not None and executed >= max_events:
                return

    def _drop_cancelled(self) -> None:
        heap = self._heap
        while heap and heap[0][2] is None:
            heapq.heappop(heap)
            if self._cancelled:
                self._cancelled -= 1

    def _compact(self) -> None:
        """Drop every cancelled entry and re-heapify the survivors.

        Without it a long quiescent run that keeps scheduling-and-cancelling
        far-future timers grows the heap unboundedly (dead entries only
        leave the lazy scheme when their timestamp is finally reached).
        """
        self._heap = [entry for entry in self._heap if entry[2] is not None]
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
            self._queue.cancel(self._event)
            self._event = None

    @property
    def stopped(self) -> bool:
        """True once :meth:`stop` has cancelled future firings."""
        return self._stopped
