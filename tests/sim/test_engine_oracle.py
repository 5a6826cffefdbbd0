"""The event queue against the queue it replaced, operation by operation.

:class:`PreviousEventQueue` below is the queue as it was before pending
events became bare ``[time, seq, fn, args]`` heap entries: an ``Event``
object per event, wrapped in a ``(time, seq, event)`` tuple, cancelled by
``event.cancel()``.  It is kept here, and only here, as the oracle.  A
Hypothesis program of ``schedule``, ``schedule_at``, ``cancel`` (from
outside and from inside callbacks), ``run_until``, ``step``,
``peek_time``, ``close`` and bursts of more than
``COMPACT_MIN_CANCELLED`` cancels drives both queues, with delays drawn
from a few values so same-timestamp cohorts are common.  After every
operation the two must agree on the callbacks fired (and the clock each
saw), ``now``, ``events_processed``, ``len()`` and ``heap_size`` (so
compaction fires at the same moments), and on whether the operation
raised.  The ``slow`` variant runs longer programs.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import COMPACT_MIN_CANCELLED, EventQueue, \
    SimulationError

# ---------------------------------------------------------------------------
# The oracle: the previous queue, verbatim apart from its class name.
# ---------------------------------------------------------------------------

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
                 queue: Optional["PreviousEventQueue"] = None):
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


class PreviousEventQueue:
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


# ---------------------------------------------------------------------------
# One program, run against either queue
# ---------------------------------------------------------------------------

DELAYS = (0.0, 0.5, 1.0, 2.0, 5.0)

#: What a fired callback does: nothing, cancel a scheduled event (by
#: index, modulo the events scheduled so far), or schedule a child.
_action = st.one_of(
    st.none(),
    st.tuples(st.just("cancel"), st.integers(0, 400)),
    st.tuples(st.just("schedule"), st.sampled_from(DELAYS)),
)

_op = st.one_of(
    st.tuples(st.just("schedule"), st.sampled_from(DELAYS), _action),
    st.tuples(st.just("schedule_at"), st.sampled_from(DELAYS), _action),
    st.tuples(st.just("cancel"), st.integers(0, 400)),
    st.tuples(st.just("run_until"), st.sampled_from((0.0, 0.5, 1.0, 3.0,
                                                     10.0))),
    st.tuples(st.just("step")),
    st.tuples(st.just("peek_time")),
    st.tuples(st.just("burst"), st.integers(COMPACT_MIN_CANCELLED - 8,
                                            2 * COMPACT_MIN_CANCELLED + 8),
              st.booleans()),
    st.tuples(st.just("close")),
)


class _Program:
    """Drives one queue; ``cancel`` is the only call that differs."""

    def __init__(self, queue, cancel: Callable[[Any], None]) -> None:
        self.queue = queue
        self._cancel = cancel
        self.handles: List[Any] = []
        self.fired: List[Tuple[int, float]] = []
        self._labels = itertools.count()

    def _fire(self, label: int, action) -> None:
        self.fired.append((label, self.queue.now))
        if action is None:
            return
        verb, arg = action
        if verb == "cancel":
            self.cancel(arg)
        else:
            self._schedule(arg, None)

    def _schedule(self, delay: float, action) -> None:
        self.handles.append(self.queue.schedule(
            delay, self._fire, next(self._labels), action))

    def cancel(self, index: int) -> None:
        if self.handles:
            self._cancel(self.handles[index % len(self.handles)])

    def apply(self, op) -> Any:
        """Run one operation; returns what it returned, or the error type."""
        queue = self.queue
        try:
            verb = op[0]
            if verb == "schedule":
                return self._schedule(op[1], op[2])
            if verb == "schedule_at":
                self.handles.append(queue.schedule_at(
                    queue.now + op[1], self._fire, next(self._labels),
                    op[2]))
                return None
            if verb == "cancel":
                return self.cancel(op[1])
            if verb == "run_until":
                return queue.run_until(queue.now + op[1])
            if verb == "step":
                return queue.step()
            if verb == "peek_time":
                return queue.peek_time()
            if verb == "burst":
                # Far-future timers scheduled and cancelled in bulk, as a
                # watchdog does; ``keep`` leaves every fourth one pending.
                count, keep = op[1], op[2]
                burst = [queue.schedule(1e9, self._fire,
                                        next(self._labels), None)
                         for _ in range(count)]
                self.handles.extend(burst)
                for index, handle in enumerate(burst):
                    if not (keep and index % 4 == 0):
                        self._cancel(handle)
                return None
            assert verb == "close"
            return queue.close()
        except SimulationError as error:
            return type(error)

    def state(self) -> tuple:
        queue = self.queue
        return (list(self.fired), queue.now, queue.events_processed,
                len(queue), queue.heap_size)


def _check(ops) -> None:
    queue = EventQueue()
    shipped = _Program(queue, queue.cancel)
    oracle = _Program(PreviousEventQueue(), lambda event: event.cancel())
    for op in ops:
        assert shipped.apply(op) == oracle.apply(op), op
        assert shipped.state() == oracle.state(), op
    # Whatever is left runs (or is refused) the same way to the end.
    assert shipped.apply(("run_until", 1e10)) == \
        oracle.apply(("run_until", 1e10))
    assert shipped.state() == oracle.state()


@settings(max_examples=150, deadline=None)
@given(ops=st.lists(_op, max_size=30))
def test_the_queue_matches_the_previous_queue(ops):
    _check(ops)


@pytest.mark.slow
@settings(max_examples=100, deadline=None)
@given(ops=st.lists(_op, min_size=30, max_size=150))
def test_the_queue_matches_the_previous_queue_longer_sequences(ops):
    _check(ops)


def test_a_cancel_from_inside_a_cohort_and_a_compaction_agree():
    """One fixed program that hits every path at least once."""
    _check([("schedule", 1.0, ("cancel", 1)),
            ("schedule", 1.0, None),
            ("schedule", 1.0, ("schedule", 0.0)),
            ("burst", COMPACT_MIN_CANCELLED + 4, True),
            ("cancel", 0),
            ("peek_time",),
            ("run_until", 3.0),
            ("cancel", 2),
            ("step",),
            ("close",),
            ("step",),
            ("schedule", 2.0, None)])
