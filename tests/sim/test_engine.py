"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import (
    COMPACT_MIN_CANCELLED,
    EventQueue,
    PeriodicTimer,
    SimulationError,
)


class TestEventQueue:
    def test_starts_at_time_zero(self):
        assert EventQueue().now == 0.0

    def test_events_fire_in_time_order(self):
        eq = EventQueue()
        fired = []
        eq.schedule(5.0, fired.append, "late")
        eq.schedule(2.0, fired.append, "early")
        eq.schedule(3.0, fired.append, "middle")
        eq.run_until(10.0)
        assert fired == ["early", "middle", "late"]

    def test_same_time_events_fire_fifo(self):
        eq = EventQueue()
        fired = []
        for label in ("a", "b", "c"):
            eq.schedule(1.0, fired.append, label)
        eq.run_until(2.0)
        assert fired == ["a", "b", "c"]

    def test_now_advances_to_event_time(self):
        eq = EventQueue()
        seen = []
        eq.schedule(7.5, lambda: seen.append(eq.now))
        eq.run_until(10.0)
        assert seen == [7.5]

    def test_run_until_advances_time_even_with_no_events(self):
        eq = EventQueue()
        eq.run_until(123.0)
        assert eq.now == 123.0

    def test_run_until_does_not_rewind_time(self):
        eq = EventQueue()
        eq.run_until(100.0)
        eq.run_until(50.0)
        assert eq.now == 100.0

    def test_events_beyond_horizon_stay_pending(self):
        eq = EventQueue()
        fired = []
        eq.schedule(20.0, fired.append, "x")
        eq.run_until(10.0)
        assert fired == []
        eq.run_until(25.0)
        assert fired == ["x"]

    def test_negative_delay_rejected(self):
        eq = EventQueue()
        with pytest.raises(SimulationError):
            eq.schedule(-1.0, lambda: None)

    def test_schedule_at_in_past_rejected(self):
        eq = EventQueue()
        eq.run_until(10.0)
        with pytest.raises(SimulationError):
            eq.schedule_at(5.0, lambda: None)

    def test_cancelled_event_does_not_fire(self):
        eq = EventQueue()
        fired = []
        event = eq.schedule(1.0, fired.append, "x")
        eq.cancel(event)
        eq.run_until(5.0)
        assert fired == []

    def test_cancel_is_idempotent(self):
        eq = EventQueue()
        event = eq.schedule(1.0, lambda: None)
        eq.cancel(event)
        eq.cancel(event)
        eq.run_until(5.0)

    def test_events_scheduled_during_execution_are_honoured(self):
        eq = EventQueue()
        fired = []

        def chain():
            fired.append(eq.now)
            if eq.now < 3.0:
                eq.schedule(1.0, chain)

        eq.schedule(1.0, chain)
        eq.run_until(10.0)
        assert fired == [1.0, 2.0, 3.0]

    def test_len_counts_only_pending(self):
        eq = EventQueue()
        e1 = eq.schedule(1.0, lambda: None)
        eq.schedule(2.0, lambda: None)
        eq.cancel(e1)
        assert len(eq) == 1

    def test_peek_time_skips_cancelled(self):
        eq = EventQueue()
        e1 = eq.schedule(1.0, lambda: None)
        eq.schedule(2.0, lambda: None)
        eq.cancel(e1)
        assert eq.peek_time() == 2.0

    def test_step_returns_false_on_empty_queue(self):
        assert EventQueue().step() is False

    def test_events_processed_counter(self):
        eq = EventQueue()
        for _ in range(3):
            eq.schedule(1.0, lambda: None)
        eq.run_until(2.0)
        assert eq.events_processed == 3

    def test_run_with_max_events(self):
        eq = EventQueue()
        fired = []
        for i in range(5):
            eq.schedule(float(i + 1), fired.append, i)
        eq.run(max_events=2)
        assert fired == [0, 1]


class TestCohortDrain:
    """Batched same-timestamp dispatch must be invisible to callbacks."""

    def test_fifo_preserved_across_large_cohort(self):
        eq = EventQueue()
        fired = []
        for i in range(200):
            eq.schedule(4.0, fired.append, i)
        eq.schedule(2.0, fired.append, "early")
        eq.run_until(10.0)
        assert fired == ["early", *range(200)]

    def test_same_time_events_scheduled_mid_cohort_run_after_it(self):
        """An event scheduled at the current timestamp from within a
        cohort member carries a higher seq and fires after the members
        already in the heap — exactly as serial popping orders it."""
        eq = EventQueue()
        fired = []
        eq.schedule(3.0, lambda: (fired.append("a"),
                                  eq.schedule(0.0, fired.append, "late")))
        eq.schedule(3.0, fired.append, "b")
        eq.run_until(5.0)
        assert fired == ["a", "b", "late"]

    def test_cohort_member_cancelling_later_member_is_honoured(self):
        eq = EventQueue()
        fired = []
        holder = {}
        eq.schedule(1.0, lambda: eq.cancel(holder["victim"]))
        holder["victim"] = eq.schedule(1.0, fired.append, "victim")
        eq.schedule(1.0, fired.append, "after")
        eq.run_until(2.0)
        assert fired == ["after"]
        assert eq.events_processed == 2  # canceller + "after", not the victim

    def test_clock_is_stable_within_a_cohort(self):
        eq = EventQueue()
        seen = []
        for _ in range(3):
            eq.schedule(6.0, lambda: seen.append(eq.now))
        eq.run_until(10.0)
        assert seen == [6.0, 6.0, 6.0]

    def test_cancellation_stays_lazy_until_pop_or_compaction(self):
        """Below the compaction threshold a cancelled entry stays resident
        (lazy cancellation) and is only dropped when popped."""
        eq = EventQueue()
        event = eq.schedule(50.0, lambda: None)
        eq.schedule(60.0, lambda: None)
        eq.cancel(event)
        assert eq.heap_size == 2  # still resident
        eq.run_until(100.0)
        assert eq.heap_size == 0
        assert eq.events_processed == 1


class TestHeapCompaction:
    """Regression: cancel-heavy quiescent runs must not grow the heap
    unboundedly (dead entries used to stay resident until their far-future
    timestamp was reached)."""

    def test_many_cancelled_timers_are_compacted_away(self):
        eq = EventQueue()
        live = eq.schedule(1e9, lambda: None)
        # Schedule-and-cancel far-future timers, as a retransmission or
        # watchdog layer does; the heap must stay bounded by live count.
        for _ in range(20 * COMPACT_MIN_CANCELLED):
            eq.cancel(eq.schedule(1e9, lambda: None))
        assert eq.heap_size < 2 * COMPACT_MIN_CANCELLED
        assert len(eq) == 1
        assert live[2] is not None  # its callback: not cancelled

    def test_compaction_keeps_order_and_pending_events(self):
        eq = EventQueue()
        fired = []
        keep = [eq.schedule(float(i + 1), fired.append, i) for i in range(5)]
        for _ in range(3 * COMPACT_MIN_CANCELLED):
            eq.cancel(eq.schedule(1e9, lambda: None))
        assert eq.heap_size < 2 * COMPACT_MIN_CANCELLED
        eq.run_until(10.0)
        assert fired == [0, 1, 2, 3, 4]
        assert keep[0][0] == 1.0  # the entry's time

    def test_small_queues_never_pay_compaction(self):
        """Below COMPACT_MIN_CANCELLED cancelled entries stay lazily
        resident — compacting tiny heaps would cost more than it saves."""
        eq = EventQueue()
        events = [eq.schedule(1e9, lambda: None)
                  for _ in range(COMPACT_MIN_CANCELLED - 2)]
        for event in events:
            eq.cancel(event)
        assert eq.heap_size == COMPACT_MIN_CANCELLED - 2


class TestPeriodicTimer:
    def test_fires_every_period(self):
        eq = EventQueue()
        fired = []
        PeriodicTimer(eq, 10.0, lambda: fired.append(eq.now))
        eq.run_until(35.0)
        assert fired == [10.0, 20.0, 30.0]

    def test_explicit_start_time(self):
        eq = EventQueue()
        fired = []
        PeriodicTimer(eq, 10.0, lambda: fired.append(eq.now), start=4.0)
        eq.run_until(30.0)
        assert fired == [4.0, 14.0, 24.0]

    def test_stop_cancels_future_firings(self):
        eq = EventQueue()
        fired = []
        timer = PeriodicTimer(eq, 5.0, lambda: fired.append(eq.now))
        eq.run_until(12.0)
        timer.stop()
        eq.run_until(30.0)
        assert fired == [5.0, 10.0]
        assert timer.stopped

    def test_stop_from_within_callback(self):
        eq = EventQueue()
        fired = []
        timer = PeriodicTimer(eq, 5.0, lambda: (fired.append(eq.now), timer.stop()))
        eq.run_until(30.0)
        assert fired == [5.0]

    def test_zero_period_rejected(self):
        with pytest.raises(SimulationError):
            PeriodicTimer(EventQueue(), 0.0, lambda: None)

    def test_start_in_past_rejected(self):
        eq = EventQueue()
        eq.run_until(10.0)
        with pytest.raises(SimulationError):
            PeriodicTimer(eq, 5.0, lambda: None, start=3.0)

    def test_first_fire_exposed(self):
        eq = EventQueue()
        timer = PeriodicTimer(eq, 8.0, lambda: None, start=16.0)
        assert timer.first_fire == 16.0

    def test_period_is_exact_for_integer_periods(self):
        """Repeated re-arming must not accumulate float error for the
        integer epoch durations the system uses."""
        eq = EventQueue()
        fired = []
        PeriodicTimer(eq, 2048.0, lambda: fired.append(eq.now), start=2048.0)
        eq.run_until(2048.0 * 50)
        assert fired == [2048.0 * k for k in range(1, 51)]
