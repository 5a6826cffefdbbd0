"""``SubscriberQueue``: the C-backed bounded queue every subscription uses.

The reference is the stdlib :class:`queue.Queue` the subscriptions used
before, kept here as an oracle: hypothesis drives random put / get / qsize
/ empty sequences against both and requires the same items, the same
``Full``/``Empty`` outcomes and the same sizes at every step.  The one
intended difference — ``put`` on a full queue raises instead of blocking —
is asserted on its own.  A thread stress test then holds the bound and
exactly-once delivery under the concurrency the service really has: one
producer at a time (under a lock, as ``pump`` is), several consumers.
"""

import queue
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import SubscriberQueue

JOIN_TIMEOUT_S = 30.0

_op = st.one_of(
    st.tuples(st.just("put_nowait"), st.integers(0, 9)),
    st.tuples(st.just("put"), st.integers(0, 9)),
    st.tuples(st.just("get_nowait")),
    st.tuples(st.just("get"), st.just(0.0)),
    st.tuples(st.just("qsize")),
    st.tuples(st.just("empty")),
)


def _outcome(call):
    try:
        return ("ok", call())
    except queue.Full:
        return ("full",)
    except queue.Empty:
        return ("empty",)


def _parity(maxsize, ops):
    ours = SubscriberQueue(maxsize)
    reference = queue.Queue(maxsize=maxsize)
    assert ours.maxsize == reference.maxsize
    for op in ops:
        name = op[0]
        if name in ("put_nowait", "put"):
            got = _outcome(lambda: getattr(ours, name)(op[1]))
            # The reference's blocking put would wait on a full queue;
            # ours never does, so both sides are compared non-blocking.
            want = _outcome(lambda: reference.put_nowait(op[1]))
        elif name == "get":
            got = _outcome(lambda: ours.get(timeout=op[1]))
            want = _outcome(lambda: reference.get(timeout=op[1]))
        else:
            got = _outcome(getattr(ours, name))
            want = _outcome(getattr(reference, name))
        assert got == want, op
        assert ours.qsize() == reference.qsize()
        assert ours.empty() == reference.empty()


class TestParityWithQueue:
    @settings(max_examples=200, deadline=None)
    @given(maxsize=st.sampled_from([-1, 0, 1, 3]),
           ops=st.lists(_op, max_size=40))
    def test_same_items_outcomes_and_sizes(self, maxsize, ops):
        _parity(maxsize, ops)

    @pytest.mark.slow
    @settings(max_examples=100, deadline=None)
    @given(maxsize=st.sampled_from([-1, 0, 1, 3]),
           ops=st.lists(_op, min_size=40, max_size=200))
    def test_same_items_outcomes_and_sizes_deep(self, maxsize, ops):
        _parity(maxsize, ops)


@pytest.mark.parametrize("call", [
    lambda q: q.put("x"),
    lambda q: q.put("x", True, None),
    lambda q: q.put("x", block=True, timeout=60.0),
    lambda q: q.put_nowait("x"),
])
def test_put_on_a_full_queue_raises_instead_of_blocking(call):
    subscriber = SubscriberQueue(1)
    subscriber.put_nowait("first")
    outcome = []

    def attempt():
        try:
            call(subscriber)
            outcome.append("accepted")
        except queue.Full:
            outcome.append("full")

    worker = threading.Thread(target=attempt, daemon=True)
    worker.start()
    worker.join(JOIN_TIMEOUT_S)
    assert not worker.is_alive(), "put blocked on a full queue"
    assert outcome == ["full"]
    assert subscriber.qsize() == 1 and subscriber.get_nowait() == "first"


def test_timed_get_waits_for_an_item_or_its_deadline():
    subscriber = SubscriberQueue(1)
    with pytest.raises(queue.Empty):
        subscriber.get(timeout=0.01)
    with pytest.raises(ValueError):
        subscriber.get(timeout=-1)
    feeder = threading.Timer(0.01, subscriber.put_nowait, args=("late",))
    feeder.start()
    try:
        assert subscriber.get(timeout=JOIN_TIMEOUT_S) == "late"
    finally:
        feeder.join(JOIN_TIMEOUT_S)
    assert not feeder.is_alive()


def _stress(offered: int, maxsize: int = 3, consumers: int = 4) -> None:
    subscriber = SubscriberQueue(maxsize)
    lock = threading.Lock()
    done = threading.Event()
    accepted, dropped, seen_sizes = [], [0], []
    received = [[] for _ in range(consumers)]

    def produce():
        try:
            for item in range(offered):
                with lock:  # one producer at a time, as pump holds its lock
                    try:
                        subscriber.put_nowait(item)
                        accepted.append(item)
                    except queue.Full:
                        dropped[0] += 1
                    seen_sizes.append(subscriber.qsize())
                if item % 4 == 0:
                    time.sleep(0)  # let the consumers in between pumps
        finally:
            done.set()

    def consume(into):
        # Timed gets racing each other for the same item are what could
        # leave a consumer in CPython's SimpleQueue.get waiting forever.
        while True:
            finished = done.is_set()
            try:
                into.append(subscriber.get(timeout=0.001))
            except queue.Empty:
                if finished:
                    return

    threads = [threading.Thread(target=consume, args=(into,), daemon=True)
               for into in received]
    threads.append(threading.Thread(target=produce, daemon=True))
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(JOIN_TIMEOUT_S)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(previous)

    everything = [item for into in received for item in into]
    assert sorted(everything) == accepted  # each accepted item exactly once
    assert len(accepted) + dropped[0] == offered
    assert max(seen_sizes) <= maxsize
    for into in received:  # FIFO: a consumer sees items in put order
        assert into == sorted(into)
    assert subscriber.empty()


def test_one_producer_many_consumers_keeps_bound_and_exactly_once():
    _stress(offered=3000)


@pytest.mark.slow
def test_one_producer_many_consumers_keeps_bound_and_exactly_once_deep():
    _stress(offered=30000, maxsize=1)
