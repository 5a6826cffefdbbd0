"""Incremental result delivery: ``pump`` maps only what arrived since the
last pump, once per anchor, and hands every ticket exactly what a full
rescan would.

The contract is bit-identity with the rescan ``pump`` used to do (rebuild
every ticket's whole answer from the whole log, drop what was delivered).
That loop survives here, as :func:`_rescan`, written against the plain
full-history read API of :class:`ResultLog` only; hypothesis drives random
interleavings of arrivals, subscriptions, remaps, terminations,
re-submissions and pumps and requires the two to agree item for item.  The
cost side is checked by counting rows read, never by a clock.
"""

import queue

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.basestation import BaseStationOptimizer
from repro.core.basestation.result_mapper import MappedAggregates, MappedRow
from repro.harness.tier1_sim import default_cost_model
from repro.obs import scoped
from repro.queries.parser import parse_query
from repro.service import (
    OptimizerBackend,
    QueryService,
    TenantQuotas,
    TicketStatus,
)
from repro.tinydb.aggregation import (
    compute_aggregates,
    compute_grouped_aggregates,
    grouped_partials_from_row,
)
from repro.tinydb.results import ResultLog

USER_TEXTS = (
    "SELECT light FROM sensors WHERE light > 300 EPOCH DURATION 4096",
    "SELECT MAX(light) FROM sensors EPOCH DURATION 4096",
    "SELECT AVG(temp), COUNT(temp) FROM sensors WHERE temp > 10 "
    "GROUP BY light / 250 EPOCH DURATION 4096",
)

#: Synthetic queries a "remap" may append to a user query's mapping
#: history, with the USER_TEXTS indexes each can answer exactly.  The
#: unpredicated acquisition query turns both aggregation users into
#: derived aggregates (the watermarked, recomputed case).
EXTRA_SYNTHETICS = (
    ("SELECT light, temp FROM sensors EPOCH DURATION 2048", (0, 1, 2)),
    ("SELECT light, temp FROM sensors WHERE light > 200 "
     "EPOCH DURATION 4096", (0,)),
    ("SELECT MAX(light), MIN(light) FROM sensors EPOCH DURATION 2048", (1,)),
    ("SELECT AVG(temp), COUNT(temp), MAX(temp) FROM sensors WHERE temp > 10 "
     "GROUP BY light / 250 EPOCH DURATION 2048", (2,)),
)

#: Tickets per question in the rescan differential: they share an anchor
#: (dedup cache) but subscribe, end and come back at their own times.
TICKETS_PER_QUESTION = 3


class _RemappingOptimizer(BaseStationOptimizer):
    """Real tier 1, plus test-driven extensions of a mapping history."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.extra = {}

    def synthetic_history(self, user_qid):
        return (super().synthetic_history(user_qid)
                + self.extra.get(user_qid, []))


class _LogBackend(OptimizerBackend):
    """A bare optimizer with a result log the test writes by hand."""

    def __init__(self, optimizer, log):
        super().__init__(optimizer)
        self.results = log


class _CountingLog(ResultLog):
    """Counts the rows every row-reading call hands out."""

    def __init__(self):
        super().__init__()
        self.rows_read = 0

    def rows(self, qid, epoch_time=None):
        out = super().rows(qid, epoch_time)
        self.rows_read += len(out)
        return out

    def rows_since(self, qid, start):
        out = super().rows_since(qid, start)
        self.rows_read += len(out)
        return out


def _service(log, **kwargs):
    backend = _LogBackend(
        _RemappingOptimizer(default_cost_model(16, 3)), log)
    return QueryService(backend, batch_window_ms=0.0,
                        default_ttl_ms=1e12, clock=lambda: 0.0, **kwargs)


def _rescan(log, anchor, history, seen, now):
    """The rescan ``QueryService.pump`` did before cursors (reference)."""
    fresh = []
    for synthetic in history:
        narrowed = synthetic.predicates != anchor.predicates
        matching = [
            r for r in log.rows(synthetic.qid)
            if anchor.fires_at(r.epoch_time)
            and (not narrowed or anchor.predicates.matches(r.values))
        ] if synthetic.is_acquisition else []
        if anchor.is_acquisition:
            items = sorted(
                (MappedRow(r.epoch_time, r.origin,
                           {a: r.values[a] for a in anchor.attributes})
                 for r in matching),
                key=lambda r: (r.epoch_time, r.origin))
        elif synthetic.is_acquisition:
            items = []
            for epoch in log.row_epochs(synthetic.qid):
                # Derived aggregates wait for the watermark.
                if (not anchor.fires_at(epoch)
                        or epoch + anchor.epoch_ms > now):
                    continue
                rows = [r.values for r in matching if r.epoch_time == epoch]
                if anchor.group_by:
                    grouped = compute_grouped_aggregates(
                        anchor.aggregates, anchor.group_by, rows)
                    items += [MappedAggregates(epoch, grouped[g], g)
                              for g in sorted(grouped)]
                else:
                    items.append(MappedAggregates(
                        epoch, compute_aggregates(anchor.aggregates, rows)))
        else:
            items = [
                MappedAggregates(
                    epoch,
                    {a: log.aggregate(synthetic.qid, epoch, a, g)
                     for a in anchor.aggregates}, g)
                for epoch in log.aggregate_epochs(synthetic.qid)
                if anchor.fires_at(epoch)
                for g in log.group_keys(synthetic.qid, epoch)]
        for item in items:
            key = (item.epoch_time,
                   item.origin if anchor.is_acquisition else item.group_key)
            if key not in seen:
                seen.add(key)
                fresh.append(item)
    return fresh


def _arrive(log, synthetic, epoch, origin, reading, now):
    """What the sink does with one reading reported for ``synthetic``."""
    if not (synthetic.fires_at(epoch)
            and synthetic.predicates.matches(reading)):
        return
    if synthetic.is_acquisition:
        log.add_row(synthetic.qid, epoch, origin, reading, received_at=now)
    else:
        for group, partials in grouped_partials_from_row(
                synthetic, reading).items():
            log.add_partials(synthetic.qid, epoch, partials.values(), group)


def _drain(subscriber):
    items = []
    while True:
        try:
            items.append(subscriber.get_nowait())
        except queue.Empty:
            return items


_reading = st.tuples(
    st.integers(0, 4), st.integers(0, 2),
    st.sampled_from([100.0, 260.0, 400.0, 600.0]),
    st.sampled_from([5.0, 20.0, 30.0]))

_slot = st.integers(0, TICKETS_PER_QUESTION * len(USER_TEXTS) - 1)


def _ops(min_size, max_size):
    return st.lists(st.one_of(
        # A burst of (epoch, origin, light, temp) readings reaches the base
        # station, reported by one synthetic query (by position among all
        # known ones) or, with None, by every one of them — what a handover
        # looks like.
        st.tuples(st.just("arrive"), st.none() | st.integers(0, 15),
                  st.lists(_reading, min_size=1, max_size=6)),
        st.tuples(st.just("subscribe"), _slot),
        st.tuples(st.just("remap"), _slot, st.integers(0, 3)),
        # The slot's ticket ends; the last of its question ends the anchor.
        st.tuples(st.just("terminate"), _slot),
        # The slot's ticket ends and its question is submitted again: a
        # cache hit while the anchor lives, a new anchor (qid) once it died.
        st.tuples(st.just("resubmit"), _slot),
        st.tuples(st.just("pump"),
                  st.sampled_from([0.0, 1024.0, 4096.0, 9000.0])),
    ), min_size=min_size, max_size=max_size)


def _pump_equals_rescan(ops):
    with scoped():
        log = ResultLog()
        service = _service(log)
        optimizer = service.optimizer
        sid = service.open_session("tenant", now_ms=0.0)
        # Slot i asks question i % 3.
        slots = [service.submit(sid, USER_TEXTS[i % len(USER_TEXTS)],
                                now_ms=0.0)
                 for i in range(TICKETS_PER_QUESTION * len(USER_TEXTS))]
        every_ticket = list(slots)
        extras = [parse_query(text) for text, _ in EXTRA_SYNTHETICS]
        # ticket id -> (ticket, reference delivered-set, [(queue, got, want)])
        subscribed = {}
        # Queues of tickets that ended: nothing may reach them any more.
        ended = []
        now = 0.0
        for op in ops:
            if op[0] == "arrive":
                known = {}
                for ticket in every_ticket:
                    for s in optimizer.synthetic_history(ticket.anchor.qid):
                        known.setdefault(s.qid, s)
                for s in extras:
                    known.setdefault(s.qid, s)
                reporting = list(known.values())
                if op[1] is not None:
                    reporting = [reporting[op[1] % len(reporting)]]
                for epoch_index, origin, light, temp in op[2]:
                    for synthetic in reporting:
                        _arrive(log, synthetic, 2048.0 * epoch_index,
                                origin, {"light": light, "temp": temp},
                                now)
            elif op[0] == "subscribe":
                ticket = slots[op[1]]
                if ticket.status is TicketStatus.LIVE:
                    sinks = subscribed.setdefault(
                        ticket.ticket_id, (ticket, set(), []))[2]
                    sinks.append((service.subscribe(
                        sid, ticket.ticket_id, maxsize=0), [], []))
            elif op[0] == "remap":
                able = [extra for extra, (_, users)
                        in zip(extras, EXTRA_SYNTHETICS)
                        if op[1] % len(USER_TEXTS) in users]
                optimizer.extra.setdefault(
                    slots[op[1]].anchor.qid, []).append(
                        able[op[2] % len(able)])
            elif op[0] in ("terminate", "resubmit"):
                ticket = slots[op[1]]
                if ticket.status is TicketStatus.LIVE:
                    service.terminate(sid, ticket.ticket_id, now_ms=now)
                    _, _, sinks = subscribed.pop(ticket.ticket_id,
                                                 (None, None, []))
                    ended += [subscriber for subscriber, _, _ in sinks]
                if op[0] == "resubmit":
                    slots[op[1]] = service.submit(
                        sid, USER_TEXTS[op[1] % len(USER_TEXTS)], now_ms=now)
                    every_ticket.append(slots[op[1]])
            else:
                now += op[1]
                service.pump(now_ms=now)
                for ticket, seen, sinks in subscribed.values():
                    anchor = ticket.anchor
                    fresh = _rescan(
                        log, anchor,
                        optimizer.synthetic_history(anchor.qid), seen, now)
                    for subscriber, got, want in sinks:
                        got += _drain(subscriber)
                        want += fresh
                        assert got == want
                assert not any(_drain(subscriber) for subscriber in ended)
            if op[0] not in ("arrive", "remap"):  # the rest move service state
                service.validate()


class TestPumpEqualsRescan:
    @settings(max_examples=200, deadline=None)
    @given(ops=_ops(1, 40))
    # A derived-aggregate epoch seen before its watermark, and nothing new
    # by the time the watermark passes: it must still be handed over.
    @example(ops=[("subscribe", 1), ("arrive", None, [(0, 0, 400.0, 20.0)]),
                  ("pump", 1024.0), ("pump", 4096.0)])
    # Partial buckets first seen out of epoch order within one pump window.
    @example(ops=[("remap", 1, 1), ("subscribe", 1),
                  ("arrive", None, [(4, 0, 400.0, 20.0), (0, 0, 400.0, 20.0),
                                    (2, 1, 100.0, 20.0)]),
                  ("pump", 0.0)])
    # A GROUP BY bucket arriving after its epoch was handed over is new; a
    # late row for a bucket already handed over changes nothing.
    @example(ops=[("subscribe", 2), ("arrive", None, [(0, 0, 100.0, 20.0)]),
                  ("pump", 9000.0),
                  ("arrive", None, [(0, 1, 600.0, 30.0), (0, 2, 100.0, 30.0)]),
                  ("pump", 0.0)])
    # A sibling subscribing after its anchor handed buckets over catches up
    # on all of them alone, then shares the anchor's cursor; the anchor
    # dies with its last ticket (slot 8's re-submission ends it) and comes
    # back under a new qid.
    @example(ops=[("subscribe", 2), ("arrive", None, [(0, 0, 600.0, 20.0)]),
                  ("pump", 9000.0),
                  ("arrive", None, [(0, 1, 100.0, 20.0)]),
                  ("subscribe", 5), ("pump", 0.0),
                  ("arrive", None, [(2, 1, 400.0, 30.0)]), ("pump", 9000.0),
                  ("terminate", 2), ("terminate", 5), ("resubmit", 8),
                  ("subscribe", 8), ("pump", 1024.0)])
    def test_every_ticket_gets_the_rescan_sequence(self, ops):
        _pump_equals_rescan(ops)

    @pytest.mark.slow
    @settings(max_examples=60, deadline=None)
    @given(ops=_ops(20, 60))
    def test_every_ticket_gets_the_rescan_sequence_deep(self, ops):
        _pump_equals_rescan(ops)


class TestPumpCost:
    def _two_subscribed_tickets(self, log):
        service = _service(log)
        sid = service.open_session("tenant", now_ms=0.0)
        tickets = [service.submit(sid, USER_TEXTS[0], now_ms=0.0)
                   for _ in range(2)]
        subscribers = [service.subscribe(sid, t.ticket_id) for t in tickets]
        return service, sid, tickets, subscribers

    def test_a_pump_reads_only_rows_that_arrived_since_the_last(self):
        with scoped():
            log = _CountingLog()
            service, _, tickets, subscribers = \
                self._two_subscribed_tickets(log)
            qid = service.optimizer.synthetic_for(tickets[0].anchor.qid).qid
            for origin in range(40):
                log.add_row(qid, 4096.0, origin, {"light": 500.0})
            assert service.pump(now_ms=5000.0) == 80
            assert log.rows_read == 80  # each new ticket catches up alone

            log.rows_read = 0
            assert service.pump(now_ms=6000.0) == 0
            assert log.rows_read == 0  # nothing new: nothing read

            for origin in range(3):
                log.add_row(qid, 8192.0, origin, {"light": 500.0})
            log.add_row(qid, 8192.0, 0, {"light": 500.0})  # multipath twin
            assert service.pump(now_ms=9000.0) == 6
            assert log.rows_read == 3  # k = 3 new rows per anchor
            assert [len(_drain(s)) for s in subscribers] == [43, 43]

    def test_tickets_of_one_anchor_receive_the_same_item_objects(self):
        with scoped():
            log = ResultLog()
            service, _, tickets, subscribers = \
                self._two_subscribed_tickets(log)
            qid = service.optimizer.synthetic_for(tickets[0].anchor.qid).qid
            service.pump(now_ms=1.0)  # both catch up on nothing, then join
            for origin in range(3):
                log.add_row(qid, 4096.0, origin, {"light": 500.0})
            assert service.pump(now_ms=5000.0) == 6
            first, second = (_drain(s) for s in subscribers)
            assert len(first) == len(second) == 3
            assert all(a is b for a, b in zip(first, second))

    def test_a_second_subscribe_on_a_caught_up_ticket_replays_nothing(self):
        with scoped():
            log = _CountingLog()
            service = _service(log)
            sid = service.open_session("tenant", now_ms=0.0)
            ticket = service.submit(sid, USER_TEXTS[0], now_ms=0.0)
            first = service.subscribe(sid, ticket.ticket_id)
            qid = service.optimizer.synthetic_for(ticket.anchor.qid).qid
            for origin in range(5):
                log.add_row(qid, 4096.0, origin, {"light": 500.0})
            assert service.pump(now_ms=5000.0) == 5

            second = service.subscribe(sid, ticket.ticket_id)
            log.rows_read = 0
            assert service.pump(now_ms=6000.0) == 0
            assert log.rows_read == 0

            for origin in range(2):
                log.add_row(qid, 8192.0, origin, {"light": 500.0})
            assert service.pump(now_ms=9000.0) == 4
            assert [len(_drain(s)) for s in (first, second)] == [7, 2]

    def test_a_late_ticket_catches_up_alone_then_joins_its_anchor(self):
        with scoped():
            log = _CountingLog()
            service = _service(log)
            sid = service.open_session("tenant", now_ms=0.0)
            early = service.submit(sid, USER_TEXTS[0], now_ms=0.0)
            early_queue = service.subscribe(sid, early.ticket_id)
            qid = service.optimizer.synthetic_for(early.anchor.qid).qid
            for origin in range(10):
                log.add_row(qid, 4096.0, origin, {"light": 500.0})
            assert service.pump(now_ms=5000.0) == 10

            late = service.submit(sid, USER_TEXTS[0], now_ms=5000.0)
            assert late.cache_hit and late.anchor_qid == early.anchor_qid
            late_queue = service.subscribe(sid, late.ticket_id)
            for origin in range(3):
                log.add_row(qid, 8192.0, origin, {"light": 500.0})
            log.rows_read = 0
            assert service.pump(now_ms=9000.0) == 3 + 13
            assert log.rows_read == 3 + 13  # the anchor's 3, the late 13
            assert [len(_drain(q)) for q in (early_queue, late_queue)] \
                == [13, 13]

            for origin in range(4):
                log.add_row(qid, 12288.0, origin, {"light": 500.0})
            log.rows_read = 0
            assert service.pump(now_ms=13000.0) == 8
            assert log.rows_read == 4  # k, not 2k: one cursor for both
            service.validate()

    def test_a_dropped_ticket_releases_its_cursor(self):
        with scoped():
            service, sid, tickets, _ = \
                self._two_subscribed_tickets(ResultLog())
            assert set(service._cursors) == {t.ticket_id for t in tickets}
            service.terminate(sid, tickets[0].ticket_id, now_ms=1.0)
            assert set(service._cursors) == {tickets[1].ticket_id}
            service.close_session(sid, now_ms=2.0)
            assert not service._cursors
            # Caught-up tickets read through their anchor's cursor; the
            # last of them to leave (terminated, or its session closed)
            # releases it, and the next anchor of the question gets its own.
            for close in (False, True):
                sid = service.open_session("tenant", now_ms=3.0)
                tickets = [service.submit(sid, USER_TEXTS[0], now_ms=3.0)
                           for _ in range(2)]
                for ticket in tickets:
                    service.subscribe(sid, ticket.ticket_id)
                service.pump(now_ms=4.0)
                assert not service._cursors
                assert set(service._anchor_cursors) == {tickets[0].anchor_qid}
                service.terminate(sid, tickets[0].ticket_id, now_ms=5.0)
                assert set(service._anchor_cursors) == {tickets[0].anchor_qid}
                if close:
                    service.close_session(sid, now_ms=6.0)
                else:
                    service.terminate(sid, tickets[1].ticket_id, now_ms=6.0)
                assert not service._anchor_cursors
                service.validate()

    def test_a_ticket_that_already_ended_holds_no_cursor(self):
        with scoped():
            service = _service(ResultLog(), quotas=TenantQuotas(
                default_radio_s_per_epoch=1e-9))
            sid = service.open_session("tenant", now_ms=0.0)
            ticket = service.submit(sid, USER_TEXTS[0], now_ms=0.0)
            assert ticket.status is TicketStatus.SHED
            subscriber = service.subscribe(sid, ticket.ticket_id)
            assert service.pump(now_ms=1.0) == 0
            assert subscriber.empty()
            assert not service._subs and not service._cursors
            service.validate()

    def test_mapped_counter_counts_attempts_delivered_counts_useful(self):
        with scoped() as registry:
            log = ResultLog()
            service = _service(log)
            sid = service.open_session("tenant", now_ms=0.0)
            ticket = service.submit(sid, USER_TEXTS[0], now_ms=0.0)
            service.subscribe(sid, ticket.ticket_id)
            first = service.optimizer.synthetic_for(ticket.anchor.qid)
            second = parse_query(EXTRA_SYNTHETICS[1][0])
            service.optimizer.extra[ticket.anchor.qid] = [second]
            # Both synthetic queries report the handover epoch's reading.
            for qid in (first.qid, second.qid):
                log.add_row(qid, 4096.0, 7, {"light": 500.0, "temp": 20.0})
            assert service.pump(now_ms=5000.0) == 1
            mapped = registry.counter(
                "service.pump_items_mapped_total", instance="default")
            assert mapped.value == 2
            assert service.stats().results_delivered == 1
