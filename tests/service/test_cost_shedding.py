"""Regression tests for cost-weighted load shedding.

Priority-only shedding drops whoever arrives after the backlog fills —
a cheap probe query dies because a monster query got there first.  With
``OverloadConfig(cost_weighted_shedding=True)`` the shedder spends the
planner's prices: when a backlog threshold trips, the most expensive
pending BEST_EFFORT admission is evicted instead of the (cheaper or
RELIABLE) newcomer.  These tests pin the ordering — expensive
low-priority tickets shed before cheap ones under a seeded burst — and
reconcile every ``resilience.*`` / ``planner.*`` counter against the
actual ticket outcomes, so the books always balance:

    #SHED tickets == resilience sheds + planner quota rejections
    cost evictions ⊆ resilience BEST_EFFORT sheds (counted in both).

The last test replays a whole Section 4.3 dynamic workload through both
shedders and checks that pricing the backlog completes more RELIABLE
queries than priority-only shedding under the identical overload.
"""

import random

from repro.core.basestation import BaseStationOptimizer
from repro.core.qos import QoSClass
from repro.harness.tier1_sim import default_cost_model
from repro.obs import scoped
from repro.queries import fresh_qids
from repro.service import (
    OptimizerBackend,
    OverloadConfig,
    QueryService,
    TenantQuotas,
    TicketStatus,
)
from repro.workloads import dynamic_workload, fig4_query_model
from repro.workloads.spec import EventKind

Q_CHEAP = "SELECT light FROM sensors WHERE light > 900 EPOCH DURATION 8192"
Q_MID = "SELECT light FROM sensors WHERE light > 300 EPOCH DURATION 4096"
Q_WIDE = "SELECT light, temp FROM sensors EPOCH DURATION 4096"
POOL = (
    Q_CHEAP,
    Q_MID,
    Q_WIDE,
    "SELECT temp FROM sensors WHERE temp > 10 EPOCH DURATION 8192",
    "SELECT temp FROM sensors WHERE temp > 40 EPOCH DURATION 8192",
    "SELECT MAX(light) FROM sensors EPOCH DURATION 8192",
)


def make_service(**kwargs):
    optimizer = BaseStationOptimizer(default_cost_model(16, 3))
    return QueryService(OptimizerBackend(optimizer), **kwargs)


def _price(service, text):
    return service.explain(text).price.radio_s_per_epoch


class TestEvictionOrder:
    def test_cheap_newcomer_displaces_expensive_pending(self):
        with scoped():
            service = make_service(
                batch_window_ms=10_000.0,
                overload=OverloadConfig(shed_backlog_best_effort=1,
                                        shed_backlog_reliable=3,
                                        cost_weighted_shedding=True))
            sid = service.open_session("alice", now_ms=0.0)
            expensive = service.submit(sid, Q_WIDE, now_ms=1.0)
            assert expensive.status is TicketStatus.PENDING
            cheap = service.submit(sid, Q_CHEAP, now_ms=2.0)

            # The pricier pending ticket was evicted, the cheap newcomer
            # took its place.
            assert service.ticket(expensive.ticket_id).status is \
                TicketStatus.SHED
            assert "evicted by cost-weighted backlog" in \
                service.ticket(expensive.ticket_id).error
            assert cheap.status is TicketStatus.PENDING
            assert service.planner_stats().cost_sheds == 1

    def test_expensive_newcomer_is_shed_not_the_cheap_queue(self):
        with scoped():
            service = make_service(
                batch_window_ms=10_000.0,
                overload=OverloadConfig(shed_backlog_best_effort=1,
                                        shed_backlog_reliable=3,
                                        cost_weighted_shedding=True))
            sid = service.open_session("alice", now_ms=0.0)
            cheap = service.submit(sid, Q_CHEAP, now_ms=1.0)
            expensive = service.submit(sid, Q_WIDE, now_ms=2.0)
            assert expensive.status is TicketStatus.SHED
            assert "backlog" in expensive.error
            assert cheap.status is TicketStatus.PENDING
            # No eviction happened: the newcomer was the priciest.
            assert service.planner_stats().cost_sheds == 0

    def test_reliable_newcomer_displaces_best_effort_unconditionally(self):
        with scoped():
            service = make_service(
                batch_window_ms=10_000.0,
                overload=OverloadConfig(shed_backlog_best_effort=1,
                                        shed_backlog_reliable=1,
                                        cost_weighted_shedding=True))
            sid = service.open_session("alice", now_ms=0.0)
            cheap = service.submit(sid, Q_CHEAP, now_ms=1.0)
            reliable = service.submit(sid, Q_WIDE, now_ms=2.0,
                                      qos=QoSClass.RELIABLE)
            # Even though the newcomer is pricier, RELIABLE wins.
            assert service.ticket(cheap.ticket_id).status is TicketStatus.SHED
            assert reliable.status is TicketStatus.PENDING

    def test_reliable_pending_is_never_evicted(self):
        with scoped():
            service = make_service(
                batch_window_ms=10_000.0,
                overload=OverloadConfig(shed_backlog_best_effort=1,
                                        shed_backlog_reliable=1,
                                        cost_weighted_shedding=True))
            sid = service.open_session("alice", now_ms=0.0)
            anchored = service.submit(sid, Q_WIDE, now_ms=1.0,
                                      qos=QoSClass.RELIABLE)
            newcomer = service.submit(sid, Q_CHEAP, now_ms=2.0,
                                      qos=QoSClass.RELIABLE)
            assert service.ticket(anchored.ticket_id).status is \
                TicketStatus.PENDING
            assert newcomer.status is TicketStatus.SHED

    def test_priced_backlog_cap_stops_monster_queries(self):
        with scoped():
            service = make_service(
                batch_window_ms=10_000.0,
                overload=OverloadConfig(cost_weighted_shedding=True,
                                        shed_backlog_cost_radio_s=0.05))
            sid = service.open_session("alice", now_ms=0.0)
            # Alone over the cap: shed even though the queue is empty.
            monster = service.submit(sid, Q_WIDE, now_ms=1.0)
            assert monster.status is TicketStatus.SHED
            assert "priced backlog" in monster.error
            # A cheap query fits under the cap.
            assert service.submit(sid, Q_CHEAP, now_ms=2.0).status is \
                TicketStatus.PENDING


class TestSeededBurstReconciliation:
    def _run_burst(self, quotas=None, seed=1234, n=60):
        service = make_service(
            batch_window_ms=10**6,  # keep everything pending
            overload=OverloadConfig(shed_backlog_best_effort=3,
                                    shed_backlog_reliable=5,
                                    cost_weighted_shedding=True),
            quotas=quotas or TenantQuotas())
        rng = random.Random(seed)
        sids = [service.open_session(f"tenant-{i}", now_ms=0.0)
                for i in range(4)]
        tickets = []
        for step in range(n):
            qos = (QoSClass.RELIABLE if rng.random() < 0.25
                   else QoSClass.BEST_EFFORT)
            ticket = service.submit(rng.choice(sids), rng.choice(POOL),
                                    now_ms=float(step), qos=qos)
            tickets.append((ticket, qos))
        return service, tickets

    def test_counters_reconcile_with_ticket_outcomes(self):
        with scoped():
            service, tickets = self._run_burst()
            shed = [service.ticket(t.ticket_id) for t, _ in tickets
                    if service.ticket(t.ticket_id).status
                    is TicketStatus.SHED]
            assert shed, "burst was supposed to overload the service"

            res = service.resilience_stats()
            planner = service.planner_stats()
            # Every shed ticket is accounted for exactly once between the
            # resilience shed counters and the quota rejections.
            assert len(shed) == (res.shed_best_effort + res.shed_reliable
                                 + planner.quota_rejections)
            # Cost evictions are double-counted by design: they are both
            # a resilience shed and a planner cost-shed.
            evicted = [t for t in shed
                       if "evicted by cost-weighted" in (t.error or "")]
            assert planner.cost_sheds == len(evicted)
            assert planner.cost_sheds <= res.shed_best_effort
            assert planner.quota_rejections == 0

    def test_survivors_are_cheaper_than_evicted(self):
        """The eviction invariant: nothing pricier than an evicted ticket
        survives in the pending queue it was evicted from."""
        with scoped():
            service, tickets = self._run_burst()
            prices = {text: _price(service, text) for text in POOL}
            # The submitted tickets, not service.ticket(): a shed ticket's
            # tombstone no longer carries its query.
            evicted = [t for t, _ in tickets
                       if t.status is TicketStatus.SHED
                       and "evicted by cost-weighted" in (t.error or "")]
            pending_be = [
                t for t, qos in tickets
                if t.status is TicketStatus.PENDING
                and qos is QoSClass.BEST_EFFORT]
            assert evicted
            cheapest_evicted = min(
                prices[str(t.query)] if str(t.query) in prices else
                service.explain(t.query).price.radio_s_per_epoch
                for t in evicted)
            for survivor in pending_be:
                survivor_price = service.explain(
                    survivor.query).price.radio_s_per_epoch
                assert survivor_price <= cheapest_evicted + 1e-9

    def test_quota_rejections_separate_from_overload_sheds(self):
        with scoped():
            service, tickets = self._run_burst(
                quotas=TenantQuotas(default_radio_s_per_epoch=0.2))
            shed = [service.ticket(t.ticket_id) for t, _ in tickets
                    if service.ticket(t.ticket_id).status
                    is TicketStatus.SHED]
            quota_shed = [t for t in shed
                          if (t.error or "").startswith("quota:")]
            assert quota_shed, "quota was supposed to bind"
            res = service.resilience_stats()
            planner = service.planner_stats()
            assert planner.quota_rejections == len(quota_shed)
            assert len(shed) == (res.shed_best_effort + res.shed_reliable
                                 + planner.quota_rejections)

    def test_burst_is_deterministic(self):
        with scoped():
            first, tickets_a = self._run_burst(seed=99)
            outcomes_a = [first.ticket(t.ticket_id).status
                          for t, _ in tickets_a]
        with scoped():
            second, tickets_b = self._run_burst(seed=99)
            outcomes_b = [second.ticket(t.ticket_id).status
                          for t, _ in tickets_b]
        assert outcomes_a == outcomes_b


# ----------------------------------------------------------------------
# Cost-weighted vs priority-only shedding over a whole dynamic workload
# ----------------------------------------------------------------------
N_NODES = 64
SEED = 31
N_QUERIES, CONCURRENCY = 400, 80
RELIABLE_FRACTION = 0.3
#: Submissions pool inside one batch window; with 40 s mean
#: interarrival a 400 s window pools ~10 arrivals, so thresholds this
#: small overflow routinely and the RELIABLE threshold actually binds.
BATCH_WINDOW_MS = 400_000.0
SHED_BEST_EFFORT = 2
SHED_RELIABLE = 5


def _replay(workload, qos_stream, cost_weighted):
    """Replay ``workload`` through one shedder; tally what survives."""
    overload = OverloadConfig(
        shed_backlog_best_effort=SHED_BEST_EFFORT,
        shed_backlog_reliable=SHED_RELIABLE,
        cost_weighted_shedding=cost_weighted)
    with scoped():
        optimizer = BaseStationOptimizer(default_cost_model(N_NODES, 5))
        service = QueryService(OptimizerBackend(optimizer),
                               batch_window_ms=BATCH_WINDOW_MS,
                               overload=overload)
        sid = service.open_session("burst", ttl_ms=10 * workload.duration_ms,
                                   now_ms=0.0)
        tickets = {}
        arrivals = 0
        for event in workload.events:
            now = event.time_ms
            service.tick(now_ms=now)
            if event.kind is EventKind.ARRIVE:
                qos = qos_stream[arrivals]
                arrivals += 1
                ticket = service.submit(sid, event.query, now_ms=now,
                                        qos=qos)
                # The submitted ticket: a retired one's tombstone in
                # service.ticket() no longer carries its query.
                tickets[event.query.qid] = (ticket, qos)
            else:
                ticket, _ = tickets[event.query.qid]
                if ticket.status in (TicketStatus.PENDING, TicketStatus.LIVE):
                    service.terminate(sid, ticket.ticket_id, now_ms=now)
        service.tick(now_ms=workload.duration_ms + BATCH_WINDOW_MS)
        service.validate()

        completed = {QoSClass.BEST_EFFORT: 0, QoSClass.RELIABLE: 0}
        shed = {QoSClass.BEST_EFFORT: 0, QoSClass.RELIABLE: 0}
        shed_prices, kept_prices = [], []
        for ticket, qos in tickets.values():
            price = service.explain(ticket.query).price.radio_s_per_epoch
            if ticket.status is TicketStatus.SHED:
                shed[qos] += 1
                if qos is QoSClass.BEST_EFFORT:
                    shed_prices.append(price)
            else:
                completed[qos] += 1
                if qos is QoSClass.BEST_EFFORT:
                    kept_prices.append(price)
        res = service.resilience_stats()
        planner = service.planner_stats()
        total_shed = shed[QoSClass.BEST_EFFORT] + shed[QoSClass.RELIABLE]
        # The books must balance before any comparison means anything.
        assert total_shed == (res.shed_best_effort + res.shed_reliable
                              + planner.quota_rejections)
        assert planner.cost_sheds <= res.shed_best_effort
        return {
            "completed_reliable": completed[QoSClass.RELIABLE],
            "shed_reliable": shed[QoSClass.RELIABLE],
            "shed_best_effort": shed[QoSClass.BEST_EFFORT],
            "cost_evictions": planner.cost_sheds,
            "mean_price_shed_best_effort": (
                sum(shed_prices) / len(shed_prices) if shed_prices else 0.0),
            "mean_price_kept_best_effort": (
                sum(kept_prices) / len(kept_prices) if kept_prices else 0.0),
        }


def test_cost_weighted_shedding_completes_more_reliable_queries():
    with fresh_qids():
        workload = dynamic_workload(fig4_query_model(), n_nodes=N_NODES,
                                    n_queries=N_QUERIES,
                                    concurrency=CONCURRENCY, seed=SEED)
        n_arrivals = sum(1 for e in workload.events
                         if e.kind is EventKind.ARRIVE)
        # The same seeded QoS stream for both configurations.
        rng = random.Random(SEED ^ 0xC057)
        qos_stream = [QoSClass.RELIABLE if rng.random() < RELIABLE_FRACTION
                      else QoSClass.BEST_EFFORT for _ in range(n_arrivals)]
        baseline = _replay(workload, qos_stream, cost_weighted=False)
        priced = _replay(workload, qos_stream, cost_weighted=True)

    # The burst must actually overload both configurations.
    assert baseline["shed_reliable"] + baseline["shed_best_effort"] > 0
    assert priced["cost_evictions"] > 0
    # The headline claim: pricing the backlog preserves strictly more
    # high-priority completions under the identical seeded overload.
    assert priced["completed_reliable"] > baseline["completed_reliable"], (
        f"cost-weighted shedding completed {priced['completed_reliable']} "
        f"RELIABLE queries vs priority-only's "
        f"{baseline['completed_reliable']} — pricing bought nothing")
    # And what it sheds is the expensive tail, not whoever came last.
    assert priced["mean_price_shed_best_effort"] > \
        priced["mean_price_kept_best_effort"]
