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
"""

import random

from repro.core.basestation import BaseStationOptimizer
from repro.core.qos import QoSClass
from repro.harness.tier1_sim import default_cost_model
from repro.obs import scoped
from repro.service import (
    OptimizerBackend,
    OverloadConfig,
    QueryService,
    TenantQuotas,
    TicketStatus,
)

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
