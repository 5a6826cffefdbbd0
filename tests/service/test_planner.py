"""Planner unit tests: EXPLAIN, priced admission quotas, stats views.

Covers the three service-facing planner contracts:

* ``QueryService.explain`` is strictly read-only — the query table, dedup
  cache, qid allocator, and every counter ``stats()`` reports on are
  byte-identical before and after an EXPLAIN, yet the report still
  prices the query and predicts the admission verdict ``submit`` would
  reach.
* Tenant quotas are enforced at ``submit`` against the priced spend of
  the tenant's PENDING+LIVE tickets, surface a ``quota:`` error, count in
  ``planner.quota_rejections_total`` (not ``resilience.shed``), and
  release their charge on terminate/expiry.
* ``stats()``, ``resilience_stats()`` and ``planner_stats()`` read the
  service's own counts, so swapping the current registry mid-run (the
  chaos-cell double recovery) changes none of them.

Plus ``collect_statistics``: what it stores is the sampled deployment's
own traffic, whatever else ran in the process-wide registry.
"""

import pytest

from repro.core.basestation import BaseStationOptimizer
from repro.harness import Strategy
from repro.harness.experiments import fig3_cells
from repro.harness.runner import run_workload_live
from repro.harness.tier1_sim import default_cost_model
from repro.obs import scoped
from repro.queries import fresh_qids
from repro.service import (
    OptimizerBackend,
    QueryPlanner,
    QueryService,
    TenantQuotas,
    TicketStatus,
)

from .sampled_statistics import collect_statistics

Q_LIGHT = "SELECT light FROM sensors WHERE light > 300 EPOCH DURATION 4096"
Q_LIGHT_VARIANT = "select LIGHT from sensors where 300 < light " \
                  "SAMPLE PERIOD 4096"
Q_TEMP = "SELECT temp FROM sensors WHERE temp > 10 EPOCH DURATION 4096"
Q_WIDE = "SELECT light, temp FROM sensors EPOCH DURATION 4096"
Q_NARROW = "SELECT light FROM sensors WHERE light > 900 EPOCH DURATION 8192"
Q_AVG = "SELECT AVG(temp) FROM sensors EPOCH DURATION 8192"


def make_service(**kwargs):
    optimizer = BaseStationOptimizer(default_cost_model(16, 3))
    return QueryService(OptimizerBackend(optimizer), **kwargs)


class TestExplain:
    def test_prices_before_admission(self):
        with scoped():
            service = make_service()
            report = service.explain(Q_LIGHT)
            assert report.action == "injected"
            assert report.cache_hit is False
            assert report.price.radio_s_per_epoch > 0
            assert report.price.joules_per_epoch > 0
            assert 0.0 < report.price.selectivity < 1.0
            assert report.would_shed is None
            assert report.quota_ok is True

    def test_is_read_only(self):
        """EXPLAIN leaves every piece of service state untouched."""
        with scoped():
            service = make_service()
            sid = service.open_session("alice", now_ms=0.0)
            service.submit(sid, Q_AVG, now_ms=1.0)

            qids_before = service.optimizer.qids.next_value
            table_before = service.optimizer.table.to_dict()
            stats_before = service.stats()
            for _ in range(3):
                service.explain(Q_LIGHT)
                service.explain(Q_AVG)  # a cache hit path, too
            assert service.optimizer.qids.next_value == qids_before
            assert service.optimizer.table.to_dict() == table_before
            # stats() covers cache hit/miss counters, registrations, and
            # the optimizer's synthetic table — all must be untouched.
            assert service.stats() == stats_before
            service.validate()

            # The next real submission is unaffected by the probes.
            ticket = service.submit(sid, Q_LIGHT, now_ms=2.0)
            assert ticket.status is TicketStatus.LIVE
            assert ticket.query.qid == qids_before

    def test_explain_then_submit_agree(self):
        """The predicted plan matches what admission actually does."""
        with scoped():
            service = make_service()
            sid = service.open_session("alice", now_ms=0.0)
            report = service.explain(Q_LIGHT)
            assert report.action == "injected"
            service.submit(sid, Q_LIGHT, now_ms=1.0)
            stats = service.stats()
            assert stats.injected_registrations == 1

            # Same canonical text again: EXPLAIN predicts a cache attach.
            again = service.explain(Q_LIGHT_VARIANT)
            assert again.action == "cache-attach"
            assert again.cache_hit is True
            assert again.marginal_radio_s_per_epoch == 0.0
            assert again.sharing_saving_radio_s_per_epoch == \
                again.standalone_radio_s_per_epoch

    def test_sharing_delta_against_live_set(self):
        """A query the live synthetic set absorbs prices at marginal 0."""
        with scoped():
            service = make_service()
            sid = service.open_session("alice", now_ms=0.0)
            service.submit(sid, Q_LIGHT, now_ms=1.0)
            # Strictly contained predicate at a multiple epoch: Algorithm 1
            # absorbs it into the running synthetic query.
            report = service.explain(
                "SELECT light FROM sensors WHERE light > 500 "
                "EPOCH DURATION 8192")
            assert report.action == "absorbed"
            assert report.injected is False
            assert report.synthetic_before == report.synthetic_after
            assert report.marginal_radio_s_per_epoch == 0.0
            assert report.sharing_saving_radio_s_per_epoch == pytest.approx(
                report.standalone_radio_s_per_epoch)

    def test_counts_explains(self):
        with scoped():
            service = make_service()
            service.explain(Q_LIGHT)
            service.explain(Q_TEMP)
            assert service.planner_stats().explains == 2

    def test_works_on_closed_service(self):
        with scoped():
            service = make_service()
            service.shutdown(now_ms=0.0)
            assert service.explain(Q_LIGHT).price.radio_s_per_epoch > 0


class TestQuotas:
    def test_over_budget_submission_is_shed(self):
        with scoped():
            service = make_service(
                quotas=TenantQuotas(default_radio_s_per_epoch=0.15))
            sid = service.open_session("alice", now_ms=0.0)
            first = service.submit(sid, Q_LIGHT, now_ms=1.0)
            assert first.status is TicketStatus.LIVE

            report = service.explain(Q_TEMP, session_id=sid)
            assert report.quota_ok is False
            assert report.would_shed.startswith("quota:")

            second = service.submit(sid, Q_TEMP, now_ms=2.0)
            assert second.status is TicketStatus.SHED
            assert second.error.startswith("quota:")
            assert service.planner_stats().quota_rejections == 1
            # Quota rejections are a tenant-budget verdict, not an
            # overload event: resilience.shed stays untouched.
            res = service.resilience_stats()
            assert res.shed_best_effort == 0
            assert res.shed_reliable == 0

    def test_terminate_releases_spend(self):
        with scoped():
            service = make_service(
                quotas=TenantQuotas(default_radio_s_per_epoch=0.15))
            sid = service.open_session("alice", now_ms=0.0)
            first = service.submit(sid, Q_LIGHT, now_ms=1.0)
            assert service.submit(sid, Q_TEMP, now_ms=2.0).status is \
                TicketStatus.SHED
            service.terminate(sid, first.ticket_id, now_ms=3.0)
            retry = service.submit(sid, Q_TEMP, now_ms=4.0)
            assert retry.status is TicketStatus.LIVE

    def test_per_client_budget_overrides_default(self):
        with scoped():
            service = make_service(quotas=TenantQuotas(
                default_radio_s_per_epoch=10.0,
                per_client={"cheapskate": 1e-6}))
            sid_a = service.open_session("alice", now_ms=0.0)
            sid_c = service.open_session("cheapskate", now_ms=0.0)
            assert service.submit(sid_a, Q_LIGHT, now_ms=1.0).status is \
                TicketStatus.LIVE
            shed = service.submit(sid_c, Q_TEMP, now_ms=2.0)
            assert shed.status is TicketStatus.SHED
            assert "cheapskate" in shed.error

    def test_unlimited_by_default(self):
        with scoped():
            service = make_service()
            sid = service.open_session("alice", now_ms=0.0)
            for text in (Q_LIGHT, Q_TEMP, Q_WIDE, Q_NARROW, Q_AVG):
                assert service.submit(sid, text, now_ms=1.0).status is \
                    TicketStatus.LIVE
            report = service.explain(Q_LIGHT, session_id=sid)
            assert report.quota_budget is None
            assert report.quota_ok is True

    def test_quota_spend_tracks_live_cost_gauge(self):
        with scoped():
            service = make_service(
                quotas=TenantQuotas(default_radio_s_per_epoch=10.0))
            sid = service.open_session("alice", now_ms=0.0)
            service.submit(sid, Q_LIGHT, now_ms=1.0)
            service.submit(sid, Q_TEMP, now_ms=2.0)
            stats = service.planner_stats()
            report = service.explain(Q_AVG, session_id=sid)
            assert report.quota_spent_radio_s == pytest.approx(
                stats.live_cost_radio_s)

    def test_invalid_budgets_rejected(self):
        with pytest.raises(ValueError):
            TenantQuotas(default_radio_s_per_epoch=0.0)
        with pytest.raises(ValueError):
            TenantQuotas(per_client={"alice": -1.0})


class TestPlannerOverrides:
    def test_custom_planner_calibration_scales_prices(self):
        with scoped():
            optimizer = BaseStationOptimizer(default_cost_model(16, 3))
            base = QueryService(OptimizerBackend(optimizer))
            plain = base.explain(Q_LIGHT).price.radio_s_per_epoch
        with scoped():
            optimizer = BaseStationOptimizer(default_cost_model(16, 3))
            planner = QueryPlanner(optimizer.cost_model, calibration=2.0)
            doubled = QueryService(OptimizerBackend(optimizer),
                                   planner=planner)
            assert doubled.explain(Q_LIGHT).price.radio_s_per_epoch == \
                pytest.approx(2.0 * plain)

    def test_calibration_must_be_positive(self):
        optimizer = BaseStationOptimizer(default_cost_model(16, 3))
        with pytest.raises(ValueError):
            QueryPlanner(optimizer.cost_model, calibration=0.0)


class TestStatsAcrossRegistrySwaps:
    def test_swapping_the_registry_keeps_every_view(self):
        """Chaos cells that recover twice swap the current registry
        mid-run.  A service's counts are its own fields, so every
        ``*stats()`` view reads the same before and after, and keeps
        counting from there."""
        with scoped():
            service = make_service(
                quotas=TenantQuotas(per_client={"mallory": 1e-6}))
            alice = service.open_session("alice", now_ms=0.0)
            service.submit(alice, Q_LIGHT, now_ms=1.0)
            service.explain(Q_TEMP)
            mallory = service.open_session("mallory", now_ms=2.0)
            service.submit(mallory, Q_WIDE, now_ms=3.0)

            def views():
                return (service.stats(), service.resilience_stats(),
                        service.planner_stats())

            before = views()
            assert before[0].submissions_total == 2
            assert before[2].explains == before[2].quota_rejections == 1
        with scoped():
            assert views() == before
            service.submit(alice, Q_TEMP, now_ms=4.0)
            assert service.stats().submissions_total == 3


class TestExplainQidHygiene:
    def test_probe_qid_never_leaks_into_submissions(self):
        """The qid stream with EXPLAINs interleaved is byte-identical to
        the stream without them (WAL replay determinism)."""

        def run(explain_between):
            with scoped(), fresh_qids():
                service = make_service()
                sid = service.open_session("alice", now_ms=0.0)
                qids = []
                for text in (Q_LIGHT, Q_AVG, Q_TEMP):
                    if explain_between:
                        # Aggregation probes mint synthetic-merge qids
                        # inside the what-if registration.
                        service.explain(Q_AVG)
                        service.explain(text)
                    ticket = service.submit(sid, text, now_ms=1.0)
                    qids.append(service.ticket(ticket.ticket_id).query.qid)
                return qids

        plain, probed = run(False), run(True)
        assert plain == probed
        assert all(qid < 1_000_000_000 for qid in probed)


class TestCollectStatistics:
    @staticmethod
    def _run(strategy):
        spec = fig3_cells("A", 4, duration_ms=9_000.0,
                          strategies=(strategy,))[0]
        with fresh_qids():
            return run_workload_live(spec.strategy, spec.workload.build(),
                                     spec.resolved_config(), spec.drain_ms)

    def test_statistics_are_per_simulation(self):
        with scoped():
            alone = collect_statistics(self._run(Strategy.TTMQO).deployment)
        with scoped():
            self._run(Strategy.BASELINE)
            shared = collect_statistics(self._run(Strategy.TTMQO).deployment)
        assert alone.frames["result"] > 0
        assert shared.to_json() == alone.to_json()
