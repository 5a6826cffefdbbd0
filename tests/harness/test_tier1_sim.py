"""Unit tests for the pure tier-1 workload simulator."""

import pytest

from repro.core.basestation import BaseStationOptimizer
from repro.harness.tier1_sim import default_cost_model, run_tier1
from repro.queries import fresh_qids
from repro.queries.ast import Query
from repro.queries.predicates import Interval, PredicateSet
from repro.workloads import dynamic_workload, fig4_query_model
from repro.workloads.spec import EventKind, Workload, WorkloadEvent


def _acq(lo, hi, epoch=8192):
    return Query.acquisition(["light"],
                             PredicateSet({"light": Interval(lo, hi)}), epoch)


class TestRunTier1:
    def test_identical_queries_full_benefit(self):
        """N identical queries cost as much as one: ratio -> (N-1)/N minus
        flood overhead."""
        cm = default_cost_model(64, 5)
        queries = [_acq(100, 600) for _ in range(8)]
        events = []
        for i, q in enumerate(queries):
            events.append(WorkloadEvent(1000.0 * i, i, EventKind.ARRIVE, q))
        horizon = 10_000_000.0
        for i, q in enumerate(queries):
            events.append(WorkloadEvent(horizon + i, 100 + i,
                                        EventKind.DEPART, q))
        stats = run_tier1(Workload(events, horizon + 100), cm, alpha=0.6)
        assert stats.benefit_ratio == pytest.approx(7 / 8, abs=0.02)
        assert stats.max_synthetic_count == 1

    def test_disjoint_queries_no_benefit(self):
        cm = default_cost_model(64, 5)
        q1 = _acq(0, 100, 8192)
        q2 = Query.acquisition(
            ["temp"], PredicateSet({"temp": Interval(90, 100)}), 12288)
        events = [
            WorkloadEvent(0.0, 0, EventKind.ARRIVE, q1),
            WorkloadEvent(100.0, 1, EventKind.ARRIVE, q2),
            WorkloadEvent(1_000_000.0, 2, EventKind.DEPART, q1),
            WorkloadEvent(1_000_100.0, 3, EventKind.DEPART, q2),
        ]
        stats = run_tier1(Workload(events, 1_000_200.0), cm, alpha=0.6)
        assert stats.benefit_ratio <= 0.02  # only flood overhead
        assert stats.max_synthetic_count == 2

    def test_benefit_ratio_grows_with_concurrency(self):
        cm = default_cost_model(64, 5)
        model = fig4_query_model()
        low = run_tier1(dynamic_workload(model, 64, 300, concurrency=8, seed=1),
                        cm, alpha=0.6)
        high = run_tier1(dynamic_workload(model, 64, 300, concurrency=40, seed=1),
                         cm, alpha=0.6)
        assert high.benefit_ratio > low.benefit_ratio + 0.15

    def test_stats_accounting_consistency(self):
        cm = default_cost_model(64, 5)
        wl = dynamic_workload(fig4_query_model(), 64, 200, concurrency=8, seed=3)
        stats = run_tier1(wl, cm, alpha=0.6)
        assert stats.operations_cost == pytest.approx(
            stats.network_operations * cm.flood_cost())
        assert 0.0 <= stats.absorption_rate <= 1.0
        assert stats.final_synthetic_count == 0  # workload fully terminates
        assert stats.user_cost_area > stats.synthetic_cost_area

    def test_flood_cost_positive_and_scales(self):
        small = default_cost_model(16, 3).flood_cost()
        large = default_cost_model(64, 5).flood_cost()
        assert 0 < small < large


def test_query_table_stays_consistent_through_a_fig4_replay():
    """The table's incremental counts match a full recount after every event.

    ``run_tier1`` trusts the counts the query table keeps as each event is
    applied; this replays Figure 4(a)'s busiest cell (64 nodes, 500
    queries, concurrency 48, alpha 0.6) and recounts the whole table after
    every arrival and departure, then checks the replay reached the same
    end state ``run_tier1`` reports.
    """
    with fresh_qids():
        workload = dynamic_workload(fig4_query_model(), 64, n_queries=500,
                                    concurrency=48, seed=1)
        cm = default_cost_model(64, 5)
        optimizer = BaseStationOptimizer(cm, alpha=0.6)
        optimizer.qids.claim(workload.max_qid())
        for event in workload.events:
            if event.kind is EventKind.ARRIVE:
                optimizer.register(event.query)
            else:
                optimizer.terminate(event.query.qid)
            optimizer.table.validate()
        stats = run_tier1(workload, cm, alpha=0.6)
    assert optimizer.network_operations == stats.network_operations
    assert optimizer.synthetic_count() == stats.final_synthetic_count
