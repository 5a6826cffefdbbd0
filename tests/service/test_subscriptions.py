"""Result subscriptions over a simulated deployment, and the acceptance
demo: ≥50 clients with duplicate queries, ≥80% of arrivals absorbed, yet
every subscribed client receives mapped results."""

import runpy
from pathlib import Path

import pytest

from repro.core.basestation.result_mapper import MappedAggregates, MappedRow
from repro.harness import Deployment, DeploymentConfig, Strategy
from repro.service import QueryService

EXAMPLE = (Path(__file__).resolve().parents[2] / "examples"
           / "service_gateway.py")


def run_demo(**kwargs):
    """The scripted-client loop of ``examples/service_gateway.py``."""
    return runpy.run_path(str(EXAMPLE))["run_demo"](**kwargs)


class TestSubscriptionsOverDeployment:
    @pytest.fixture(scope="class")
    def served(self):
        deployment = Deployment(Strategy.TTMQO, DeploymentConfig(side=3))
        sim = deployment.sim
        service = QueryService(deployment, clock=lambda: sim.now)
        a = service.open_session("acq-user")
        b = service.open_session("agg-user")
        queues = {}

        def connect():
            t_acq = service.submit(
                a, "SELECT light FROM sensors WHERE light > 100 "
                   "EPOCH DURATION 4096")
            t_agg = service.submit(
                b, "SELECT MAX(light) FROM sensors EPOCH DURATION 4096")
            queues["acq"] = service.subscribe(a, t_acq.ticket_id)
            queues["agg"] = service.subscribe(b, t_agg.ticket_id)

        sim.engine.schedule_at(500.0, connect)
        for t in range(4096, 30_000, 4096):
            sim.engine.schedule_at(float(t) + 10.0, service.pump)
        sim.start()
        sim.run_until(30_000.0)
        service.pump()
        return service, queues

    def test_acquisition_subscriber_gets_mapped_rows(self, served):
        _, queues = served
        rows = []
        while not queues["acq"].empty():
            rows.append(queues["acq"].get_nowait())
        assert rows, "no acquisition results delivered"
        for row in rows:
            assert isinstance(row, MappedRow)
            # Mapped to the *user* query: projected and re-filtered.
            assert set(row.values) == {"light"}
            assert row.values["light"] > 100

    def test_aggregation_subscriber_gets_aggregates(self, served):
        _, queues = served
        answers = []
        while not queues["agg"].empty():
            answers.append(queues["agg"].get_nowait())
        assert answers, "no aggregation results delivered"
        for answer in answers:
            assert isinstance(answer, MappedAggregates)
            assert len(answer.values) == 1

    def test_no_duplicate_epochs_across_pumps(self, served):
        service, _ = served
        before = service.stats().results_delivered
        assert service.pump() == 0  # everything already delivered once
        assert service.stats().results_delivered == before


@pytest.mark.slow
def test_acceptance_demo_fifty_clients():
    """ISSUE acceptance: ≥50 clients, ≥80% absorbed, everyone served."""
    report = run_demo(n_clients=50, n_unique=5, side=4, duration_s=40.0,
                      seed=3, batch_window_ms=500.0)
    stats = report.stats
    assert stats.admitted_total >= 50
    assert stats.absorbed_admission_rate >= 0.8
    assert stats.cache_hit_rate >= 0.8
    assert report.all_clients_served
    assert stats.admission_latency_p95_ms >= stats.admission_latency_p50_ms


def test_small_load_report_shape():
    """Fast smoke of the scripted load (the example's engine)."""
    report = run_demo(n_clients=12, n_unique=3, side=3, duration_s=20.0,
                      seed=1, batch_window_ms=300.0)
    stats = report.stats
    assert len(report.clients) == 12
    assert stats.admitted_total == 12
    assert stats.registrations <= 3
    assert stats.cache_hit_rate >= 0.7
    assert report.clients_served >= 10
    assert report.all_clients_served
