"""Tests for the QoS extension (reliable queries, multipath delivery)."""

import pytest

from repro.core.qos import QoSClass, QoSRegistry, strongest
from repro.harness import DeploymentConfig, Strategy
from repro.harness.failures import expected_rows, row_completeness
from repro.harness.strategies import Deployment
from repro.queries import parse_query
from repro.sim import MessageKind, RadioParams


class TestQoSClass:
    def test_strongest(self):
        assert strongest([]) is QoSClass.BEST_EFFORT
        assert strongest([QoSClass.BEST_EFFORT]) is QoSClass.BEST_EFFORT
        assert strongest([QoSClass.BEST_EFFORT,
                          QoSClass.RELIABLE]) is QoSClass.RELIABLE

    def test_multipath_flag(self):
        assert QoSClass.RELIABLE.multipath
        assert not QoSClass.BEST_EFFORT.multipath


class TestRegistry:
    def test_defaults_to_best_effort(self):
        registry = QoSRegistry()
        assert registry.user_class(42) is QoSClass.BEST_EFFORT
        assert registry.synthetic_class(42) is QoSClass.BEST_EFFORT

    def test_synthetic_derives_strongest_member(self):
        registry = QoSRegistry()
        registry.register_user(1, QoSClass.BEST_EFFORT)
        registry.register_user(2, QoSClass.RELIABLE)
        assert registry.derive_synthetic(100, [1]) is QoSClass.BEST_EFFORT
        assert registry.derive_synthetic(101, [1, 2]) is QoSClass.RELIABLE
        assert registry.reliable_qids() == {101}

    def test_forget(self):
        registry = QoSRegistry()
        registry.register_user(1, QoSClass.RELIABLE)
        registry.derive_synthetic(100, [1])
        registry.forget_synthetic(100)
        registry.forget_user(1)
        assert registry.reliable_qids() == set()

    def test_re_registering_best_effort_downgrades_the_user(self):
        registry = QoSRegistry()
        registry.register_user(1, QoSClass.RELIABLE)
        registry.register_user(1, QoSClass.BEST_EFFORT)
        assert registry.user_class(1) is QoSClass.BEST_EFFORT
        assert registry.derive_synthetic(100, [1]) is QoSClass.BEST_EFFORT

    def test_reset_rebuilds_the_reliable_set(self):
        registry = QoSRegistry()
        registry.register_user(1, QoSClass.RELIABLE)
        registry.derive_synthetic(100, [1])
        registry.reset({2: QoSClass.RELIABLE, 3: QoSClass.BEST_EFFORT})
        assert registry.reliable_qids() == set()
        assert registry.user_class(1) is QoSClass.BEST_EFFORT
        assert registry.user_class(2) is QoSClass.RELIABLE
        assert registry.user_class(3) is QoSClass.BEST_EFFORT
        assert registry.derive_synthetic(101, [1, 3]) is QoSClass.BEST_EFFORT
        assert registry.derive_synthetic(102, [2, 3]) is QoSClass.RELIABLE


class TestOptimizerIntegration:
    def test_reliability_propagates_through_merges(self, paper_cost_model):
        from repro.core.basestation import BaseStationOptimizer
        from repro.queries.predicates import Interval, PredicateSet

        optimizer = BaseStationOptimizer(paper_cost_model, alpha=0.6)

        def acq(lo, hi, epoch=4096):
            from repro.queries.ast import Query
            return Query.acquisition(
                ["light"], PredicateSet({"light": Interval(lo, hi)}), epoch)

        plain = acq(100, 300)
        critical = acq(150, 500)
        optimizer.register(plain, qos=QoSClass.BEST_EFFORT)
        optimizer.register(critical, qos=QoSClass.RELIABLE)
        # the pair merges (the paper's beneficial case); the synthetic
        # query must inherit RELIABLE
        assert optimizer.synthetic_count() == 1
        synthetic = optimizer.synthetic_queries()[0]
        assert optimizer.qos_registry.synthetic_class(
            synthetic.qid) is QoSClass.RELIABLE

        # terminating the critical member downgrades the synthetic query
        optimizer.terminate(critical.qid)
        remaining = optimizer.synthetic_queries()[0]
        assert optimizer.qos_registry.synthetic_class(
            remaining.qid) is QoSClass.BEST_EFFORT

    def test_only_the_last_reliable_member_leaving_downgrades(
            self, paper_cost_model):
        from repro.core.basestation import BaseStationOptimizer
        from repro.queries.ast import Query

        optimizer = BaseStationOptimizer(paper_cost_model, alpha=0.6)
        registry = optimizer.qos_registry
        members = [Query.acquisition(["light"], epoch_ms=4096)
                   for _ in range(4)]
        for query, qos in zip(members, [QoSClass.BEST_EFFORT,
                                        QoSClass.RELIABLE,
                                        QoSClass.RELIABLE,
                                        QoSClass.BEST_EFFORT]):
            optimizer.register(query, qos=qos)
        (synthetic,) = optimizer.synthetic_queries()
        assert registry.reliable_qids() == {synthetic.qid}
        optimizer.terminate(members[1].qid)
        assert registry.reliable_qids() == {synthetic.qid}
        optimizer.terminate(members[2].qid)
        assert registry.reliable_qids() == set()
        assert optimizer.synthetic_count() == 1


class TestMultipathDelivery:
    def _run(self, qos, loss_rate=0.25, seed=19):
        config = DeploymentConfig(
            side=5, seed=seed, radio_params=RadioParams(loss_rate=loss_rate))
        deployment = Deployment(Strategy.INNET_ONLY, config)
        sim = deployment.sim
        sim.start()
        query = parse_query("SELECT light FROM sensors EPOCH DURATION 4096")
        sim.engine.schedule_at(300.0, deployment.register, query, qos)
        sim.run_until(80_000.0)
        epochs = [t for t in deployment.results.row_epochs(query.qid)
                  if 8_000.0 < t < 76_000.0]
        expected = expected_rows(query, deployment.world, deployment.topology,
                                 epochs)
        received = [(r.epoch_time, r.origin)
                    for t in epochs
                    for r in deployment.results.rows(query.qid, t)]
        return (row_completeness(received, expected),
                sim.trace.total_transmissions([MessageKind.RESULT]))

    def test_reliable_improves_completeness_under_loss(self):
        best_effort = [self._run(QoSClass.BEST_EFFORT, seed=s)[0]
                       for s in (19, 20, 21)]
        reliable = [self._run(QoSClass.RELIABLE, seed=s)[0]
                    for s in (19, 20, 21)]
        assert sum(reliable) >= sum(best_effort)
        assert sum(reliable) / 3 > 0.97

    def test_reliable_costs_more_frames(self):
        _, frames_best = self._run(QoSClass.BEST_EFFORT, loss_rate=0.0)
        _, frames_reliable = self._run(QoSClass.RELIABLE, loss_rate=0.0)
        assert frames_reliable > frames_best * 1.2

    def test_best_effort_unaffected_by_extension(self):
        """With QoS off (default), behaviour must equal the pre-extension
        system: no duplicate frames."""
        completeness, frames = self._run(QoSClass.BEST_EFFORT, loss_rate=0.0)
        assert completeness == pytest.approx(1.0, abs=0.02)
