"""Overload protection: shedding, deadlines, breaker, bounded queues."""

import pytest

from repro.core.basestation import BaseStationOptimizer
from repro.core.qos import QoSClass
from repro.harness.strategies import Deployment, DeploymentConfig, Strategy
from repro.harness.tier1_sim import default_cost_model
from repro.service import (
    BreakerState,
    CircuitBreaker,
    OptimizerBackend,
    OverloadConfig,
    QueryService,
    TicketStatus,
)

Q_LIGHT = "SELECT light FROM sensors WHERE light > 300 EPOCH DURATION 4096"
Q_TEMP = "SELECT temp FROM sensors WHERE temp > 10 EPOCH DURATION 8192"
Q_MAX = "SELECT MAX(light) FROM sensors EPOCH DURATION 8192"
POOL = (Q_LIGHT, Q_TEMP, Q_MAX,
        "SELECT MIN(temp) FROM sensors EPOCH DURATION 8192",
        "SELECT AVG(light) FROM sensors EPOCH DURATION 8192")


def make_service(**kwargs):
    optimizer = BaseStationOptimizer(default_cost_model(16, 3))
    return QueryService(OptimizerBackend(optimizer), **kwargs)


class FailingBackend:
    """Backend whose full registration path always blows up."""

    def __init__(self):
        self._inner = OptimizerBackend(
            BaseStationOptimizer(default_cost_model(16, 3)))
        self.optimizer = self._inner.optimizer
        self.results = None
        self.register_failures = 0

    def register(self, query, qos=QoSClass.BEST_EFFORT):
        self.register_failures += 1
        raise RuntimeError("optimizer melted down")

    def register_passthrough(self, query, qos=QoSClass.BEST_EFFORT):
        self._inner.register_passthrough(query, qos=qos)

    def terminate(self, qid):
        self._inner.terminate(qid)


# ----------------------------------------------------------------------
# Load shedding
# ----------------------------------------------------------------------
class TestShedding:
    def test_backlog_sheds_best_effort(self):
        service = make_service(
            batch_window_ms=1000.0,
            overload=OverloadConfig(shed_backlog_best_effort=2))
        sid = service.open_session("alice", now_ms=0.0)
        t1 = service.submit(sid, POOL[0], now_ms=1.0)
        t2 = service.submit(sid, POOL[1], now_ms=2.0)
        t3 = service.submit(sid, POOL[2], now_ms=3.0)
        assert t1.status is TicketStatus.PENDING
        assert t2.status is TicketStatus.PENDING
        assert t3.status is TicketStatus.SHED
        assert "backlog" in t3.error
        assert service.resilience_stats().shed_best_effort == 1

    def test_reliable_rides_to_higher_threshold(self):
        service = make_service(
            batch_window_ms=1000.0,
            overload=OverloadConfig(shed_backlog_best_effort=1,
                                    shed_backlog_reliable=3))
        sid = service.open_session("alice", now_ms=0.0)
        service.submit(sid, POOL[0], now_ms=1.0)
        shed = service.submit(sid, POOL[1], now_ms=2.0)
        kept = service.submit(sid, POOL[2], now_ms=3.0,
                              qos=QoSClass.RELIABLE)
        assert shed.status is TicketStatus.SHED
        assert kept.status is TicketStatus.PENDING
        res = service.resilience_stats()
        assert res.shed_best_effort == 1 and res.shed_reliable == 0

    def test_shed_ticket_never_reaches_optimizer(self):
        service = make_service(
            batch_window_ms=1000.0,
            overload=OverloadConfig(shed_backlog_best_effort=1))
        sid = service.open_session("alice", now_ms=0.0)
        service.submit(sid, POOL[0], now_ms=1.0)
        service.submit(sid, POOL[1], now_ms=2.0)  # shed
        service.flush(now_ms=10.0)
        assert service.optimizer.user_count() == 1
        service.validate()

    def test_latency_brake_sheds_best_effort_only(self):
        service = make_service(
            batch_window_ms=100.0,
            overload=OverloadConfig(shed_latency_p95_ms=50.0))
        sid = service.open_session("alice", now_ms=0.0)
        service.submit(sid, POOL[0], now_ms=0.0)
        service.flush(now_ms=200.0)  # observed latency: 200 ms > budget
        shed = service.submit(sid, POOL[1], now_ms=300.0)
        assert shed.status is TicketStatus.SHED
        assert "p95" in shed.error
        reliable = service.submit(sid, POOL[2], now_ms=301.0,
                                  qos=QoSClass.RELIABLE)
        assert reliable.status is TicketStatus.PENDING

    def test_submit_deadline_sheds_at_flush(self):
        service = make_service(
            batch_window_ms=5000.0,
            overload=OverloadConfig(submit_deadline_ms=100.0))
        sid = service.open_session("alice", now_ms=0.0)
        stale = service.submit(sid, POOL[0], now_ms=0.0)
        fresh = service.submit(sid, POOL[1], now_ms=5900.0)
        service.flush(now_ms=6000.0)
        assert stale.status is TicketStatus.SHED
        assert "deadline" in stale.error
        assert fresh.status is TicketStatus.LIVE
        res = service.resilience_stats()
        assert res.deadline_shed == 1
        assert res.shed_total == 1


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def test_unit_transitions(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown_ms=1000.0)
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure(now_ms=0.0)
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure(now_ms=1.0)
        assert breaker.state is BreakerState.OPEN
        assert breaker.opens_total == 1
        assert not breaker.allow_full(now_ms=500.0)
        assert breaker.allow_full(now_ms=1500.0)  # half-open trial
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_failure(now_ms=1600.0)  # trial failed: reopen
        assert breaker.state is BreakerState.OPEN
        assert breaker.opens_total == 2
        assert breaker.allow_full(now_ms=2700.0)
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED

    def test_breaker_falls_back_to_passthrough(self):
        backend = FailingBackend()
        service = QueryService(
            backend,
            overload=OverloadConfig(breaker_failure_threshold=2,
                                    breaker_cooldown_ms=10_000.0))
        sid = service.open_session("alice", now_ms=0.0)
        # Two full-path failures open the breaker; those tickets FAIL.
        f1 = service.submit(sid, POOL[0], now_ms=1.0)
        f2 = service.submit(sid, POOL[1], now_ms=2.0)
        assert f1.status is TicketStatus.FAILED
        assert f2.status is TicketStatus.FAILED
        res = service.resilience_stats()
        assert res.breaker_state == "open" and res.breaker_opens == 1
        # Degraded, never down: admission continues via passthrough.
        t3 = service.submit(sid, POOL[2], now_ms=3.0)
        assert t3.status is TicketStatus.LIVE
        assert service.resilience_stats().passthrough_registrations == 1
        assert backend.register_failures == 2  # full path not retried
        service.validate()

    def test_breaker_half_open_recloses_on_success(self):
        backend = FailingBackend()
        service = QueryService(
            backend,
            overload=OverloadConfig(breaker_failure_threshold=1,
                                    breaker_cooldown_ms=1000.0))
        sid = service.open_session("alice", now_ms=0.0)
        service.submit(sid, POOL[0], now_ms=1.0)  # opens the breaker
        backend.register = backend._inner.register  # backend heals
        ticket = service.submit(sid, POOL[1], now_ms=2000.0)  # trial
        assert ticket.status is TicketStatus.LIVE
        assert not ticket.cache_hit
        assert service.resilience_stats().breaker_state == "closed"

    def test_passthrough_skips_merging(self):
        backend = FailingBackend()
        service = QueryService(
            backend,
            overload=OverloadConfig(breaker_failure_threshold=1))
        sid = service.open_session("alice", now_ms=0.0)
        service.submit(sid, POOL[0], now_ms=1.0)  # opens the breaker
        # Two highly mergeable queries, admitted degraded: each becomes
        # its own 1:1 synthetic query (no Algorithm 1).
        service.submit(sid, Q_LIGHT, now_ms=2.0)
        service.submit(sid, "SELECT light FROM sensors WHERE light > 350 "
                            "EPOCH DURATION 4096", now_ms=3.0)
        assert service.optimizer.user_count() == 2
        assert service.optimizer.synthetic_count() == 2
        service.validate()


# ----------------------------------------------------------------------
# Bounded subscriber queues
# ----------------------------------------------------------------------
def _deployed_service(duration_ms):
    config = DeploymentConfig(side=3, seed=11)
    deployment = Deployment(Strategy.TTMQO, config)
    sim = deployment.sim
    service = QueryService(deployment, default_ttl_ms=duration_ms * 10.0,
                           clock=lambda: sim.now)
    return deployment, sim, service


class TestBoundedSubscriberQueues:
    def test_slow_consumer_drops_are_counted(self):
        deployment, sim, service = _deployed_service(20_000.0)
        queues = {}

        def _connect() -> None:
            sid = service.open_session("alice")
            ticket = service.submit(sid, Q_LIGHT)
            queues["tiny"] = service.subscribe(
                sid, ticket.ticket_id, maxsize=1)
            queues["roomy"] = service.subscribe(
                sid, ticket.ticket_id, maxsize=0)

        sim.engine.schedule_at(1000.0, _connect)
        sim.start()
        sim.run_until(20_000.0)
        service.pump()
        tiny, roomy = queues["tiny"], queues["roomy"]
        # Both queues were offered the same stream; only the bounded
        # one shed, and it shed the newest items.
        assert roomy.qsize() > 1
        assert tiny.qsize() == 1
        drops = service.resilience_stats().subscriber_drops
        assert drops == roomy.qsize() - tiny.qsize()

    def test_default_bound_comes_from_overload_config(self):
        config = DeploymentConfig(side=3, seed=11)
        deployment = Deployment(Strategy.TTMQO, config)
        service = QueryService(
            deployment, clock=lambda: deployment.sim.now,
            overload=OverloadConfig(subscriber_queue_maxsize=7))
        sid = service.open_session("alice")
        ticket = service.submit(sid, Q_LIGHT)
        subscriber = service.subscribe(sid, ticket.ticket_id)
        assert subscriber.maxsize == 7

    def test_optimizer_backend_rejects_subscriptions(self):
        service = make_service()
        sid = service.open_session("alice", now_ms=0.0)
        ticket = service.submit(sid, Q_LIGHT, now_ms=0.0)
        with pytest.raises(ValueError, match="result log"):
            service.subscribe(sid, ticket.ticket_id)


# ----------------------------------------------------------------------
# Automatic lease sweep
# ----------------------------------------------------------------------
class TestLeaseSweep:
    def test_tick_expires_lapsed_leases(self):
        service = make_service(default_ttl_ms=1000.0)
        sid = service.open_session("alice", now_ms=0.0)
        ticket = service.submit(sid, Q_LIGHT, now_ms=0.0)
        assert ticket.status is TicketStatus.LIVE
        service.tick(now_ms=2000.0)  # no explicit expire_leases() call
        assert ticket.status is TicketStatus.EXPIRED
        assert service.stats().sessions_open == 0
        assert service.optimizer.user_count() == 0
        service.validate()

    def test_pump_expires_lapsed_leases(self):
        service = make_service(default_ttl_ms=1000.0)
        sid = service.open_session("alice", now_ms=0.0)
        ticket = service.submit(sid, Q_LIGHT, now_ms=0.0)
        assert service.pump(now_ms=2000.0) == 0  # no result log: push-free
        assert ticket.status is TicketStatus.EXPIRED
        assert service.stats().sessions_open == 0

    def test_explicit_expire_stays_idempotent(self):
        service = make_service(default_ttl_ms=1000.0)
        service.open_session("alice", now_ms=0.0)
        service.tick(now_ms=2000.0)
        assert service.expire_leases(now_ms=2000.0) == []
        assert service.expire_leases(now_ms=3000.0) == []


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------
class TestOverloadConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            OverloadConfig(subscriber_queue_maxsize=-1)
        with pytest.raises(ValueError):
            OverloadConfig(shed_backlog_best_effort=0)
        with pytest.raises(ValueError):
            OverloadConfig(breaker_failure_threshold=0)
        with pytest.raises(ValueError):
            OverloadConfig(submit_deadline_ms=-1.0)

    def test_reliable_falls_back_to_best_effort_threshold(self):
        config = OverloadConfig(shed_backlog_best_effort=5)
        assert config.backlog_threshold(QoSClass.RELIABLE) == 5
        assert config.backlog_threshold(QoSClass.BEST_EFFORT) == 5
        assert OverloadConfig().backlog_threshold(QoSClass.RELIABLE) is None
