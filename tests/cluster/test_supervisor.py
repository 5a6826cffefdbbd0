"""Shard supervision: failure detection, backoff restarts, healing.

All tests drive :meth:`ShardSupervisor.poll` from a virtual clock so
detection deadlines and backoff schedules are exact; the wall-clock
thread (:meth:`start`) is the same loop on a timer.
"""

import pytest

from repro.cluster import (
    ClusterCoordinator,
    FieldPartition,
    ShardDownError,
    ShardSupervisor,
    SupervisorConfig,
)
from repro.core.basestation import BaseStationOptimizer
from repro.harness.tier1_sim import default_cost_model
from repro.service import OptimizerBackend, QueryService
from tests.chaos.driver import ClusterChaosCellSpec, run_degraded_merge_probe

Q_GLOBAL = "SELECT light FROM sensors WHERE light > 300 EPOCH DURATION 4096"
Q_BAND1 = ("SELECT temp FROM sensors WHERE nodeid BETWEEN 32 AND 63 "
           "EPOCH DURATION 4096")


def make_backends(k, nodes=16, depth=3):
    return [OptimizerBackend(BaseStationOptimizer(
        default_cost_model(nodes, depth))) for _ in range(k)]


def make_supervised(tmp_path, clock, *, backends=None, config=None,
                    **supervisor_kwargs):
    backends = backends or make_backends(2)
    coordinator = ClusterCoordinator(
        backends, partition=FieldPartition(8, 2),
        clock=lambda: clock["t"], durability_dir=tmp_path)
    supervisor = ShardSupervisor(
        coordinator,
        config=config or SupervisorConfig(deadline_ms=100.0,
                                          restart_backoff_ms=50.0),
        durability_dir=tmp_path, clock=lambda: clock["t"],
        **supervisor_kwargs)
    return coordinator, supervisor


class TestDetection:
    def test_healthy_shards_never_alarm(self, tmp_path):
        clock = {"t": 0.0}
        coordinator, supervisor = make_supervised(tmp_path, clock)
        for step in range(10):
            clock["t"] = step * 50.0
            assert supervisor.poll() == []
        assert supervisor.incidents == []
        assert not coordinator.down_shards
        # The wall-clock thread is that loop on a timer; stop() ends it.
        supervisor.start()
        thread = supervisor._thread
        supervisor.stop()
        assert not thread.is_alive()
        assert supervisor.incidents == []

    def test_detects_only_after_the_deadline(self, tmp_path):
        clock = {"t": 0.0}
        coordinator, supervisor = make_supervised(tmp_path, clock)
        supervisor.poll()  # last_ok = 0 for both shards
        coordinator.shard_services()[1].simulate_crash()
        clock["t"] = 50.0
        assert supervisor.poll() == []  # within the grace deadline
        assert not coordinator.down_shards
        clock["t"] = 150.0
        detected = supervisor.poll()
        assert [i.shard_id for i in detected] == [1]
        assert detected[0].time_to_detect_ms == 150.0
        assert coordinator.down_shards == (1,)


class TestRecovery:
    def test_restarts_from_shard_wal_and_heals_fanout(self, tmp_path):
        clock = {"t": 0.0}
        coordinator, supervisor = make_supervised(tmp_path, clock)
        sid = coordinator.open_session("alice", now_ms=0.0)
        fanout = coordinator.submit(sid, Q_GLOBAL, now_ms=1.0)
        supervisor.poll()
        coordinator.shard_services()[1].simulate_crash()

        clock["t"] = 150.0
        assert len(supervisor.poll()) == 1  # detected, down-routed
        with pytest.raises(ShardDownError):
            coordinator.submit(sid, Q_BAND1, now_ms=151.0)

        clock["t"] = 210.0  # past detected + restart_backoff
        supervisor.poll()
        assert 1 in supervisor.recovered
        assert not coordinator.down_shards
        (incident,) = supervisor.incidents
        assert incident.mode == "recover"
        assert incident.time_to_detect_ms == 150.0
        assert incident.time_to_recover_ms == 60.0
        assert not incident.abandoned

        # The healed shard serves again, and the fan-out anchor's
        # subticket on it is live once more.
        band = coordinator.submit(sid, Q_BAND1, now_ms=211.0)
        assert band.targets == (1,)
        assert not coordinator.ticket(fanout.ticket_id).terminated
        assert len(
            coordinator.shard_services()[1].live_tickets()) == 2
        coordinator.validate()

    def test_backoff_doubles_then_abandons(self, tmp_path):
        clock = {"t": 0.0}
        attempts = []

        def bad_restarter():
            attempts.append(clock["t"])
            raise RuntimeError("still broken")

        coordinator, supervisor = make_supervised(
            tmp_path, clock,
            config=SupervisorConfig(deadline_ms=100.0,
                                    restart_backoff_ms=50.0,
                                    max_backoff_ms=1000.0,
                                    max_restarts=3),
            restarters={1: bad_restarter})
        supervisor.poll()
        coordinator.shard_services()[1].simulate_crash()
        for step in range(1, 200):
            clock["t"] = step * 10.0
            supervisor.poll()
        assert len(attempts) == 3, "abandonment must stop the cycle"
        # Detected at 100 (the deadline); attempts at +50, then
        # +100, then +200 — exponential backoff, doubling.
        assert attempts == [150.0, 250.0, 450.0]
        (incident,) = supervisor.incidents
        assert incident.abandoned
        assert incident.attempts == 3
        assert incident.recovered_ms is None
        # The shard stays routed around, awaiting the operator.
        assert coordinator.down_shards == (1,)

    def test_standby_promotion_is_preferred(self, tmp_path):
        promoted = []

        class StubStandby:
            """Stands in for StandbyServer: promote() recovers a state
            directory it has been replicating (here: the shard's own)."""

            def __init__(self, state_dir):
                self.state_dir = state_dir

            def promote(self, backend, **kwargs):
                promoted.append(self.state_dir)
                return QueryService.recover(backend, self.state_dir,
                                            **kwargs)

        clock = {"t": 0.0}
        coordinator, supervisor = make_supervised(
            tmp_path, clock,
            standbys={1: StubStandby(tmp_path / "shard-01")})
        sid = coordinator.open_session("alice", now_ms=0.0)
        coordinator.submit(sid, Q_GLOBAL, now_ms=1.0)
        supervisor.poll()
        coordinator.shard_services()[1].simulate_crash()
        clock["t"] = 150.0
        supervisor.poll()
        clock["t"] = 210.0
        supervisor.poll()
        assert promoted == [tmp_path / "shard-01"]
        (incident,) = supervisor.incidents
        assert incident.mode == "promote"
        assert not coordinator.down_shards
        coordinator.validate()

    def test_external_heal_closes_the_incident(self, tmp_path):
        clock = {"t": 0.0}
        coordinator, supervisor = make_supervised(tmp_path, clock)
        supervisor.poll()
        coordinator.shard_services()[1].simulate_crash()
        clock["t"] = 150.0
        assert len(supervisor.poll()) == 1
        # An operator replaces the shard behind the supervisor's
        # back; the next poll sees a healthy probe and closes the
        # incident instead of restarting anything.
        replacement = QueryService.recover(
            coordinator.shard_backends()[1], tmp_path / "shard-01")
        coordinator.replace_shard_service(1, replacement,
                                          now_ms=160.0)
        clock["t"] = 170.0
        supervisor.poll()
        (incident,) = supervisor.incidents
        assert incident.mode == "external"
        assert incident.recovered_ms == 170.0


class TestDegradedMerge:
    def test_completeness_tracks_surviving_fraction(self):
        """One of two simulated shards dies mid-run: merged epochs carry
        completeness 0.5 during the outage and heal back to 1.0."""
        probe = run_degraded_merge_probe(seed=3, n_epochs=8)
        assert probe["bound_held"], probe
        assert probe["degraded_epochs"] >= 1
        assert probe["crash"]["min_completeness"] == 0.5
        assert probe["crash"]["healed"]
        assert all(value == 1.0
                   for value in probe["baseline"]["completeness"])
        assert probe["crash"]["incidents"], "supervisor never engaged"


class TestClusterChaosCells:
    @pytest.mark.parametrize("kill", ["shard", "coordinator"])
    def test_cell_holds_all_invariants(self, kill):
        result = ClusterChaosCellSpec(kill=kill, n_steps=18, seed=5).run()
        assert result.lost_acked == 0
        assert result.zombies == 0
        assert result.acked_crash == result.acked_baseline
        assert not result.failures, result.failures
        assert result.ok
        if kill == "shard":
            assert result.detect_ms > 0
            assert result.recovery_mode == "recover"
        else:
            assert result.recovery_mode == "root-wal"
            assert result.replayed_ops > 0

    def test_smoke_grid_holds_every_invariant(self):
        """Both kills at the derived seeds: the supervisor heals a shard
        from its WAL, the root comes back from the root WAL."""
        for kill, mode in (("shard", "recover"), ("coordinator", "root-wal")):
            result = ClusterChaosCellSpec(kill=kill, n_steps=24).run()
            assert result.ok, (kill, result)
            assert result.recovery_mode == mode
            assert result.replayed_ops > 0
