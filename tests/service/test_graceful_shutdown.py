"""Graceful shutdown of a durable service over a simulated deployment."""

from repro.harness import Deployment, DeploymentConfig, Strategy
from repro.service import DurabilityConfig, QueryService, SnapshotStore
from repro.service.load import _QUERY_POOL

TERMINAL = {"terminated", "expired", "failed", "shed"}


def _no_zombies(state_dir):
    snapshot = SnapshotStore.load(
        DurabilityConfig(directory=str(state_dir)).snapshot_path)
    assert snapshot is not None
    statuses = {t["status"] for t in snapshot["tickets"]}
    assert statuses <= TERMINAL, statuses
    table = snapshot["optimizer"]["table"]
    assert not table["user"]
    assert not table["synthetic"]
    return snapshot


class TestGracefulShutdown:
    def test_state_dir_run_ends_at_a_clean_recovery_point(self, tmp_path):
        # Ten clients over four questions arrive through the run's first
        # 40% while the batch window ticks; shutdown() then ends it.
        deployment = Deployment(Strategy.TTMQO,
                                DeploymentConfig(side=3, seed=4))
        sim = deployment.sim
        service = QueryService(
            deployment, batch_window_ms=500.0, clock=lambda: sim.now,
            durability=DurabilityConfig(directory=str(tmp_path),
                                        snapshot_every_ops=32))

        def connect(index):
            session_id = service.open_session(f"client-{index:03d}")
            ticket = service.submit(session_id, _QUERY_POOL[index % 4])
            service.subscribe(session_id, ticket.ticket_id)

        for index in range(10):
            sim.engine.schedule_at(1000.0 + index * 480.0, connect, index)
        for step in range(22):
            sim.engine.schedule_at(1499.5 + step * 500.0, service.tick)
        try:
            sim.start()
            sim.run_until(16000.0)
            service.flush()
            service.pump()
            assert service.stats().live_tickets > 0
            terminated = service.shutdown()
            resilience = service.resilience_stats()
        finally:
            deployment.close()
        assert len(terminated) > 0
        assert resilience.wal_records > 0
        assert resilience.snapshots >= 1
        _no_zombies(tmp_path)
