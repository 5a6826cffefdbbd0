"""Service-tier crash tests: chaos cells, SIGKILL recovery, reconciliation.

The driver lives in ``tests/chaos/driver.py``; the cluster tier's cells
are in ``tests/cluster/test_supervisor.py``.
"""

from repro.harness.cells import canonical_cell_dict, derive_seed
from repro.harness.strategies import Deployment, DeploymentConfig, Strategy
from repro.service import DurabilityConfig, QueryService
from tests.chaos.driver import (ChaosCellSpec, chaos_grid, run_sigkill_crash,
                                zombie_count)

Q_LIGHT = "SELECT light FROM sensors WHERE light > 300 EPOCH DURATION 4096"

SMALL = dict(n_clients=6, n_unique=3, side=3, duration_s=8.0,
             batch_window_ms=256.0, snapshot_every_ops=4)


class TestChaosCell:
    def test_crash_cell_holds_all_invariants(self):
        spec = ChaosCellSpec(loss_rate=0.0, crash_fraction=0.45, **SMALL)
        result = spec.run()
        assert result.crashed
        assert not result.failures, result.failures
        assert result.zombies == 0
        assert result.lost_acked == 0
        assert result.completeness_gap <= result.completeness_bound
        assert result.wal_records > 0
        assert result.replayed_ops > 0
        assert result.ok

    def test_crash_cell_under_loss_holds_invariants(self):
        spec = ChaosCellSpec(loss_rate=0.15, crash_fraction=0.45, **SMALL)
        result = spec.run()
        assert not result.failures, result.failures
        assert result.zombies == 0
        assert result.ok

    def test_control_cell_never_crashes(self):
        spec = ChaosCellSpec(loss_rate=0.0, crash_fraction=0.0, **SMALL)
        result = spec.run()
        assert not result.crashed
        assert result.completeness_gap == 0.0
        assert result.ok

    def test_seed_is_stable_and_content_derived(self):
        a = ChaosCellSpec(loss_rate=0.1, crash_fraction=0.45)
        b = ChaosCellSpec(loss_rate=0.1, crash_fraction=0.45)
        c = ChaosCellSpec(loss_rate=0.2, crash_fraction=0.45)
        assert a.resolved_seed() == b.resolved_seed() == derive_seed(a)
        assert a.resolved_seed() != c.resolved_seed()
        assert canonical_cell_dict(a)["__cell__"] == "ChaosCellSpec"

    def test_grid_covers_the_cross_product(self):
        grid = chaos_grid(loss_rates=(0.0, 0.1), crash_fractions=(0.0, 0.45))
        assert len(grid) == 4
        assert {(cell.loss_rate, cell.crash_fraction) for cell in grid} == {
            (0.0, 0.0), (0.0, 0.45), (0.1, 0.0), (0.1, 0.45)}

    def test_smoke_grid_holds_every_invariant(self):
        """Both loss rates crash, recover and replay a WAL suffix."""
        cells = chaos_grid(loss_rates=(0.0, 0.1), crash_fractions=(0.45,),
                           n_clients=8, n_unique=4, side=3, duration_s=10.0,
                           snapshot_every_ops=4)
        for spec in cells:
            result = spec.run()
            assert result.ok, (spec, result)
            assert result.crashed
            assert result.wal_records > 0 and result.replayed_ops > 0


class TestReconciliation:
    def _deploy(self):
        config = DeploymentConfig(side=3, seed=5)
        return Deployment(Strategy.TTMQO, config)

    def test_torn_submit_aborts_the_zombie_network_query(self, tmp_path):
        """A query whose submit record tore out of the WAL must not keep
        sampling the network: recovery's reconciliation aborts it."""
        deployment = self._deploy()
        sim = deployment.sim
        durability = DurabilityConfig(directory=str(tmp_path))
        service = QueryService(deployment, clock=lambda: sim.now,
                               durability=durability)

        def _go() -> None:
            sid = service.open_session("alice")
            service.submit(sid, Q_LIGHT)

        sim.engine.schedule_at(1000.0, _go)
        sim.start()
        sim.run_until(3000.0)
        assert len(deployment.bs.running_queries()) == 1
        service.simulate_crash()

        # Tear into the submit line: the WAL now ends mid-record.
        wal = durability.wal_path
        lines = wal.read_text().splitlines(keepends=True)
        assert '"op":"submit"' in lines[-1]
        wal.write_text("".join(lines[:-1]) + lines[-1][:20])

        recovered = QueryService.recover(deployment, durability,
                                         clock=lambda: sim.now)
        report = recovered.last_recovery
        assert report.torn_records == 1
        assert report.zombies_aborted == 1
        assert report.reinjected == 0
        assert zombie_count(deployment) == 0
        assert recovered.live_tickets() == []
        recovered.validate()

    def test_snapshot_restore_reinjects_into_a_fresh_network(self, tmp_path):
        """Restoring onto a network that never saw the dissemination
        (full base-station box swap) re-disseminates RUNNING queries."""
        deployment = self._deploy()
        sim = deployment.sim
        durability = DurabilityConfig(directory=str(tmp_path))
        service = QueryService(deployment, clock=lambda: sim.now,
                               durability=durability)

        def _go() -> None:
            sid = service.open_session("alice")
            service.submit(sid, Q_LIGHT)

        sim.engine.schedule_at(1000.0, _go)
        sim.start()
        sim.run_until(3000.0)
        service.snapshot()  # covers the submit; WAL rotates empty
        service.simulate_crash()

        replacement = self._deploy()
        replacement.sim.start()
        recovered = QueryService.recover(
            replacement, durability,
            clock=lambda: replacement.sim.now)
        report = recovered.last_recovery
        assert report.snapshot_loaded
        assert report.replayed_ops == 0
        assert report.reinjected == 1
        assert report.zombies_aborted == 0
        assert len(replacement.bs.running_queries()) == 1
        assert zombie_count(replacement) == 0
        recovered.validate()


class TestSigkillMode:
    def test_sigkill_crash_recovers_idempotently(self):
        outcome = run_sigkill_crash("service", min_ops=6, seed=3,
                                    timeout_s=90.0)
        assert outcome["ops_before_kill"] >= 6
        assert outcome["wal_records"] > 0
        assert outcome["lost_acked"] == 0
        assert outcome["recovery_idempotent"]
        assert outcome["replayed_ops"] + (
            1 if outcome["snapshot_loaded"] else 0) > 0


class TestClusterSigkillMode:
    def test_cluster_sigkill_loses_no_acked_admissions(self):
        outcome = run_sigkill_crash("cluster", min_ops=8, seed=3,
                                    timeout_s=90.0)
        assert outcome["ops_before_kill"] >= 8
        assert outcome["acked_ops"] > 0
        # Zero acknowledged admissions lost across a real SIGKILL.
        assert outcome["lost_acked"] == 0
        # Anchors came back from the root WAL, not shard re-adoption.
        assert outcome["orphans"] == 0
        assert outcome["replayed_ops"] + (
            1 if outcome["snapshot_loaded"] else 0) > 0
        # Recover -> crash -> recover is idempotent (torn tail and all).
        assert outcome["recovery_idempotent"]
