"""Counters are views: every instance reports its own events, and only them.

The service and the coordinator keep their counts as fields that the
metrics registry reads.  These tests pin the two consequences for a
cluster, whose shards share one registry:

* a shard's ``stats()`` / ``resilience_stats()`` count that shard alone,
  however many other shards record into the same series;
* a shared series is the sum of the live owners bound to it, and a shard
  renamed after construction (handed in unnamed, or recovered) moves its
  ``instance``-labelled series with it.
"""

from collections import Counter
from functools import partial

from repro.cluster import (
    ClusterCoordinator,
    ClusterDeployment,
    FieldPartition,
    ShardSupervisor,
    SupervisorConfig,
)
from repro.cluster import deployment as cluster_deployment
from repro.core.basestation import BaseStationOptimizer
from repro.harness import Deployment, DeploymentConfig, Strategy
from repro.harness.tier1_sim import default_cost_model
from repro.obs import scoped
from repro.service import OptimizerBackend, QueryService, durability
from repro.sim import GilbertElliottParams, RadioParams

Q_GLOBAL = "SELECT light FROM sensors WHERE light > 300 EPOCH DURATION 4096"
Q_AVG = "SELECT AVG(temp) FROM sensors EPOCH DURATION 8192"
Q_ACQ = "SELECT temp FROM sensors WHERE temp > 0 EPOCH DURATION 4096"
# With side 8 and two shards, nodes 1..31 and 32..63 are the two bands.
Q_BAND0 = ("SELECT temp FROM sensors WHERE nodeid BETWEEN 1 AND 31 "
           "EPOCH DURATION 4096")
Q_BAND1 = ("SELECT temp FROM sensors WHERE nodeid BETWEEN 32 AND 63 "
           "EPOCH DURATION 4096")
#: Deep fades that exhaust the MAC's retry budget, so the node processors
#: fall back to their own retries.
HARSH_FADES = GilbertElliottParams(p_good_to_bad=0.08, p_bad_to_good=0.2,
                                   loss_good=0.0, loss_bad=0.85)


def _backends(k=2):
    return [OptimizerBackend(BaseStationOptimizer(default_cost_model(16, 3)))
            for _ in range(k)]


def _series(registry, name, **labels):
    """The value of one series, or None when it was never registered."""
    for entry in registry.snapshot():
        if entry["name"] == name and entry["labels"] == {
                k: str(v) for k, v in labels.items()}:
            return entry["value"]
    return None


def _drive(coordinator, now=1.0):
    tenants = [coordinator.open_session(f"tenant-{i}", now_ms=now)
               for i in range(4)]
    for index, sid in enumerate(tenants):
        for text in (Q_GLOBAL, Q_BAND0, Q_BAND1, Q_AVG)[index:]:
            coordinator.submit(sid, text, now_ms=now + index)
    return tenants


def test_each_shard_counts_only_its_own_wal_records(tmp_path, monkeypatch):
    appended = Counter()
    append = durability.WriteAheadLog.append

    def counting(self, record):
        append(self, record)
        appended[self.path.parent.name] += 1

    monkeypatch.setattr(durability.WriteAheadLog, "append", counting)
    with scoped() as registry:
        coordinator = ClusterCoordinator(
            _backends(), partition=FieldPartition(8, 2),
            durability_dir=tmp_path)
        _drive(coordinator)
        services = coordinator.shard_services()
        for shard_id, service in enumerate(services):
            assert (service.resilience_stats().wal_records
                    == appended[f"shard-{shard_id:02d}"] > 0)
        assert _series(registry, "resilience.wal_records_total") == sum(
            s.resilience_stats().wal_records for s in services)


def test_unnamed_services_handed_in_count_their_own_admissions():
    """Built as the cluster benchmark builds them: unnamed services over
    one deployment per region, named by the coordinator."""
    with scoped() as registry:
        partition = FieldPartition(4, 2, quality_seed=1)
        deployments = [
            Deployment(Strategy.TTMQO, DeploymentConfig(side=4, seed=1),
                       topology=partition.topologies[region.shard_id])
            for region in partition.regions]
        services = [QueryService(d, batch_window_ms=0.0, clock=lambda: 0.0)
                    for d in deployments]
        coordinator = ClusterCoordinator(
            deployments, partition=partition, clock=lambda: 0.0,
            services=services)
        tenants = [coordinator.open_session(f"tenant-{i}") for i in range(6)]
        for index, sid in enumerate(tenants):
            coordinator.submit(sid, (Q_GLOBAL, Q_ACQ, Q_AVG)[index % 3])
        stats = coordinator.stats()
        admitted = sum(len(s.live_tickets()) for s in services)
        assert stats.admitted_total == admitted
        assert [s.admitted_total for s in stats.per_shard] == [
            len(s.live_tickets()) for s in services]
        for service in services:
            assert _series(registry, "service.admitted_total",
                           instance=service.name) == \
                service.stats().admitted_total
        assert _series(registry, "service.admitted_total",
                       instance="default") == 0


def test_each_shard_reports_its_own_deployments_recovery_tally(monkeypatch):
    monkeypatch.setattr(
        cluster_deployment, "DeploymentConfig",
        partial(DeploymentConfig,
                radio_params=RadioParams(burst=HARSH_FADES)))
    with scoped() as registry:
        cluster = ClusterDeployment(FieldPartition(6, 2, quality_seed=3),
                                    seed=3)
        coordinator = cluster.coordinator
        sid = coordinator.open_session("alice")
        cluster.run_until(100.0)
        coordinator.submit(sid, Q_ACQ)
        coordinator.submit(sid, Q_AVG)
        cluster.run_until(40_000.0)
        per_shard = coordinator.stats().per_shard
        tallies = [d.recovery_counts() for d in cluster.deployments]
        retries = [t.get("recovery.app_retries_total", 0) for t in tallies]
        assert all(retries), "the fades must exhaust the MAC on both shards"
        assert [s.recovery_app_retries for s in per_shard] == retries
        assert [s.recovery_evictions for s in per_shard] == [
            t.get("recovery.evictions_total", 0) for t in tallies]
        assert _series(registry, "recovery.app_retries_total",
                       layer="ttmqo") == sum(retries)


def test_a_recovered_shard_takes_its_series_with_its_name(tmp_path):
    clock = {"t": 0.0}
    with scoped() as registry:
        coordinator = ClusterCoordinator(
            _backends(), partition=FieldPartition(8, 2),
            clock=lambda: clock["t"], durability_dir=tmp_path)
        supervisor = ShardSupervisor(
            coordinator,
            config=SupervisorConfig(deadline_ms=100.0,
                                    restart_backoff_ms=50.0),
            durability_dir=tmp_path, clock=lambda: clock["t"])
        sid = coordinator.open_session("alice", now_ms=0.0)
        coordinator.submit(sid, Q_GLOBAL, now_ms=1.0)
        coordinator.submit(sid, Q_BAND1, now_ms=2.0)
        coordinator.shard_services()[1].snapshot(now_ms=3.0)
        coordinator.submit(sid, Q_AVG, now_ms=4.0)
        supervisor.poll()
        coordinator.shard_services()[1].simulate_crash()
        clock["t"] = 150.0
        supervisor.poll()
        clock["t"] = 210.0
        supervisor.poll()
        assert 1 in supervisor.recovered
        coordinator.submit(sid, Q_ACQ, now_ms=211.0)

        shard = coordinator.shard_services()[1]
        assert shard.name == "shard-01"
        assert shard.stats().submissions_total == 4
        assert _series(registry, "service.submissions_total",
                       instance="shard-01") == 4
        assert _series(registry, "service.submissions_total",
                       instance="default") == 0
