"""The telemetry contract: every exported name is documented.

`docs/observability.md` promises that metric and span names are API.
This test holds the other side of the bargain: it exercises every
instrumented layer — a baseline cell, a TTMQO cell, the query service,
the sweep telemetry — and fails if any exported metric family is absent
from the document.  Adding a metric without documenting it is a contract
violation; this is the test the doc tells contributors about.
"""

from pathlib import Path

import pytest

from repro.core.basestation import BaseStationOptimizer
from repro.harness import Strategy
from repro.harness.experiments import fig3_cells
from repro.harness.metrics import SweepTelemetry
from repro.harness.tier1_sim import default_cost_model
from repro.obs import scoped
from repro.service import (
    OptimizerBackend,
    QueryService,
    StatisticsStore,
    TenantQuotas,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
CONTRACT_DOC = REPO_ROOT / "docs" / "observability.md"


def _run_cell_families(strategy):
    spec = fig3_cells("A", 4, duration_ms=15_000.0, strategies=(strategy,))[0]
    with scoped() as registry:
        spec.run()  # runs inside its own fresh_qids scope
        return registry.families()


def _service_families():
    with scoped() as registry:
        optimizer = BaseStationOptimizer(default_cost_model(16, 3))
        service = QueryService(
            OptimizerBackend(optimizer),
            quotas=TenantQuotas(default_radio_s_per_epoch=0.12))
        sid = service.open_session("alice", now_ms=0.0)
        service.explain(
            "SELECT light FROM sensors WHERE light > 300 "
            "EPOCH DURATION 4096")
        service.submit(
            sid,
            "SELECT light FROM sensors WHERE light > 300 "
            "EPOCH DURATION 4096",
            now_ms=1.0,
        )
        # Over budget: exercises planner.quota_rejections_total.
        service.submit(
            sid,
            "SELECT temp FROM sensors WHERE temp > 10 "
            "EPOCH DURATION 4096",
            now_ms=2.0,
        )
        return registry.families()


def _planner_families():
    """The planner's sampling counters (fed by collect_statistics)."""
    with scoped() as registry:
        from repro.sensors.field import AttributeSpec
        store = StatisticsStore.from_specs(
            [AttributeSpec("light", 0.0, 1000.0)], n_buckets=4)
        store.observe_row({"light": 500.0})
        store.observe_frames("result", 3, 2.5)
        store.merge(store)
        return registry.families()


def _cluster_families(tmp_path_factory):
    """Cluster + fault tolerance: root WAL, supervisor, shard outage."""
    with scoped() as registry:
        from repro.cluster import (
            ClusterCoordinator,
            ShardSupervisor,
            SupervisorConfig,
        )
        base = tmp_path_factory.mktemp("cluster-contract")
        clock = {"t": 0.0}
        backends = [
            OptimizerBackend(BaseStationOptimizer(default_cost_model(16, 3)))
            for _ in range(2)]
        coordinator = ClusterCoordinator(
            backends, clock=lambda: clock["t"],
            durability_dir=str(base))
        sid = coordinator.open_session("alice", now_ms=0.0)
        coordinator.explain(
            "SELECT light FROM sensors WHERE light > 300 "
            "EPOCH DURATION 4096")
        coordinator.submit(
            sid,
            "SELECT light FROM sensors WHERE light > 300 "
            "EPOCH DURATION 4096",
            now_ms=1.0,
        )
        # Shard outage -> supervised restart: exercises the
        # cluster.supervisor.* and outage families.
        supervisor = ShardSupervisor(
            coordinator,
            config=SupervisorConfig(deadline_ms=5.0,
                                    restart_backoff_ms=5.0),
            durability_dir=str(base), clock=lambda: clock["t"])
        coordinator.shard_services()[1].simulate_crash()
        for step in range(4):
            clock["t"] = 10.0 * (step + 1)
            supervisor.poll()
        # Coordinator crash -> root-WAL recovery: exercises the
        # cluster.root_wal.* replay families.
        coordinator.simulate_crash()
        recovered = ClusterCoordinator.recover(
            backends, str(base), clock=lambda: clock["t"],
            services=coordinator.shard_services())
        recovered.snapshot(now_ms=clock["t"])
        return registry.families()


def _gateway_families(tmp_path_factory):
    """Gateway + replication: socket round trip through a warm standby."""
    with scoped() as registry:
        from repro.gateway import GatewayClient, GatewayServer
        from repro.service import (
            DurabilityConfig,
            PrimaryReplicator,
            ReplicationConfig,
            StandbyServer,
        )
        base = tmp_path_factory.mktemp("gateway-contract")
        standby = StandbyServer(base / "standby")
        replicator = PrimaryReplicator(ReplicationConfig(
            port=standby.address[1], epoch_ms=5.0, sync=True))
        service = QueryService(
            OptimizerBackend(BaseStationOptimizer(default_cost_model(16, 3))),
            batch_window_ms=0.0,
            durability=DurabilityConfig(directory=str(base / "primary")))
        gateway = None
        try:
            service.attach_replicator(replicator)
            gateway = GatewayServer(service, replicator=replicator)
            gateway.start()
            host, port = gateway.address
            with GatewayClient(host, port) as client:
                client.ping()
                sid = client.open("contract")
                client.submit(
                    sid,
                    "SELECT light FROM sensors WHERE light > 300 "
                    "EPOCH DURATION 4096")
        finally:
            if gateway is not None:
                gateway.stop()
            replicator.stop()
            standby.stop()
            service.shutdown()
        return registry.families()


def _sweep_families():
    with scoped() as registry:
        telemetry = SweepTelemetry(total_cells=2, workers=1,
                                   cache_hits=1, cache_misses=1,
                                   wall_s=1.0, cell_seconds=[0.5])
        telemetry.export(registry)
        return registry.families()


@pytest.fixture(scope="module")
def exported_families(tmp_path_factory):
    families = set()
    for strategy in (Strategy.BASELINE, Strategy.TTMQO):
        families.update(_run_cell_families(strategy))
    families.update(_service_families())
    families.update(_planner_families())
    families.update(_cluster_families(tmp_path_factory))
    families.update(_gateway_families(tmp_path_factory))
    families.update(_sweep_families())
    return sorted(families)


def test_layers_actually_exported(exported_families):
    """Guard against the harness silently exporting nothing."""
    prefixes = {name.split(".")[0] for name in exported_families}
    assert {"sim", "tinydb", "optimizer", "service", "cluster", "sweep",
            "run", "span", "planner", "gateway", "replication"} <= prefixes


def test_every_exported_family_is_documented(exported_families):
    doc = CONTRACT_DOC.read_text(encoding="utf-8")
    undocumented = [name for name in exported_families if name not in doc]
    assert not undocumented, (
        f"metric families exported but missing from {CONTRACT_DOC.name}: "
        f"{undocumented} — names are API; document them (or deprecate in "
        f"CHANGES.md)")


def test_read_path_has_an_attempts_and_a_useful_counter(exported_families):
    """`pump`'s mapped-vs-delivered ratio needs both series, by name."""
    doc = CONTRACT_DOC.read_text(encoding="utf-8")
    for name in ("service.pump_items_mapped_total",
                 "service.results_delivered_total"):
        assert name in exported_families
        assert f"`{name}` | C | `instance`" in doc


def test_documented_span_names_exported():
    doc = CONTRACT_DOC.read_text(encoding="utf-8")
    assert "radio.tx" in doc
    assert "span.radio.tx.duration_ms" in doc
