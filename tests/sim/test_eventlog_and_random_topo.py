"""Tests for random deployments and result latency."""

import pytest

from repro.harness import DeploymentConfig, Strategy, run_workload_live
from repro.queries import parse_query
from repro.sim import Simulation, SimulationError, Topology
from repro.sim.node import NodeApp
from repro.workloads import Workload


class TestRandomTopology:
    def test_connected_and_sized(self):
        topo = Topology.random(30, 150.0, seed=4)
        assert topo.size == 30
        topo.validate()  # connectivity implied

    def test_base_station_at_origin(self):
        topo = Topology.random(10, 100.0, seed=4)
        assert topo.positions[0] == (0.0, 0.0)
        assert topo.base_station == 0

    def test_deterministic(self):
        a = Topology.random(20, 120.0, seed=9)
        b = Topology.random(20, 120.0, seed=9)
        assert a.positions == b.positions

    def test_seed_varies_layout(self):
        a = Topology.random(20, 120.0, seed=1)
        b = Topology.random(20, 120.0, seed=2)
        assert a.positions != b.positions

    def test_impossible_density_raises(self):
        with pytest.raises(SimulationError):
            Topology.random(3, 5000.0, seed=1, max_attempts=5)

    def test_simulation_runs_on_random_topology(self):
        topo = Topology.random(16, 110.0, seed=6)
        sim = Simulation(topo, seed=6)
        sim.install(lambda node: NodeApp())
        sim.start()
        sim.run_for(1000.0)


class TestResultLatency:
    def test_latency_positive_and_bounded(self):
        query = parse_query("SELECT light FROM sensors EPOCH DURATION 4096")
        workload = Workload.static([query], duration_ms=40_000.0)
        result = run_workload_live(Strategy.BASELINE, workload,
                              DeploymentConfig(side=4, seed=2))
        log = result.deployment.results
        latencies = log.row_latencies(query.qid)
        assert latencies
        assert all(0.0 < latency < 4096.0 for latency in latencies)
        assert log.mean_row_latency(query.qid) == pytest.approx(
            sum(latencies) / len(latencies))

    def test_deeper_origins_take_longer(self):
        query = parse_query("SELECT light FROM sensors EPOCH DURATION 4096")
        workload = Workload.static([query], duration_ms=60_000.0)
        result = run_workload_live(Strategy.BASELINE, workload,
                              DeploymentConfig(side=6, seed=2))
        deployment = result.deployment
        topo = deployment.topology
        by_level = {}
        for row in deployment.results.rows(query.qid):
            by_level.setdefault(topo.levels[row.origin], []).append(
                row.latency_ms)
        shallow = sum(by_level[1]) / len(by_level[1])
        deepest = max(by_level)
        deep = sum(by_level[deepest]) / len(by_level[deepest])
        assert deep > shallow
