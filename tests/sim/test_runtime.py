"""Unit tests for the Simulation assembly."""

from repro.sim import Simulation, Topology
from repro.sim.node import NodeApp


class _CountingApp(NodeApp):
    started = 0

    def on_start(self):
        _CountingApp.started += 1


class TestSimulation:
    def setup_method(self):
        _CountingApp.started = 0

    def test_one_node_per_topology_entry(self):
        sim = Simulation(Topology.grid(3))
        assert set(sim.nodes) == set(range(9))

    def test_install_skips_nodes_with_apps(self):
        sim = Simulation(Topology.grid(2))
        special = NodeApp()
        sim.install_at(0, special)
        sim.install(lambda node: _CountingApp())
        sim.start()
        assert sim.nodes[0].app is special
        assert _CountingApp.started == 3

    def test_start_idempotent(self):
        sim = Simulation(Topology.grid(2))
        sim.install(lambda node: _CountingApp())
        sim.start()
        sim.start()
        assert _CountingApp.started == 4

    def test_run_until_starts_automatically(self):
        sim = Simulation(Topology.grid(2))
        sim.install(lambda node: _CountingApp())
        sim.run_until(10.0)
        assert _CountingApp.started == 4
        assert sim.now == 10.0

    def test_run_for_advances_relative(self):
        sim = Simulation(Topology.grid(2))
        sim.run_until(100.0)
        sim.run_for(50.0)
        assert sim.now == 150.0

    def test_base_station_property(self):
        sim = Simulation(Topology.grid(3))
        assert sim.base_station is sim.nodes[0]

    def test_average_transmission_time_zero_when_silent(self):
        sim = Simulation(Topology.grid(3))
        sim.run_until(1000.0)
        assert sim.average_transmission_time() == 0.0

    def test_seed_propagates_to_mac_backoffs(self):
        """Different seeds must produce different MAC schedules."""
        from repro.sim import MessageKind

        def first_delivery(seed):
            sim = Simulation(Topology.grid(2), seed=seed)
            arrivals = []

            class App(NodeApp):
                def on_message(self, msg):
                    arrivals.append(sim.now)

            sim.install(lambda node: App())
            sim.start()
            sim.nodes[0].broadcast(MessageKind.MAINTENANCE, "x", 4)
            sim.run_until(1000.0)
            return arrivals[0]

        assert first_delivery(1) != first_delivery(2)
        assert first_delivery(1) == first_delivery(1)
