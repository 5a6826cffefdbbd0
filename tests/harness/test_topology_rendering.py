"""Tests for ASCII topology rendering and the topo CLI command."""

from repro.cli import main
from repro.harness.reporting import render_topology
from repro.sim import Topology


class TestRenderTopology:
    def test_contains_base_station_and_legend(self):
        text = render_topology(Topology.grid(4))
        assert "BS" in text
        assert "16 nodes" in text
        assert "max depth 2" in text

    def test_random_topology_renders(self):
        text = render_topology(Topology.random(15, 120.0, seed=3))
        assert "15 nodes" in text

    def test_every_level_in_legend(self):
        topo = Topology.grid(8)
        text = render_topology(topo)
        for level in range(topo.max_depth + 1):
            assert f"L{level}:" in text

    def test_single_node(self):
        text = render_topology(Topology.grid(1))
        assert "1 nodes" in text


class TestTopoCommand:
    def test_grid(self, capsys):
        assert main(["topo", "--kind", "grid", "--side", "4"]) == 0
        out = capsys.readouterr().out
        assert "BS" in out and "16 nodes" in out

    def test_random(self, capsys):
        assert main(["topo", "--kind", "random", "--nodes", "12",
                     "--area", "110", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "12 nodes" in out
