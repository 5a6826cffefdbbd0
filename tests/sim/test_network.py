"""Unit tests for topology construction and derived queries."""

import math

import pytest

from repro.sim.engine import SimulationError
from repro.sim.network import GRID_SPACING_FT, Topology


class TestGridConstruction:
    def test_paper_grid_sizes(self):
        assert Topology.grid(4).size == 16
        assert Topology.grid(8).size == 64

    def test_base_station_is_node_zero_at_origin(self, grid4):
        assert grid4.base_station == 0
        assert grid4.positions[0] == (0.0, 0.0)

    def test_row_major_positions(self, grid4):
        # node 5 = row 1, col 1 at 20ft spacing
        assert grid4.positions[5] == (GRID_SPACING_FT, GRID_SPACING_FT)
        assert grid4.positions[15] == (3 * GRID_SPACING_FT, 3 * GRID_SPACING_FT)

    def test_neighbors_within_radio_range(self, grid4):
        # 50ft range over 20ft spacing: 1-step (20), diagonal (28.3),
        # 2-step (40), knight's move (44.7) all connect; 2-step diagonal
        # (56.6) does not.
        assert 1 in grid4.neighbors[0]       # 20 ft
        assert 5 in grid4.neighbors[0]       # 28.3 ft
        assert 2 in grid4.neighbors[0]       # 40 ft
        assert 6 in grid4.neighbors[0]       # 44.7 ft
        assert 10 not in grid4.neighbors[0]  # 56.6 ft

    def test_adjacency_is_symmetric(self, grid8):
        for u, nbrs in grid8.neighbors.items():
            for v in nbrs:
                assert u in grid8.neighbors[v]

    def test_no_self_loops(self, grid4):
        for u, nbrs in grid4.neighbors.items():
            assert u not in nbrs

    def test_invalid_side_rejected(self):
        with pytest.raises(SimulationError):
            Topology.grid(0)

    def test_single_node_grid(self):
        topo = Topology.grid(1)
        assert topo.size == 1
        assert topo.max_depth == 0


class TestLevels:
    def test_base_station_is_level_zero(self, grid4):
        assert grid4.levels[0] == 0

    def test_levels_are_bfs_hops(self, grid4):
        # direct neighbours of node 0 are level 1
        for n in grid4.neighbors[0]:
            assert grid4.levels[n] == 1
        # node 15 (far corner) needs 2 hops in the 4x4 grid
        assert grid4.levels[15] == 2

    def test_level_sizes_sum_to_network(self, grid8):
        assert sum(grid8.level_sizes().values()) == 64

    def test_nodes_at_level(self, grid4):
        level1 = grid4.nodes_at_level(1)
        assert set(level1) == grid4.neighbors[0]

    def test_average_depth_excludes_base_station(self, grid4):
        sensors = [lvl for n, lvl in grid4.levels.items() if n != 0]
        assert grid4.average_depth() == pytest.approx(sum(sensors) / len(sensors))

    def test_max_depth_grows_with_grid(self):
        assert Topology.grid(8).max_depth > Topology.grid(4).max_depth


class TestUpperNeighbors:
    def test_upper_neighbors_are_one_level_up(self, grid8):
        for node in grid8.node_ids:
            if node == grid8.base_station:
                continue
            for up in grid8.upper_neighbors(node):
                assert grid8.levels[up] == grid8.levels[node] - 1

    def test_every_sensor_has_an_upper_neighbor(self, grid8):
        for node in grid8.node_ids:
            if node != grid8.base_station:
                assert grid8.upper_neighbors(node)

    def test_sorted_by_quality_descending(self, grid8):
        for node in (9, 27, 63):
            ups = grid8.upper_neighbors(node)
            qualities = [grid8.quality(node, u) for u in ups]
            assert qualities == sorted(qualities, reverse=True)

    def test_cache_returns_copies(self, grid4):
        first = grid4.upper_neighbors(15)
        first.append(999)
        assert 999 not in grid4.upper_neighbors(15)


class TestLinkQuality:
    def test_quality_in_unit_interval(self, grid8):
        for (u, v), q in grid8.link_quality.items():
            assert 0.0 < q <= 1.0

    def test_quality_symmetric(self, grid8):
        for (u, v), q in grid8.link_quality.items():
            assert grid8.link_quality[(v, u)] == q

    def test_closer_links_are_better_on_average(self, grid8):
        near = [grid8.quality(u, v) for (u, v) in grid8.link_quality
                if _dist(grid8, u, v) <= 21]
        far = [grid8.quality(u, v) for (u, v) in grid8.link_quality
               if _dist(grid8, u, v) >= 44]
        assert sum(near) / len(near) > sum(far) / len(far)

    def test_quality_seed_changes_jitter(self):
        a = Topology.grid(4, quality_seed=1)
        b = Topology.grid(4, quality_seed=2)
        assert a.link_quality != b.link_quality

    def test_same_seed_is_deterministic(self):
        a = Topology.grid(4, quality_seed=7)
        b = Topology.grid(4, quality_seed=7)
        assert a.link_quality == b.link_quality


class TestFromLinks:
    def test_explicit_edge_list(self):
        topo = Topology.from_links([(0, 1), (1, 2), (0, 3)])
        assert topo.levels == {0: 0, 1: 1, 3: 1, 2: 2}

    def test_explicit_quality_respected(self):
        topo = Topology.from_links([(0, 1)], quality={(0, 1): 0.42})
        assert topo.quality(0, 1) == 0.42
        assert topo.quality(1, 0) == 0.42

    def test_unreachable_node_rejected(self):
        with pytest.raises(SimulationError):
            Topology.from_links([(0, 1), (2, 3)])

    def test_validate_catches_missing_quality(self, grid4):
        del grid4.link_quality[(0, 1)]
        with pytest.raises(SimulationError):
            grid4.validate()


def _dist(topo, u, v):
    (x1, y1), (x2, y2) = topo.positions[u], topo.positions[v]
    return math.hypot(x1 - x2, y1 - y2)
