"""Tests for Semantic Routing Tree dissemination (node-id queries)."""

import pytest

from repro.queries import parse_query
from repro.sensors import SensorWorld
from repro.sim import MessageKind, Simulation
from repro.tinydb import (
    RoutingTree,
    SemanticRoutingTree,
    TinyDBBaseStationApp,
    TinyDBNodeApp,
    TinyDBParams,
)


@pytest.fixture
def srt(grid4):
    return SemanticRoutingTree(RoutingTree.build(grid4))


class TestRanges:
    def test_root_covers_everything(self, srt, grid4):
        assert srt.subtree_range(0) == (0, max(grid4.node_ids))

    def test_leaf_range_is_itself(self, srt):
        tree = srt.tree
        leaves = [n for n in tree.children if not tree.children[n] and n != 0]
        for leaf in leaves:
            assert srt.subtree_range(leaf) == (leaf, leaf)

    def test_parent_range_contains_children(self, srt):
        tree = srt.tree
        for node, children in tree.children.items():
            lo, hi = srt.subtree_range(node)
            for child in children:
                c_lo, c_hi = srt.subtree_range(child)
                assert lo <= c_lo and c_hi <= hi

    def test_overlap_is_conservative(self, srt, grid4):
        """Every node whose id matches must be inside an overlapping subtree
        chain from the root."""
        query = parse_query("SELECT light FROM sensors WHERE nodeid >= 10 "
                            "AND nodeid <= 12 EPOCH DURATION 4096")
        targets = srt.dissemination_targets(query)
        for node in (10, 11, 12):
            assert node in targets


class TestApplicability:
    def test_nodeid_bounded_applies(self, srt):
        q = parse_query("SELECT light FROM sensors WHERE nodeid = 5 "
                        "EPOCH DURATION 4096")
        assert srt.applies_to(q)
        assert SemanticRoutingTree.static_query(q)

    def test_value_query_floods(self, srt):
        q = parse_query("SELECT light FROM sensors WHERE light > 100 "
                        "EPOCH DURATION 4096")
        assert not srt.applies_to(q)
        assert not SemanticRoutingTree.static_query(q)

    def test_half_bounded_nodeid_still_prunes(self, srt, grid4):
        """``nodeid >= 10`` prunes subtrees whose max id is below 10, so
        SRT applies even to half-bounded static constraints."""
        q = parse_query("SELECT light FROM sensors WHERE nodeid >= 10 "
                        "EPOCH DURATION 4096")
        assert srt.applies_to(q)
        targets = srt.dissemination_targets(q)
        # conservative: every matching node is reached ...
        assert {n for n in grid4.node_ids if n >= 10} <= targets
        # ... and at least some low-id leaf subtree is pruned
        assert targets != set(grid4.node_ids)


class TestRegionQueries:
    @pytest.fixture
    def spatial_srt(self, grid8):
        return SemanticRoutingTree(RoutingTree.build(grid8), grid8.positions)

    def test_region_query_applies_with_positions(self, spatial_srt):
        q = parse_query("SELECT light FROM sensors WHERE x BETWEEN 0 AND 40 "
                        "AND y BETWEEN 0 AND 40 EPOCH DURATION 4096")
        assert spatial_srt.applies_to(q)

    def test_region_query_needs_positions(self, srt):
        q = parse_query("SELECT light FROM sensors WHERE x BETWEEN 0 AND 40 "
                        "EPOCH DURATION 4096")
        assert not srt.applies_to(q)  # id-only index cannot prune on x

    def test_region_dissemination_covers_region(self, spatial_srt, grid8):
        q = parse_query("SELECT light FROM sensors WHERE x BETWEEN 0 AND 40 "
                        "AND y BETWEEN 0 AND 40 EPOCH DURATION 4096")
        targets = spatial_srt.dissemination_targets(q)
        matching = {n for n, (x, y) in grid8.positions.items()
                    if 0 <= x <= 40 and 0 <= y <= 40}
        assert matching <= targets

    def test_region_dissemination_prunes_far_corner(self, spatial_srt, grid8):
        q = parse_query("SELECT light FROM sensors WHERE x BETWEEN 0 AND 20 "
                        "AND y BETWEEN 0 AND 20 EPOCH DURATION 4096")
        targets = spatial_srt.dissemination_targets(q)
        assert len(targets) < grid8.size / 2
        assert 63 not in targets  # far corner never reached

    def test_subtree_bbox_contains_children(self, spatial_srt):
        tree = spatial_srt.tree
        for node, children in tree.children.items():
            for attribute in ("x", "y"):
                lo, hi = spatial_srt.subtree_range(node, attribute)
                for child in children:
                    c_lo, c_hi = spatial_srt.subtree_range(child, attribute)
                    assert lo <= c_lo and c_hi <= hi


class TestDissemination:
    def _deploy(self, grid, use_srt):
        world = SensorWorld.uniform(grid, seed=5)
        tree = RoutingTree.build(grid)
        params = TinyDBParams(use_srt=use_srt, maintenance_period_ms=0.0,
                              query_refresh_ms=0.0)
        sim = Simulation(grid, world=world, seed=5)
        bs = TinyDBBaseStationApp(world, tree, params, seed=5)
        sim.install_at(0, bs)
        sim.install(lambda node: TinyDBNodeApp(world, tree, params, seed=5))
        sim.start()
        return sim, bs

    def test_srt_reaches_and_answers_target(self, grid8):
        sim, bs = self._deploy(grid8, use_srt=True)
        q = parse_query("SELECT nodeid FROM sensors WHERE nodeid = 63 "
                        "EPOCH DURATION 4096")
        sim.run_until(300.0)
        bs.inject(q)
        sim.run_until(40_000.0)
        epochs = bs.results.row_epochs(q.qid)
        assert len(epochs) >= 7
        for t in epochs:
            assert [r.origin for r in bs.results.rows(q.qid, t)] == [63]

    def test_srt_uses_fewer_query_frames_than_flood(self, grid8):
        frames = {}
        for use_srt in (False, True):
            sim, bs = self._deploy(grid8, use_srt=use_srt)
            q = parse_query("SELECT nodeid FROM sensors WHERE nodeid >= 60 "
                            "AND nodeid <= 63 EPOCH DURATION 4096")
            sim.run_until(300.0)
            bs.inject(q)
            sim.run_until(20_000.0)
            frames[use_srt] = sim.trace.total_transmissions(
                [MessageKind.QUERY])
        # flooding costs one rebroadcast per node (64); SRT only the path
        assert frames[True] < frames[False] / 2

    def test_srt_value_queries_still_flood_everywhere(self, grid4):
        sim, bs = self._deploy(grid4, use_srt=True)
        q = parse_query("SELECT light FROM sensors WHERE light > 100 "
                        "EPOCH DURATION 4096")
        sim.run_until(300.0)
        bs.inject(q)
        sim.run_until(30_000.0)
        origins = {r.origin for r in bs.results.rows(q.qid)}
        assert len(origins) >= 12  # nearly all 15 sensors answer

    def test_srt_matches_flood_answers(self, grid8):
        answers = {}
        for use_srt in (False, True):
            sim, bs = self._deploy(grid8, use_srt=use_srt)
            q = parse_query("SELECT nodeid FROM sensors WHERE nodeid >= 30 "
                            "AND nodeid <= 35 EPOCH DURATION 8192")
            sim.run_until(300.0)
            bs.inject(q)
            sim.run_until(60_000.0)
            epochs = bs.results.row_epochs(q.qid)[1:6]
            answers[use_srt] = {
                (t, r.origin) for t in epochs for r in bs.results.rows(q.qid, t)
            }
        assert answers[True] == answers[False]
