"""End-to-end correctness of the TinyDB baseline against world ground truth."""

import pytest

from repro.queries import parse_query
from repro.sensors import SensorWorld
from repro.sim import Simulation
from repro.tinydb import RoutingTree, TinyDBBaseStationApp, TinyDBNodeApp


@pytest.fixture
def deployment(grid4):
    world = SensorWorld.uniform(grid4, seed=21)
    tree = RoutingTree.build(grid4)
    sim = Simulation(grid4, world=world, seed=21)
    bs = TinyDBBaseStationApp(world, tree, seed=21)
    sim.install_at(0, bs)
    sim.install(lambda node: TinyDBNodeApp(world, tree, seed=21))
    sim.start()
    return sim, bs, world, grid4


class TestAcquisition:
    def test_rows_match_ground_truth(self, deployment):
        sim, bs, world, topo = deployment
        q = parse_query("SELECT light FROM sensors WHERE light > 400 "
                        "EPOCH DURATION 4096")
        sim.run_until(500.0)
        bs.inject(q)
        sim.run_until(120_000.0)
        epochs = bs.results.row_epochs(q.qid)
        assert len(epochs) >= 25
        # skip the first epoch (flood may still be in flight)
        for t in epochs[2:10]:
            expected = sorted(
                n for n in topo.node_ids
                if n != 0 and world.sample(n, "light", t) > 400)
            got = sorted(r.origin for r in bs.results.rows(q.qid, t))
            assert got == expected
            for row in bs.results.rows(q.qid, t):
                assert row.values["light"] == pytest.approx(
                    world.sample(row.origin, "light", t))

    def test_projection_excludes_unrequested(self, deployment):
        sim, bs, world, topo = deployment
        q = parse_query("SELECT light FROM sensors WHERE temp > 10 "
                        "EPOCH DURATION 4096")
        sim.run_until(500.0)
        bs.inject(q)
        sim.run_until(30_000.0)
        for row in bs.results.rows(q.qid):
            assert set(row.values) == {"light"}

    def test_epoch_times_are_aligned(self, deployment):
        sim, bs, world, topo = deployment
        q = parse_query("SELECT light FROM sensors EPOCH DURATION 8192")
        sim.run_until(500.0)
        bs.inject(q)
        sim.run_until(60_000.0)
        for t in bs.results.row_epochs(q.qid):
            assert t % 8192 == 0


class TestAggregation:
    def test_max_matches_ground_truth(self, deployment):
        sim, bs, world, topo = deployment
        q = parse_query("SELECT MAX(light) FROM sensors EPOCH DURATION 8192")
        sim.run_until(500.0)
        bs.inject(q)
        sim.run_until(120_000.0)
        epochs = bs.results.aggregate_epochs(q.qid)
        assert len(epochs) >= 12
        exact = 0
        for t in epochs[1:]:
            truth = max(world.sample(n, "light", t)
                        for n in topo.node_ids if n != 0)
            got = bs.results.aggregate(q.qid, t, q.aggregates[0])
            if got == pytest.approx(truth):
                exact += 1
        # collisions may occasionally lose a partial; the vast majority of
        # epochs must be exact
        assert exact >= (len(epochs) - 1) * 0.8

    def test_avg_with_predicate(self, deployment):
        sim, bs, world, topo = deployment
        q = parse_query("SELECT AVG(temp) FROM sensors WHERE temp > 50 "
                        "EPOCH DURATION 8192")
        sim.run_until(500.0)
        bs.inject(q)
        sim.run_until(120_000.0)
        epochs = bs.results.aggregate_epochs(q.qid)
        matches = 0
        for t in epochs[1:]:
            sample = [world.sample(n, "temp", t)
                      for n in topo.node_ids if n != 0]
            qualifying = [v for v in sample if v > 50]
            got = bs.results.aggregate(q.qid, t, q.aggregates[0])
            if qualifying and got == pytest.approx(sum(qualifying) / len(qualifying)):
                matches += 1
        assert matches >= len(epochs[1:]) * 0.8


class TestAbort:
    def test_abort_stops_results(self, deployment):
        sim, bs, world, topo = deployment
        q = parse_query("SELECT light FROM sensors EPOCH DURATION 4096")
        sim.run_until(500.0)
        bs.inject(q)
        sim.run_until(30_000.0)
        bs.abort(q.qid)
        sim.run_until(40_000.0)  # allow the abort to settle
        count_at_abort = len(bs.results.rows(q.qid))
        sim.run_until(120_000.0)
        # a straggler epoch may land right after the abort; nothing beyond
        assert len(bs.results.rows(q.qid)) <= count_at_abort + 16

    def test_multiple_queries_coexist(self, deployment):
        sim, bs, world, topo = deployment
        q1 = parse_query("SELECT light FROM sensors EPOCH DURATION 4096")
        q2 = parse_query("SELECT MAX(temp) FROM sensors EPOCH DURATION 8192")
        sim.run_until(500.0)
        bs.inject(q1)
        bs.inject(q2)
        sim.run_until(60_000.0)
        assert bs.results.rows(q1.qid)
        assert bs.results.aggregate_epochs(q2.qid)
