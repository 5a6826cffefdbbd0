"""End-to-end tests of the tier-2 in-network processor."""

import pytest

from repro.core.innetwork import TTMQOBaseStationApp, TTMQONodeApp, TTMQOParams
from repro.queries import parse_query
from repro.sensors import SensorWorld
from repro.sim import Simulation
from repro.tinydb import RoutingTree


def _deploy(topo, seed=13, world=None, params=None):
    world = world or SensorWorld.uniform(topo, seed=seed)
    tree = RoutingTree.build(topo)
    sim = Simulation(topo, world=world, seed=seed)
    bs = TTMQOBaseStationApp(world, tree, seed=seed, ttmqo_params=params)
    sim.install_at(0, bs)
    sim.install(lambda node: TTMQONodeApp(world, params, seed=seed))
    sim.start()
    return sim, bs, world


class TestSharedAcquisition:
    def test_epoch_incompatible_queries_share_rows(self, grid4):
        """Epochs 4096 and 6144: at t multiple of 12288 one shared frame
        serves both queries (Section 3.2.1)."""
        sim, bs, world = _deploy(grid4)
        q1 = parse_query("SELECT light FROM sensors EPOCH DURATION 4096")
        q2 = parse_query("SELECT light FROM sensors EPOCH DURATION 6144")
        sim.run_until(400.0)
        bs.inject(q1)
        bs.inject(q2)
        sim.run_until(90_000.0)
        shared_epochs = [t for t in bs.results.row_epochs(q1.qid)
                         if t % 12288 == 0]
        assert shared_epochs
        for t in shared_epochs:
            origins1 = {r.origin for r in bs.results.rows(q1.qid, t)}
            origins2 = {r.origin for r in bs.results.rows(q2.qid, t)}
            assert origins1 == origins2  # both served from the same frames

    def test_rows_match_ground_truth(self, grid4):
        sim, bs, world = _deploy(grid4)
        q = parse_query("SELECT light FROM sensors WHERE light > 350 "
                        "EPOCH DURATION 4096")
        sim.run_until(400.0)
        bs.inject(q)
        sim.run_until(90_000.0)
        epochs = bs.results.row_epochs(q.qid)
        assert len(epochs) >= 18
        for t in epochs[2:8]:
            expected = sorted(n for n in grid4.node_ids
                              if n != 0 and world.sample(n, "light", t) > 350)
            got = sorted(r.origin for r in bs.results.rows(q.qid, t))
            assert got == expected


class TestAggregation:
    def test_exact_aggregates(self, grid4):
        sim, bs, world = _deploy(grid4)
        q = parse_query("SELECT MAX(light), MIN(light) FROM sensors "
                        "EPOCH DURATION 8192")
        sim.run_until(400.0)
        bs.inject(q)
        sim.run_until(120_000.0)
        epochs = bs.results.aggregate_epochs(q.qid)
        assert len(epochs) >= 12
        exact = 0
        for t in epochs[1:]:
            values = [world.sample(n, "light", t) for n in grid4.node_ids if n != 0]
            got_max = bs.results.aggregate(q.qid, t, q.aggregates[1])
            got_min = bs.results.aggregate(q.qid, t, q.aggregates[0])
            by_str = {str(a): a for a in q.aggregates}
            got_max = bs.results.aggregate(q.qid, t, by_str["MAX(light)"])
            got_min = bs.results.aggregate(q.qid, t, by_str["MIN(light)"])
            if (got_max == pytest.approx(max(values))
                    and got_min == pytest.approx(min(values))):
                exact += 1
        assert exact >= len(epochs[1:]) * 0.8

    def test_equal_partials_share_frames(self, grid4):
        """Two MAX(light) queries with overlapping predicates: when the
        network max satisfies both, partials are equal and must ride one
        group — the base station still reports both correctly."""
        sim, bs, world = _deploy(grid4)
        q1 = parse_query("SELECT MAX(light) FROM sensors WHERE light > 100 "
                         "EPOCH DURATION 8192")
        q2 = parse_query("SELECT MAX(light) FROM sensors WHERE light > 200 "
                         "EPOCH DURATION 8192")
        sim.run_until(400.0)
        bs.inject(q1)
        bs.inject(q2)
        sim.run_until(90_000.0)
        common = (set(bs.results.aggregate_epochs(q1.qid))
                  & set(bs.results.aggregate_epochs(q2.qid)))
        assert common
        for t in sorted(common)[1:]:
            a = bs.results.aggregate(q1.qid, t, q1.aggregates[0])
            b = bs.results.aggregate(q2.qid, t, q2.aggregates[0])
            # the true maxima coincide whenever max > 200, which is near-sure
            truth = max(world.sample(n, "light", t)
                        for n in grid4.node_ids if n != 0)
            if truth > 200:
                assert a == b


class TestSleepMode:
    def test_unmatched_nodes_sleep(self, grid4):
        """With a predicate no node satisfies, sensors must spend most of
        their time asleep (Section 3.2.2's sleep mode)."""
        sim, bs, world = _deploy(grid4)
        q = parse_query("SELECT light FROM sensors WHERE light > 2000 "
                        "EPOCH DURATION 4096")  # impossible predicate
        sim.run_until(400.0)
        bs.inject(q)
        sim.run_until(60_000.0)
        slept = [sim.trace.node_stats(n).sleep_ms for n in grid4.node_ids
                 if n != 0]
        assert sum(1 for s in slept if s > 10_000) >= 10

    def test_sleep_disabled_by_params(self, grid4):
        params = TTMQOParams(sleep_enabled=False)
        sim, bs, world = _deploy(grid4, params=params)
        q = parse_query("SELECT light FROM sensors WHERE light > 2000 "
                        "EPOCH DURATION 4096")
        sim.run_until(400.0)
        bs.inject(q)
        sim.run_until(60_000.0)
        total_sleep = sum(sim.trace.node_stats(n).sleep_ms
                          for n in grid4.node_ids)
        assert total_sleep == 0.0

    def test_results_survive_sleeping_relays(self, grid4):
        """A selective query: matching nodes keep reporting even while
        non-matching nodes sleep (reroute around sleeping parents)."""
        sim, bs, world = _deploy(grid4)
        q = parse_query("SELECT nodeid FROM sensors WHERE nodeid = 15 "
                        "EPOCH DURATION 4096")
        sim.run_until(400.0)
        bs.inject(q)
        sim.run_until(120_000.0)
        epochs = bs.results.row_epochs(q.qid)
        # node 15 (far corner) must deliver in the vast majority of epochs
        assert len(epochs) >= 20
        for t in epochs:
            assert [r.origin for r in bs.results.rows(q.qid, t)] == [15]


class TestAbort:
    def test_abort_quiesces_network(self, grid4):
        sim, bs, world = _deploy(grid4)
        q = parse_query("SELECT light FROM sensors EPOCH DURATION 4096")
        sim.run_until(400.0)
        bs.inject(q)
        sim.run_until(30_000.0)
        bs.abort(q.qid)
        sim.run_until(45_000.0)
        rows_after_drain = len(bs.results.rows(q.qid))
        sim.run_until(120_000.0)
        assert len(bs.results.rows(q.qid)) <= rows_after_drain + 16

    def test_abort_before_flood_cancels_silently(self, grid4):
        sim, bs, world = _deploy(grid4)
        anchor = parse_query("SELECT light FROM sensors EPOCH DURATION 8192")
        sim.run_until(400.0)
        bs.inject(anchor)
        sim.run_until(9000.0)
        # with a query running, a new inject defers to the next boundary
        doomed = parse_query("SELECT temp FROM sensors EPOCH DURATION 4096")
        bs.inject(doomed)
        bs.abort(doomed.qid)  # aborted before the deferred flood fires
        sim.run_until(120_000.0)
        assert bs.results.rows(doomed.qid) == []
        # and the network never saw a QUERY flood for it
        assert doomed.qid not in bs._flooded
