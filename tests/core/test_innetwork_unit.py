"""Focused unit tests for tier-2 internals (routing payloads, reroute,
sleep/wake interplay) that the end-to-end tests exercise only indirectly."""

from repro.core.innetwork import TTMQOBaseStationApp, TTMQONodeApp, TTMQOParams
from repro.core.innetwork.routing import (
    SharedAggPayload,
    SharedRowPayload,
    encode_responsibilities,
    responsibilities_bytes,
)
from repro.queries import parse_query
from repro.sensors import SensorWorld
from repro.sim import Simulation, Topology
from repro.tinydb import RoutingTree
from repro.tinydb.aggregation import PartialAggregate
from repro.queries.ast import AggregateOp
from repro.tinydb.payloads import AggGroup


class TestRoutingPayloads:
    def test_encode_responsibilities_sorted(self):
        encoded = encode_responsibilities({5: frozenset((2,)),
                                           3: frozenset((1, 2))})
        assert encoded == ((3, frozenset((1, 2))), (5, frozenset((2,))))

    def test_subset_for(self):
        payload = SharedRowPayload(
            origin=9, epoch_time=4096.0, values=(("light", 1.0),),
            qids=frozenset((1, 2)),
            responsibilities=((3, frozenset((1,))), (5, frozenset((2,)))))
        assert payload.subset_for(3) == frozenset((1,))
        assert payload.subset_for(5) == frozenset((2,))
        assert payload.subset_for(7) == frozenset()

    def test_row_payload_bytes_account_for_split(self):
        base = SharedRowPayload(
            origin=9, epoch_time=0.0, values=(("light", 1.0),),
            qids=frozenset((1, 2)),
            responsibilities=((3, frozenset((1, 2))),))
        split = SharedRowPayload(
            origin=9, epoch_time=0.0, values=(("light", 1.0),),
            qids=frozenset((1, 2)),
            responsibilities=((3, frozenset((1,))), (5, frozenset((2,)))))
        assert split.payload_bytes() > base.payload_bytes()

    def test_agg_payload_groups_for(self):
        partial = PartialAggregate(AggregateOp.MAX, "light", 1.0, 1)
        payload = SharedAggPayload(
            sender=9, epoch_time=0.0,
            groups=(AggGroup(frozenset((1, 2)), (partial,)),),
            responsibilities=((3, frozenset((1,))),))
        (restricted,) = payload.groups_for(frozenset((1,)))
        assert restricted.qids == frozenset((1,))
        assert payload.groups_for(frozenset((9,))) == ()

    def test_responsibilities_bytes_scale(self):
        small = responsibilities_bytes(((3, frozenset((1,))),))
        large = responsibilities_bytes(((3, frozenset((1, 2, 3))),
                                        (5, frozenset((4,)))))
        assert large > small


def _deploy(side=4, seed=5, params=None):
    topo = Topology.grid(side)
    world = SensorWorld.uniform(topo, seed=seed)
    tree = RoutingTree.build(topo)
    sim = Simulation(topo, world=world, seed=seed)
    bs = TTMQOBaseStationApp(world, tree, seed=seed, ttmqo_params=params)
    sim.install_at(0, bs)
    sim.install(lambda node: TTMQONodeApp(world, params, seed=seed))
    sim.start()
    return sim, bs


class TestRerouteOnFailure:
    def test_rows_route_around_failed_parent(self):
        """Kill every upper neighbour but one of a deep node: its rows must
        still arrive via the survivor."""
        sim, bs = _deploy(side=4)
        topo = sim.topology
        query = parse_query("SELECT nodeid FROM sensors WHERE nodeid = 15 "
                            "EPOCH DURATION 4096")
        sim.run_until(300.0)
        bs.inject(query)
        sim.run_until(10_000.0)
        uppers = topo.upper_neighbors(15)
        assert len(uppers) >= 2
        for parent in uppers[:-1]:
            sim.nodes[parent].fail(40_000.0)
        sim.run_until(60_000.0)
        late_epochs = [t for t in bs.results.row_epochs(query.qid)
                       if 12_288.0 <= t <= 48_000.0]
        assert len(late_epochs) >= 7  # barely any epochs lost


class TestSleepTickInterplay:
    def test_sleeping_nodes_wake_for_their_tick(self):
        params = TTMQOParams(sleep_enabled=True)
        sim, bs = _deploy(params=params)
        query = parse_query("SELECT light FROM sensors WHERE light > 990 "
                            "EPOCH DURATION 4096")
        sim.run_until(300.0)
        bs.inject(query)
        sim.run_until(60_000.0)
        # highly selective: nodes sleep, yet every epoch's few matches land
        total_sleep = sum(sim.trace.node_stats(n).sleep_ms
                          for n in sim.topology.node_ids)
        assert total_sleep > 100_000.0
        expected_matches = sum(
            1 for t in (t for t in bs.results.row_epochs(query.qid))
            for n in sim.topology.node_ids
            if n != 0 and sim.world.sample(n, "light", t) > 990)
        got = sum(len(bs.results.rows(query.qid, t))
                  for t in bs.results.row_epochs(query.qid))
        assert got >= expected_matches * 0.9

    def test_clock_stops_after_abort(self):
        sim, bs = _deploy()
        query = parse_query("SELECT light FROM sensors EPOCH DURATION 4096")
        sim.run_until(300.0)
        bs.inject(query)
        sim.run_until(12_000.0)
        bs.abort(query.qid)
        sim.run_until(30_000.0)
        node5 = sim.nodes[5].app
        assert node5.clock.period is None
        assert node5.queries == {}
