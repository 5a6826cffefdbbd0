"""Structural invariants of the channel's frozen topology bitsets.

``Channel`` freezes the topology at construction into per-node Python-int
bitsets (``sim/radio.py``).  Its results are pinned end to end by the
golden traces and by the interval-overlap oracle in
``test_channel_property.py``; these tests pin the structure those results
rest on: the adjacency bits are ``Topology.in_range``, cover bits add the
node itself, delivery is in ascending receiver id, the Gilbert–Elliott edge
table enumerates exactly the directed in-range links (the oracle replays
each link's ``ge_link_seed`` stream), and carrier sensing is "this node or
an in-range node is on the air".
"""

import random

from repro.sim.engine import EventQueue
from repro.sim.messages import BROADCAST, Message, MessageKind
from repro.sim.network import Topology
from repro.sim.radio import Channel, ge_link_seed


def _random_topology(seed: int, n: int = 12) -> Topology:
    return Topology.random(n, area_ft=120.0, seed=seed)


def _channel(topo: Topology, **kwargs) -> Channel:
    return Channel(EventQueue(), topo, **kwargs)


class TestTopologyArrays:
    def test_adjacency_matrix_mirrors_topology(self):
        topo = Topology.grid(4)
        channel = _channel(topo)
        for u in topo.node_ids:
            for v in topo.node_ids:
                expected = u != v and topo.in_range(u, v)
                assert bool(channel._adj_bits[u] & channel._bit[v]) \
                    == expected

    def test_bitsets_agree_with_adjacency_matrix(self):
        """One distinct bit per node, ranked by id; cover = adjacency + self."""
        topo = _random_topology(seed=7)
        channel = _channel(topo)
        for rank, node in enumerate(topo.node_ids):
            assert channel._bit[node] == 1 << rank
            assert channel._adj_bits[node] == sum(
                channel._bit[v] for v in topo.neighbors[node])
            assert channel._cover_bits[node] \
                == channel._adj_bits[node] | channel._bit[node]

    def test_neighbor_ids_are_sorted_fanout_order(self):
        topo = _random_topology(seed=3)
        channel = _channel(topo)
        for node in topo.node_ids:
            pairs = channel._neighbor_pairs[node]
            assert [v for v, _ in pairs] == sorted(topo.neighbors[node])
            for v, bit in pairs:
                assert bit == channel._bit[v]
        # A delivery plan keeps that order: ascending id is ascending bit.
        hooks = {node: (lambda msg: None) for node in topo.node_ids}
        for node, hook in hooks.items():
            channel.attach(node, hook)
        for node in topo.node_ids:
            _, _, deliveries = channel._build_plan(
                node, Message(MessageKind.RESULT, node, BROADCAST, None, 1))
            assert list(deliveries) == [
                (channel._bit[v], hooks[v])
                for v in sorted(topo.neighbors[node])]

    def test_edge_index_enumerates_directed_links_with_distinct_seeds(self):
        """One Gilbert–Elliott slot and one RNG stream per directed link."""
        topo = _random_topology(seed=5)
        channel = _channel(topo, seed=42)
        links = [(u, v) for u in topo.node_ids
                 for v in sorted(topo.neighbors[u])]
        assert list(channel._edge_index) == links
        assert list(channel._edge_index.values()) == list(range(len(links)))
        assert len({ge_link_seed(42, u, v) for u, v in links}) == len(links)


class TestChannelState:
    def test_carrier_sense_is_self_or_in_range_sender_on_air(self):
        topo = _random_topology(seed=9)
        engine = EventQueue()
        channel = Channel(engine, topo)
        rng = random.Random(1)
        for step in range(100):
            engine.run_until(step * 3.0)
            idle = [n for n in topo.node_ids
                    if not channel.is_transmitting(n)]
            if idle and rng.random() < 0.6:
                src = rng.choice(idle)
                channel.transmit(
                    src, Message(MessageKind.RESULT, src, BROADCAST, None,
                                 rng.randint(1, 40)), lambda report: None)
            on_air = set(channel._active)
            for node in topo.node_ids:
                expected = node in on_air or any(
                    topo.in_range(node, src) for src in on_air)
                assert channel.is_busy_at(node) == expected
        engine.run_until(10_000.0)
        assert channel._active_bits == 0

    def test_ge_state_starts_all_good(self):
        channel = _channel(_random_topology(seed=2))
        assert not any(channel._ge_bad)
        assert len(channel._ge_bad) == len(channel._edge_index)
