"""Hypothesis property: the channel agrees with a brute-force oracle.

The golden traces (``tests/harness/test_golden_trace``) pin whole harness
runs on fixed cells; this module attacks the same contract from below with
randomized *channel-level* schedules hypothesis can shrink: random
topologies, random transmission timings (including deliberate same-instant
cohorts that collide), random kinds and addressing modes, radios that start
off or are switched through ``set_radio`` while frames are on the air, a
random interest predicate per node, and randomized Bernoulli/Gilbert–Elliott
loss parameters.

The reference is :func:`_oracle`, written here and sharing no state with
``Channel``: it sees only the list of frames that went on the air and
decides every delivery by comparing intervals pairwise.  For every
generated scenario the channel must produce the oracle's delivery reports
and hook calls — sets, order, and timestamps all equal.
"""

from __future__ import annotations

import random
from typing import NamedTuple

import pytest

from repro.sim.engine import EventQueue
from repro.sim.messages import BROADCAST, Message, MessageKind
from repro.sim.network import Topology
from repro.sim.radio import (Channel, GilbertElliottParams, RadioParams,
                             ge_link_seed)

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

# -- strategies --------------------------------------------------------
probabilities = st.floats(min_value=0.0, max_value=0.95,
                          allow_nan=False, allow_infinity=False)

ge_params = st.builds(
    GilbertElliottParams,
    p_good_to_bad=st.floats(min_value=0.01, max_value=1.0),
    p_bad_to_good=st.floats(min_value=0.01, max_value=1.0),
    loss_good=probabilities,
    loss_bad=probabilities,
)

radio_params = st.builds(
    RadioParams,
    loss_rate=probabilities,
    burst=st.one_of(st.none(), ge_params),
)

#: One planned transmission: (start slot, sender index, addressing draw,
#: payload bytes).  Slots are coarse so that several transmissions land on
#: the same instant and overlap — the collision machinery must engage.
transmissions = st.tuples(
    st.integers(min_value=0, max_value=12),   # start slot (x 5 ms)
    st.integers(min_value=0, max_value=10 ** 6),  # sender draw
    st.integers(min_value=0, max_value=10 ** 6),  # destination draw
    st.integers(min_value=1, max_value=40),   # payload bytes
)

scenarios = st.fixed_dictionaries({
    "topo_seed": st.integers(min_value=0, max_value=10 ** 6),
    "n_nodes": st.integers(min_value=3, max_value=14),
    "channel_seed": st.integers(min_value=0, max_value=10 ** 6),
    "params": radio_params,
    "schedule": st.lists(transmissions, min_size=1, max_size=25),
    "asleep": st.sets(st.integers(min_value=0, max_value=13), max_size=4),
    # (slot, node draw, on?): applied 2.5 ms into the slot, while the
    # frames that started on it are still on the air.
    "power": st.lists(st.tuples(st.integers(min_value=0, max_value=13),
                                st.integers(min_value=0, max_value=13),
                                st.booleans()), max_size=6),
    "interest": st.integers(min_value=0, max_value=2 ** 30 - 1),
})

KINDS = tuple(MessageKind)


def _overhears(draw, node, kind, src):
    """Node ``node``'s declared interest: a fixed pseudo-random predicate."""
    return bool(draw >> ((node * 5 + src * 3 + KINDS.index(kind)) % 30) & 1)


class _Frame(NamedTuple):
    """One frame that actually went on the air."""

    src: int
    msg: Message
    start: float
    end: float


def _oracle(topo, asleep, power, interest, params, seed, frames):
    """Expected (hook calls, delivery reports) by pairwise interval overlap.

    A frame reaches the neighbours of its sender, minus radios that are
    off when it ends, minus nodes that transmitted during an overlapping
    interval (half-duplex), minus nodes in range of any other overlapping
    sender (collision), minus what the loss models then eat.  Of those, the
    explicit destinations and the nodes that declared interest are called.
    Frames complete in ``end`` order with FIFO ties (``frames`` is in
    transmit order and the sort is stable); receivers are probed in
    ascending id, which fixes the order both loss models consume their
    seeded streams in.
    """
    def off(node, t):
        state = node in asleep
        for when, who, on in power:     # in time order, FIFO ties
            if who == node and when <= t:
                state = not on
        return state

    loss_rng = random.Random((seed << 8) ^ 0x10551)
    link_rngs, link_bad = {}, {}

    def lost(src, node):
        if params.loss_rate > 0.0 and loss_rng.random() < params.loss_rate:
            return True
        burst = params.burst
        if burst is None:
            return False
        link = (src, node)
        rng = link_rngs.get(link)
        if rng is None:
            rng = link_rngs[link] = random.Random(
                ge_link_seed(seed, src, node))
        if link_bad.get(link, False):
            bad = not rng.random() < burst.p_bad_to_good
        else:
            bad = rng.random() < burst.p_good_to_bad
        link_bad[link] = bad
        return rng.random() < (burst.loss_bad if bad else burst.loss_good)

    received, reports = [], []
    for frame in sorted(frames, key=lambda f: f.end):
        others = [o for o in frames if o is not frame
                  and o.start < frame.end and frame.start < o.end]
        got, collided, eaten = [], [], []
        for node in sorted(topo.neighbors[frame.src]):
            if off(node, frame.end) or any(o.src == node for o in others):
                continue
            if any(topo.in_range(node, o.src) for o in others):
                collided.append(node)
            elif lost(frame.src, node):
                eaten.append(node)
            else:
                got.append(node)
        destinations = frame.msg.destinations()
        failed = sorted(set(destinations) - set(got)) \
            if destinations is not None else []
        received.extend((frame.end, node, frame.src, frame.msg.payload)
                        for node in got
                        if node in (destinations or ())
                        or _overhears(interest, node, frame.msg.kind,
                                      frame.src))
        reports.append((frame.end, frame.msg.payload, tuple(got),
                        tuple(failed), tuple(collided), tuple(eaten)))
    return received, reports


def _run(scenario):
    """Execute one scenario; return what went on the air and what came of it."""
    topo = Topology.random(scenario["n_nodes"], area_ft=120.0,
                           seed=scenario["topo_seed"])
    engine = EventQueue()
    channel = Channel(engine, topo, params=scenario["params"],
                      seed=scenario["channel_seed"])

    frames = []
    received = []
    reports = []
    ids = topo.node_ids
    asleep = {ids[i % len(ids)] for i in scenario["asleep"]}
    power = sorted(((slot * 5.0 + 2.5, ids[draw % len(ids)], on)
                    for slot, draw, on in scenario["power"]),
                   key=lambda event: event[0])
    interest = scenario["interest"]
    for node in ids:
        def on_receive(msg, node=node):
            received.append((engine.now, node, msg.src, msg.payload))

        def overhears(kind, src, node=node):
            return _overhears(interest, node, kind, src)
        channel.attach(node, on_receive, overhears)
    for node in asleep:
        channel.set_radio(node, False)
    for when, node, on in power:
        engine.schedule(when, channel.set_radio, node, on)

    def fire(src, dst_draw, payload_bytes, tag):
        if channel.is_transmitting(src):
            return
        # Destination draw: ~half broadcast, ~quarter unicast to a random
        # node, ~quarter multicast to a small id set.
        mode = dst_draw % 4
        if mode <= 1:
            link_dst = BROADCAST
        elif mode == 2:
            link_dst = ids[(dst_draw // 4) % len(ids)]
        else:
            link_dst = frozenset({ids[(dst_draw // 4) % len(ids)],
                                  ids[(dst_draw // 8) % len(ids)]})
        msg = Message(KINDS[(dst_draw // 16) % len(KINDS)], src, link_dst,
                      tag, payload_bytes)

        def on_complete(report):
            reports.append((engine.now, tag,
                            tuple(sorted(report.received)),
                            tuple(sorted(report.failed_destinations)),
                            tuple(sorted(report.collided)),
                            tuple(sorted(report.lost))))
        airtime = channel.transmit(src, msg, on_complete)
        frames.append(_Frame(src, msg, engine.now, engine.now + airtime))

    for tag, (slot, src_draw, dst_draw, payload_bytes) in \
            enumerate(scenario["schedule"]):
        src = topo.node_ids[src_draw % len(topo.node_ids)]
        engine.schedule(slot * 5.0, fire, src, dst_draw, payload_bytes, tag)
    engine.run_until(10_000.0)
    assert not channel._active
    return topo, asleep, power, frames, received, reports


@given(scenario=scenarios)
@settings(max_examples=60, deadline=None)
def test_paths_deliver_identically(scenario):
    """Channel and oracle: two paths to the same reports and receive logs."""
    topo, asleep, power, frames, received, reports = _run(scenario)
    assert (received, reports) == _oracle(
        topo, asleep, power, scenario["interest"], scenario["params"],
        scenario["channel_seed"], frames)


@given(scenario=scenarios)
@settings(max_examples=25, deadline=None)
def test_carrier_sense_agrees_under_load(scenario):
    """is_busy_at == this node or an in-range node has a frame on the air."""
    topo = Topology.random(scenario["n_nodes"], area_ft=120.0,
                           seed=scenario["topo_seed"])
    engine = EventQueue()
    channel = Channel(engine, topo, params=scenario["params"],
                      seed=scenario["channel_seed"])
    for node in topo.node_ids:
        channel.attach(node, lambda msg: None)
    frames = []
    for slot, src_draw, _, payload_bytes in sorted(scenario["schedule"]):
        src = topo.node_ids[src_draw % len(topo.node_ids)]
        engine.run_until(slot * 5.0)
        now = engine.now
        if not channel.is_transmitting(src):
            msg = Message(MessageKind.RESULT, src, BROADCAST, None,
                          payload_bytes)
            airtime = channel.transmit(src, msg, lambda report: None)
            frames.append(_Frame(src, msg, now, now + airtime))
        on_air = {f.src for f in frames if f.start <= now < f.end}
        assert [channel.is_busy_at(n) for n in topo.node_ids] \
            == [n in on_air or any(topo.in_range(n, s) for s in on_air)
                for n in topo.node_ids]
