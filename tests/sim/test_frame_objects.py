"""The objects a frame makes: values that stay put, at a bounded size.

The per-hop payloads are plain dataclasses with ``unsafe_hash=True``
rather than frozen ones (a frozen dataclass pays an ``object.__setattr__``
per field on construction), and ``Message`` and the radio's
``_Transmission`` are ``__slots__`` classes.  What the frozen dataclasses
guaranteed is checked here instead:

* payloads built from equal fields compare and hash equal, and a payload
  of another class never equals one of these;
* nothing changes a payload once it is on the air: across a TTMQO and a
  TinyDB 4x4 cell, every delivered payload's fields equal its fields at send;
* a pending event, and a frame's ``Message`` and ``_Transmission``, stay
  within an allocation budget (``tracemalloc``) that the previous
  ``Event`` object plus heap tuple, and the previous dataclass frame
  objects, exceeded.
"""

from __future__ import annotations

import dataclasses
import tracemalloc

import pytest

from repro.core.innetwork.routing import SharedAggPayload, SharedRowPayload
from repro.harness import CellSpec, DeploymentConfig, Strategy, WorkloadSpec
from repro.queries.ast import AggregateOp
from repro.queries.parser import parse_query
from repro.sim.engine import EventQueue
from repro.sim.messages import BROADCAST, Message, MessageKind
from repro.sim.node import SensorNode
from repro.sim.radio import Channel, _Transmission
from repro.tinydb.aggregation import PartialAggregate
from repro.tinydb.payloads import (AbortPayload, AggGroup, AggResultPayload,
                                   BeaconPayload, QueryPayload,
                                   RowResultPayload)
from repro.tinydb.results import ResultRow

QUERY = parse_query(
    "SELECT light FROM sensors WHERE light > 100 EPOCH DURATION 4096", qid=1)


def _partial(value=3.0):
    return PartialAggregate(AggregateOp.MAX, "light", value, 2)


def _group(value=3.0):
    return AggGroup(frozenset((1, 2)), (_partial(value),), (1.0,))


#: For every payload type, a builder of a fresh instance from fixed
#: fields and a field change that must make it compare unequal.
BUILDERS = {
    "QueryPayload": (lambda: QueryPayload(QUERY, 3, 1, True, 2, False),
                     {"generation": 3}),
    "AbortPayload": (lambda: AbortPayload(7), {"qid": 8}),
    "RowResultPayload": (
        lambda: RowResultPayload(4, 4096.0, (("light", 250.0),),
                                 frozenset((1, 2))),
        {"origin": 5}),
    "SharedRowPayload": (
        lambda: SharedRowPayload(4, 4096.0, (("light", 250.0),),
                                 frozenset((1, 2)),
                                 ((1, frozenset((1,))), (2, frozenset((2,))))),
        {"responsibilities": ()}),
    "PartialAggregate": (_partial, {"count": 3}),
    "AggGroup": (_group, {"group_key": ()}),
    "AggResultPayload": (lambda: AggResultPayload(6, 8192.0, (_group(),)),
                         {"sender": 7}),
    "SharedAggPayload": (
        lambda: SharedAggPayload(6, 8192.0, (_group(),),
                                 ((1, frozenset((1, 2))),)),
        {"epoch_time": 0.0}),
    "BeaconPayload": (lambda: BeaconPayload(9, 2), {"level": 3}),
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_equal_fields_compare_and_hash_equal(name):
    build, change = BUILDERS[name]
    a, b = build(), build()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    other = dataclasses.replace(a, **change)
    assert other != a


def test_a_subclass_payload_never_equals_its_base():
    shared = BUILDERS["SharedRowPayload"][0]()
    base = RowResultPayload(shared.origin, shared.epoch_time, shared.values,
                            shared.qids)
    assert shared != base and base != shared


def test_result_rows_compare_on_fields_and_are_unhashable_with_a_dict():
    a = ResultRow(4096.0, 4, {"light": 250.0}, 4200.0)
    assert a == ResultRow(4096.0, 4, {"light": 250.0}, 4200.0)
    assert a != ResultRow(4096.0, 4, {"light": 251.0}, 4200.0)
    with pytest.raises(TypeError):
        hash(a)  # as with the frozen dataclass: the values are a dict


# ---------------------------------------------------------------------------
# Nothing is mutated once on the air
# ---------------------------------------------------------------------------

def _fields(value):
    """A deep, immutable copy of a payload's field values."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (type(value).__name__,) + tuple(
            _fields(getattr(value, f.name))
            for f in dataclasses.fields(value))
    if isinstance(value, (tuple, list)):
        return tuple(_fields(item) for item in value)
    if isinstance(value, (set, frozenset)):
        return frozenset(_fields(item) for item in value)
    if isinstance(value, dict):
        return frozenset((key, _fields(item)) for key, item in value.items())
    return value


@pytest.mark.parametrize("strategy,expected", [
    (Strategy.TTMQO, {"QueryPayload", "SharedRowPayload", "SharedAggPayload",
                      "BeaconPayload"}),
    # TinyDB nodes act on no beacon (they cost airtime only), so the
    # channel delivers none.
    (Strategy.BASELINE, {"QueryPayload", "RowResultPayload",
                         "AggResultPayload"}),
], ids=["TTMQO", "BASELINE"])
def test_a_delivered_payload_has_the_fields_it_was_sent_with(
        monkeypatch, strategy, expected):
    sent = {}
    delivered = set()
    send, attach = SensorNode.send, Channel.attach

    def recording_send(self, *args, **kwargs):
        msg = send(self, *args, **kwargs)
        if msg is not None:
            sent[msg.msg_id] = (msg, _fields(msg.payload))
        return msg

    def checking_attach(self, node_id, on_receive, *args):
        def on_receive_checked(msg):
            at_send = sent[msg.msg_id][1]
            assert _fields(msg.payload) == at_send, msg
            delivered.add(type(msg.payload).__name__)
            on_receive(msg)
        attach(self, node_id, on_receive_checked, *args)

    monkeypatch.setattr(SensorNode, "send", recording_send)
    monkeypatch.setattr(Channel, "attach", checking_attach)
    CellSpec(strategy, WorkloadSpec.named("B", duration_ms=32_000.0),
             DeploymentConfig(side=4), seed=3).run()
    assert expected <= delivered
    # And still unchanged after the run, delivered or not.
    for msg, at_send in sent.values():
        assert _fields(msg.payload) == at_send, msg


# ---------------------------------------------------------------------------
# Allocation budgets
# ---------------------------------------------------------------------------

N = 10_000


def _allocated_per_item(make):
    """Bytes ``tracemalloc`` sees allocated per call of ``make``, with
    every result kept alive."""
    kept = []
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for index in range(N):
            kept.append(make(index))
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(kept) == N
    return (after - before) / N


def _noop():
    pass


def test_a_pending_event_fits_its_budget():
    queue = EventQueue()
    # A heap entry ``[time, seq, fn, args]`` with no arguments, and its
    # share of the heap list: about 150 bytes.  An Event object in a
    # (time, seq, event) tuple took about 205.
    per_event = _allocated_per_item(
        lambda index: queue.schedule(5.0, _noop))
    assert per_event <= 175, per_event


def test_a_frames_message_and_transmission_fit_their_budget():
    # About 165 + 95 bytes as __slots__ objects; the dataclasses (each
    # with an instance dict) took about 210 + 145.
    messages = []

    def message(index):
        msg = Message(MessageKind.RESULT, 3, BROADCAST, None, 10)
        messages.append(msg)
        return msg

    per_message = _allocated_per_item(message)
    per_transmission = _allocated_per_item(
        lambda index: _Transmission(3, messages[index], 12.5, 8, 6))
    assert per_message + per_transmission <= 300, \
        (per_message, per_transmission)
