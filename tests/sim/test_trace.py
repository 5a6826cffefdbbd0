"""Unit tests for the trace collector / metric computation."""

import pytest

from repro.sim.engine import EventQueue
from repro.sim.messages import BROADCAST, Message, MessageKind
from repro.sim.trace import TraceCollector


def _msg(kind=MessageKind.RESULT, src=1, payload_bytes=10):
    return Message(kind=kind, src=src, link_dst=BROADCAST, payload=None,
                   payload_bytes=payload_bytes)


class TestAccounting:
    def test_per_kind_counts(self):
        engine = EventQueue()
        trace = TraceCollector(engine)
        trace.record_transmission(1, _msg(MessageKind.RESULT), 5.0)
        trace.record_transmission(1, _msg(MessageKind.QUERY), 5.0)
        trace.record_transmission(2, _msg(MessageKind.RESULT, src=2), 5.0)
        assert trace.total_transmissions([MessageKind.RESULT]) == 2
        assert trace.total_transmissions([MessageKind.QUERY]) == 1
        assert trace.total_transmissions() == 3

    def test_involved_nodes(self):
        engine = EventQueue()
        trace = TraceCollector(engine)
        trace.record_transmission(3, _msg(src=3), 5.0)
        trace.record_transmission(1, _msg(MessageKind.QUERY), 5.0)
        assert trace.involved_nodes() == [1, 3]
        assert trace.involved_nodes(MessageKind.RESULT) == [3]


class TestAverageTransmissionTime:
    def test_fraction_of_elapsed_time(self):
        engine = EventQueue()
        trace = TraceCollector(engine)
        trace.record_transmission(1, _msg(), 10.0)
        trace.record_transmission(2, _msg(src=2), 30.0)
        engine.run_until(100.0)
        # node1: 10%, node2: 30%, node3: 0% -> mean 13.33%
        value = trace.average_transmission_time([1, 2, 3])
        assert value == pytest.approx((0.1 + 0.3 + 0.0) / 3)

    def test_base_station_excluded(self):
        engine = EventQueue()
        trace = TraceCollector(engine)
        trace.record_transmission(0, _msg(src=0), 50.0)
        trace.record_transmission(1, _msg(), 10.0)
        engine.run_until(100.0)
        value = trace.average_transmission_time([0, 1], include_base_station=0)
        assert value == pytest.approx(0.1)

    def test_zero_elapsed_returns_zero(self):
        engine = EventQueue()
        trace = TraceCollector(engine)
        assert trace.average_transmission_time([1, 2]) == 0.0

    def test_summary_keys(self):
        engine = EventQueue()
        trace = TraceCollector(engine)
        engine.run_until(10.0)
        summary = trace.summary()
        for key in ("elapsed_ms", "total_frames", "result_frames",
                    "collisions", "retransmissions", "dropped_frames"):
            assert key in summary
