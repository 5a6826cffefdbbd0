"""Unit tests for the radio channel: airtime, delivery, collisions."""

import pytest

from repro.sim.engine import EventQueue
from repro.sim.messages import BROADCAST, Message, MessageKind
from repro.sim.network import Topology
from repro.sim.radio import Channel, RadioParams
from repro.sim.trace import TraceCollector


def _line_topology(n=4):
    """0 - 1 - 2 - 3 ... consecutive nodes in range of each other only."""
    return Topology.from_links([(i, i + 1) for i in range(n - 1)])


class _Harness:
    def __init__(self, topology, params=None):
        self.engine = EventQueue()
        self.trace = TraceCollector(self.engine)
        self.channel = Channel(self.engine, topology, params, self.trace)
        self.received = {n: [] for n in topology.node_ids}
        for n in topology.node_ids:
            self.channel.attach(
                n, lambda msg, n=n: self.received[n].append(msg))
        self.reports = []

    def send(self, src, link_dst=BROADCAST, payload_bytes=10,
             kind=MessageKind.RESULT):
        msg = Message(kind=kind, src=src, link_dst=link_dst, payload=None,
                      payload_bytes=payload_bytes)
        self.channel.transmit(src, msg, self.reports.append)
        return msg


class TestRadioParams:
    def test_airtime_formula(self):
        params = RadioParams(data_rate_bytes_per_ms=4.8, startup_ms=2.0)
        assert params.airtime_ms(48) == pytest.approx(2.0 + 48 / 4.8)

    def test_c_trans_is_reciprocal_of_rate(self):
        params = RadioParams(data_rate_bytes_per_ms=4.0)
        assert params.c_trans == 0.25

    def test_longer_frames_take_longer(self):
        params = RadioParams()
        assert params.airtime_ms(100) > params.airtime_ms(10)


class TestDelivery:
    def test_broadcast_reaches_all_in_range_only(self):
        h = _Harness(_line_topology(4))
        h.send(1)
        h.engine.run_until(100.0)
        assert len(h.received[0]) == 1
        assert len(h.received[2]) == 1
        assert len(h.received[3]) == 0  # out of range

    def test_delivery_happens_at_end_of_airtime(self):
        h = _Harness(_line_topology(2))
        h.send(0, payload_bytes=41)  # 48B frame -> 2 + 10 = 12 ms
        h.engine.run_until(11.9)
        assert h.received[1] == []
        h.engine.run_until(12.1)
        assert len(h.received[1]) == 1

    def test_unicast_report_tracks_destination(self):
        h = _Harness(_line_topology(3))
        h.send(0, link_dst=1)
        h.engine.run_until(100.0)
        (report,) = h.reports
        assert 1 in report.received
        assert not report.failed_destinations

    def test_sleeping_receiver_misses_frame(self):
        h = _Harness(_line_topology(3))
        h.channel.set_radio(1, False)
        h.send(0, link_dst=1)
        h.engine.run_until(100.0)
        (report,) = h.reports
        assert report.failed_destinations == {1}
        assert h.received[1] == []

    def test_sender_cannot_double_transmit(self):
        h = _Harness(_line_topology(2))
        h.send(0)
        with pytest.raises(RuntimeError):
            h.send(0)

    def test_sequential_transmissions_both_arrive(self):
        h = _Harness(_line_topology(2))
        h.send(0)
        h.engine.run_until(50.0)
        h.send(0)
        h.engine.run_until(100.0)
        assert len(h.received[1]) == 2


class TestInterest:
    """``attach(..., overhears)``: who is *called*, not who *receives*."""

    def test_uninterested_neighbour_receives_but_is_not_called(self):
        h = _Harness(_line_topology(3))
        h.channel.attach(0, h.received[0].append, lambda kind, src: False)
        h.send(1, link_dst=2)
        h.engine.run_until(100.0)
        (report,) = h.reports
        assert report.received == {0, 2}
        assert h.received[0] == [] and len(h.received[2]) == 1

    def test_explicit_destination_is_called_whatever_it_declared(self):
        h = _Harness(_line_topology(3))
        h.channel.attach(0, h.received[0].append, lambda kind, src: False)
        h.send(1, link_dst=frozenset((0, 2)))
        h.engine.run_until(100.0)
        assert len(h.received[0]) == len(h.received[2]) == 1
        assert not h.reports[0].failed_destinations

    def test_interest_is_asked_once_per_kind_and_sender(self):
        h = _Harness(_line_topology(3))
        asked = []

        def overhears(kind, src):
            asked.append((kind, src))
            return kind is MessageKind.QUERY

        h.channel.attach(1, h.received[1].append, overhears)
        for kind in (MessageKind.QUERY, MessageKind.RESULT,
                     MessageKind.QUERY):
            for src in (0, 2):
                h.send(src, kind=kind)
                h.engine.run_until(h.engine.now + 100.0)
        assert [(m.kind, m.src) for m in h.received[1]] \
            == [(MessageKind.QUERY, 0), (MessageKind.QUERY, 2)] * 2
        # The answer is cached: the second QUERY round asks nothing.
        assert asked == [(MessageKind.QUERY, 0), (MessageKind.QUERY, 2),
                         (MessageKind.RESULT, 0), (MessageKind.RESULT, 2)]

    def test_reattaching_replaces_hook_and_interest(self):
        h = _Harness(_line_topology(2))
        h.send(0)
        h.engine.run_until(50.0)
        second = []
        h.channel.attach(1, second.append, lambda kind, src: True)
        h.send(0)
        h.engine.run_until(100.0)
        assert len(h.received[1]) == 1 and len(second) == 1

    def test_out_of_range_destination_always_fails(self):
        h = _Harness(_line_topology(4))
        h.send(0, link_dst=frozenset((1, 3, 99)))
        h.engine.run_until(100.0)
        (report,) = h.reports
        assert report.received == {1}
        assert report.failed_destinations == {3, 99}
        assert len(h.received[1]) == 1 and h.received[3] == []

    def test_radio_state_is_read_when_the_frame_completes(self):
        h = _Harness(_line_topology(3))
        h.send(1)
        h.channel.set_radio(0, False)       # powers down mid-frame: misses
        h.channel.set_radio(2, False)
        h.channel.set_radio(2, True)        # back up before the end: hears
        h.engine.run_until(100.0)
        (report,) = h.reports
        assert report.received == {2}
        assert report.collided == set() and report.lost == set()
        assert h.received[0] == [] and len(h.received[2]) == 1


class TestCollisions:
    def test_overlapping_in_range_transmissions_collide(self):
        # 0 and 2 both reach 1; simultaneous sends garble both at 1.
        h = _Harness(_line_topology(3))
        h.send(0)
        h.send(2)
        h.engine.run_until(100.0)
        assert h.received[1] == []
        assert h.trace.collisions == 2     # node 1, once per garbled frame
        assert [r.collided for r in h.reports] == [{1}, {1}]

    def test_hidden_terminal_collision(self):
        # 0-1-2: 0 and 2 cannot hear each other but both reach 1.
        h = _Harness(_line_topology(3))
        h.send(0, link_dst=1)
        h.send(2, link_dst=1)
        h.engine.run_until(100.0)
        failed = set()
        for report in h.reports:
            failed |= report.failed_destinations
        assert 1 in failed

    def test_non_overlapping_frames_do_not_collide(self):
        h = _Harness(_line_topology(3))
        h.send(0)
        h.engine.run_until(50.0)
        h.send(2)
        h.engine.run_until(100.0)
        assert len(h.received[1]) == 2

    def test_frame_starting_the_instant_another_ends_does_not_collide(self):
        # The second send is queued first, so it runs while the first frame
        # is still in the active table with end == now: touching intervals
        # do not overlap.
        h = _Harness(_line_topology(3))
        first_end = h.channel.params.airtime_ms(
            Message(MessageKind.RESULT, 0, BROADCAST, None, 10).length_bytes)
        h.engine.schedule(first_end, h.send, 2)
        h.send(0)
        h.engine.run_until(100.0)
        assert len(h.received[1]) == 2
        assert h.trace.collisions == 0

    def test_out_of_range_concurrent_transmissions_ok(self):
        # 0-1-2-3: 0->1 and 3->2 overlap but interferers are out of range.
        h = _Harness(_line_topology(4))
        h.send(0, link_dst=1)
        h.send(3, link_dst=2)
        h.engine.run_until(100.0)
        assert len(h.received[1]) == 1
        assert len(h.received[2]) == 1

    def test_half_duplex_receiver_misses_while_transmitting(self):
        h = _Harness(_line_topology(2))
        h.send(0, link_dst=1)
        h.send(1, link_dst=0)  # 1 is transmitting, misses 0's frame
        h.engine.run_until(100.0)
        assert h.received[1] == []
        assert h.received[0] == []  # 0 was transmitting too


class TestCarrierSense:
    def test_busy_while_in_range_neighbor_transmits(self):
        h = _Harness(_line_topology(3))
        h.send(1)
        assert h.channel.is_busy_at(0)
        assert h.channel.is_busy_at(2)

    def test_not_busy_out_of_range(self):
        h = _Harness(_line_topology(4))
        h.send(0)
        assert not h.channel.is_busy_at(3)

    def test_clear_after_transmission_ends(self):
        h = _Harness(_line_topology(2))
        h.send(0)
        h.engine.run_until(100.0)
        assert not h.channel.is_busy_at(1)

    def test_own_transmission_is_busy(self):
        h = _Harness(_line_topology(2))
        h.send(0)
        assert h.channel.is_busy_at(0)


class TestTraceAccounting:
    def test_tx_time_recorded_for_sender(self):
        h = _Harness(_line_topology(2))
        msg = h.send(0, payload_bytes=41)
        h.engine.run_until(100.0)
        stats = h.trace.node_stats(0)
        assert stats.tx_busy_ms == pytest.approx(2.0 + 48 / 4.8)
        assert stats.tx_count == 1
        assert stats.tx_bytes == msg.length_bytes
