"""Unit tests for the frame/payload size model."""

from repro.sim.messages import (
    BROADCAST,
    Broadcast,
    HEADER_BYTES,
    Message,
    MessageKind,
    abort_payload_bytes,
    aggregate_payload_bytes,
    maintenance_payload_bytes,
    query_payload_bytes,
    result_payload_bytes,
)


def _msg(link_dst, payload_bytes=10):
    return Message(kind=MessageKind.RESULT, src=1, link_dst=link_dst,
                   payload=None, payload_bytes=payload_bytes)


class TestMessage:
    def test_length_includes_header(self):
        assert _msg(2, payload_bytes=10).length_bytes == HEADER_BYTES + 10

    def test_broadcast_classification(self):
        msg = _msg(BROADCAST)
        assert msg.is_broadcast and not msg.is_unicast and not msg.is_multicast
        assert msg.destinations() is None

    def test_unicast_classification(self):
        msg = _msg(7)
        assert msg.is_unicast
        assert msg.destinations() == frozenset((7,))

    def test_multicast_classification(self):
        msg = _msg(frozenset((2, 3)))
        assert msg.is_multicast
        assert msg.destinations() == frozenset((2, 3))

    def test_message_ids_are_unique(self):
        assert _msg(1).msg_id != _msg(1).msg_id

    def test_broadcast_is_singleton(self):
        assert Broadcast() is BROADCAST


class TestPayloadSizes:
    def test_query_payload_grows_with_contents(self):
        small = query_payload_bytes(1, 0, 0)
        wide = query_payload_bytes(3, 0, 0)
        predicated = query_payload_bytes(1, 0, 2)
        assert wide > small
        assert predicated > small

    def test_aggregate_entries_cost_two_ids(self):
        acq = query_payload_bytes(1, 0, 0)
        agg = query_payload_bytes(0, 1, 0)
        assert agg == acq + 1  # (op, attr) pair vs one attr id

    def test_abort_is_tiny(self):
        assert abort_payload_bytes() < query_payload_bytes(1, 0, 0)

    def test_result_payload_scales_with_values_and_qids(self):
        base = result_payload_bytes(1, 1)
        assert result_payload_bytes(3, 1) > base
        assert result_payload_bytes(1, 4) > base

    def test_shared_result_cheaper_than_separate(self):
        """One frame carrying 3 queries' worth must beat 3 separate frames
        (the premise of Section 3.2.2's shared messages)."""
        shared = HEADER_BYTES + result_payload_bytes(3, 3)
        separate = 3 * (HEADER_BYTES + result_payload_bytes(1, 1))
        assert shared < separate

    def test_aggregate_payload_scales(self):
        assert aggregate_payload_bytes(2, 1) > aggregate_payload_bytes(1, 1)
        assert aggregate_payload_bytes(1, 3) > aggregate_payload_bytes(1, 1)

    def test_maintenance_beacon_small(self):
        assert maintenance_payload_bytes() <= 8
