"""Unit tests for application payload encoding sizes."""

from repro.queries.ast import AggregateOp, Query
from repro.queries.predicates import Interval, PredicateSet
from repro.tinydb.aggregation import PartialAggregate
from repro.tinydb.payloads import (
    AbortPayload,
    AggGroup,
    AggResultPayload,
    BeaconPayload,
    QueryPayload,
    RowResultPayload,
)


class TestQueryPayload:
    def test_size_tracks_query_shape(self):
        small = QueryPayload(Query.acquisition(["light"]), 0, 0)
        big = QueryPayload(
            Query.acquisition(["light", "temp", "nodeid"],
                              PredicateSet({"light": Interval(0, 1),
                                            "temp": Interval(0, 1)})), 0, 0)
        assert big.payload_bytes() > small.payload_bytes()

    def test_advance_rewrites_sender_info(self):
        payload = QueryPayload(Query.acquisition(["light"]), 0, 0, False)
        advanced = payload.advance(sender=7, sender_level=2, has_data=True)
        assert advanced.sender == 7
        assert advanced.sender_level == 2
        assert advanced.sender_has_data
        assert advanced.query is payload.query


class TestRowResultPayload:
    def test_from_dict_sorts_values(self):
        p = RowResultPayload.from_dict(3, 4096.0, {"temp": 1.0, "light": 2.0},
                                       frozenset((1,)))
        assert p.values == (("light", 2.0), ("temp", 1.0))
        assert p.values_dict() == {"light": 2.0, "temp": 1.0}

    def test_size_scales_with_values_and_qids(self):
        small = RowResultPayload.from_dict(3, 0.0, {"light": 1.0}, frozenset((1,)))
        more_values = RowResultPayload.from_dict(
            3, 0.0, {"light": 1.0, "temp": 2.0}, frozenset((1,)))
        more_qids = RowResultPayload.from_dict(
            3, 0.0, {"light": 1.0}, frozenset((1, 2, 3)))
        assert more_values.payload_bytes() > small.payload_bytes()
        assert more_qids.payload_bytes() > small.payload_bytes()


class TestAggResultPayload:
    def test_size_scales_with_groups(self):
        partial = PartialAggregate(AggregateOp.MAX, "light", 1.0, 1)
        one = AggResultPayload(3, 0.0, (AggGroup(frozenset((1,)), (partial,)),))
        two = AggResultPayload(3, 0.0, (
            AggGroup(frozenset((1,)), (partial,)),
            AggGroup(frozenset((2,)), (partial,)),
        ))
        assert two.payload_bytes() > one.payload_bytes()

    def test_shared_group_cheaper_than_split(self):
        """Two queries sharing one equal-valued partial must encode smaller
        than two separate groups (the premise of partial sharing)."""
        partial = PartialAggregate(AggregateOp.MAX, "light", 1.0, 1)
        shared = AggResultPayload(3, 0.0, (AggGroup(frozenset((1, 2)), (partial,)),))
        split = AggResultPayload(3, 0.0, (
            AggGroup(frozenset((1,)), (partial,)),
            AggGroup(frozenset((2,)), (partial,)),
        ))
        assert shared.payload_bytes() < split.payload_bytes()


class TestSmallPayloads:
    def test_abort_smaller_than_query(self):
        q = QueryPayload(Query.acquisition(["light"]), 0, 0)
        assert AbortPayload(1).payload_bytes() < q.payload_bytes()

    def test_beacon_fixed_size(self):
        assert BeaconPayload(1, 2).payload_bytes() == BeaconPayload(63, 5).payload_bytes()
