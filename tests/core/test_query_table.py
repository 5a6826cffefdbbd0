"""Unit tests for the query table and its count fields."""

import pytest

from repro.core.basestation.query_table import (
    QueryTable,
    SyntheticQueryRecord,
)
from repro.queries.ast import Aggregate, AggregateOp, Query
from repro.queries.predicates import Interval, PredicateSet


def _light(lo, hi):
    return PredicateSet({"light": Interval(lo, hi)})


def _acq(lo, hi, epoch=4096):
    return Query.acquisition(["light"], _light(lo, hi), epoch)


class TestCounts:
    def test_attribute_counts(self):
        record = SyntheticQueryRecord(
            Query.acquisition(["light", "temp"], epoch_ms=4096, qid=100))
        record.add_user_query(Query.acquisition(["light"], epoch_ms=4096))
        record.add_user_query(Query.acquisition(["light", "temp"], epoch_ms=4096))
        counts = record.attribute_counts()
        assert counts == {"light": 2, "temp": 1}

    def test_epoch_counts(self):
        record = SyntheticQueryRecord(_acq(0, 1000, 4096))
        record.add_user_query(_acq(0, 500, 4096))
        record.add_user_query(_acq(0, 600, 8192))
        record.add_user_query(_acq(0, 700, 8192))
        assert record.epoch_counts() == {4096: 1, 8192: 2}

    def test_aggregate_counts(self):
        agg = Aggregate(AggregateOp.MAX, "light")
        record = SyntheticQueryRecord(
            Query.aggregation([agg], _light(0, 600), 4096, qid=100))
        record.add_user_query(Query.aggregation([agg], _light(0, 600), 4096))
        assert record.aggregate_counts() == {agg: 1}

    def test_counts_drop_on_removal(self):
        record = SyntheticQueryRecord(_acq(0, 1000, 4096))
        user = _acq(0, 500, 4096)
        record.add_user_query(user)
        record.remove_user_query(user.qid)
        assert record.attribute_counts() == {}


class TestOverRequests:
    def test_no_over_request_when_tight(self):
        user = _acq(100, 500, 4096)
        record = SyntheticQueryRecord(
            Query.acquisition(["light"], _light(100, 500), 4096, qid=100))
        record.add_user_query(user)
        assert not record.over_requests()

    def test_predicate_width_over_request(self):
        u1 = _acq(100, 500, 4096)
        u2 = _acq(400, 900, 4096)
        record = SyntheticQueryRecord(
            Query.acquisition(["light"], _light(100, 900), 4096, qid=100))
        record.add_user_query(u1)
        record.add_user_query(u2)
        assert not record.over_requests()
        record.remove_user_query(u2.qid)  # hull should shrink to [100,500]
        assert record.over_requests()

    def test_epoch_over_request(self):
        u1 = _acq(0, 500, 4096)
        u2 = _acq(0, 500, 8192)
        record = SyntheticQueryRecord(
            Query.acquisition(["light"], _light(0, 500), 4096, qid=100))
        record.add_user_query(u1)
        record.add_user_query(u2)
        record.remove_user_query(u1.qid)  # only the 8192 query remains
        assert record.over_requests()

    def test_attribute_over_request(self):
        u1 = Query.acquisition(["light"], epoch_ms=4096)
        u2 = Query.acquisition(["temp"], epoch_ms=4096)
        record = SyntheticQueryRecord(
            Query.acquisition(["light", "temp"], epoch_ms=4096, qid=100))
        record.add_user_query(u1)
        record.add_user_query(u2)
        record.remove_user_query(u2.qid)
        assert record.over_requests()

    def test_empty_from_list_over_requests(self):
        record = SyntheticQueryRecord(_acq(0, 100, 4096))
        assert record.over_requests()


class TestTableInvariants:
    def test_mapping_roundtrip(self):
        table = QueryTable()
        user = _acq(0, 500)
        table.add_user(user)
        record = SyntheticQueryRecord(
            Query.acquisition(["light"], _light(0, 500), 4096, qid=500),
            from_list={user.qid: user})
        table.add_synthetic(record)
        assert table.synthetic_for(user.qid) is record
        table.validate()

    def test_duplicate_user_rejected(self):
        table = QueryTable()
        user = _acq(0, 500)
        table.add_user(user)
        with pytest.raises(ValueError):
            table.add_user(user)

    def test_unknown_user_lookup_raises(self):
        with pytest.raises(KeyError):
            QueryTable().synthetic_for(123)

    def test_unmapped_user_lookup_raises(self):
        table = QueryTable()
        user = _acq(0, 500)
        table.add_user(user)
        with pytest.raises(KeyError):
            table.synthetic_for(user.qid)

    def test_validate_catches_uncovered_user(self):
        table = QueryTable()
        user = _acq(0, 900)
        table.add_user(user)
        record = SyntheticQueryRecord(
            Query.acquisition(["light"], _light(0, 500), 4096, qid=501),
            from_list={user.qid: user})  # does NOT cover [0,900]
        table.add_synthetic(record)
        with pytest.raises(AssertionError):
            table.validate()

    def test_remove_synthetic_unknown_raises(self):
        with pytest.raises(KeyError):
            QueryTable().remove_synthetic(7)
