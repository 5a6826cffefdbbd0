"""Unit tests for the query AST and epoch helpers."""

import dataclasses
import pickle

import pytest

from repro.queries.ast import (
    Aggregate,
    AggregateOp,
    MIN_EPOCH_MS,
    Query,
    QueryValidationError,
    GroupBy,
    combined_epoch,
    gcd_epoch,
    query_to_dict,
)
from repro.queries.predicates import Interval, PredicateSet


class TestConstruction:
    def test_acquisition_query(self):
        q = Query.acquisition(["light", "temp"], epoch_ms=4096)
        assert q.is_acquisition and not q.is_aggregation
        assert q.attributes == ("light", "temp")

    def test_aggregation_query(self):
        q = Query.aggregation([Aggregate(AggregateOp.MAX, "light")], epoch_ms=8192)
        assert q.is_aggregation and not q.is_acquisition

    def test_both_lists_rejected(self):
        with pytest.raises(QueryValidationError):
            Query(qid=1, attributes=("light",),
                  aggregates=(Aggregate(AggregateOp.MAX, "light"),),
                  predicates=PredicateSet.true(), epoch_ms=2048)

    def test_neither_list_rejected(self):
        with pytest.raises(QueryValidationError):
            Query(qid=1, attributes=(), aggregates=(),
                  predicates=PredicateSet.true(), epoch_ms=2048)

    def test_duplicate_attributes_rejected(self):
        with pytest.raises(QueryValidationError):
            Query.acquisition(["light", "light"])

    def test_duplicate_aggregates_rejected(self):
        agg = Aggregate(AggregateOp.MAX, "light")
        with pytest.raises(QueryValidationError):
            Query.aggregation([agg, agg])

    def test_epoch_must_be_multiple_of_2048(self):
        with pytest.raises(QueryValidationError):
            Query.acquisition(["light"], epoch_ms=3000)
        with pytest.raises(QueryValidationError):
            Query.acquisition(["light"], epoch_ms=0)
        Query.acquisition(["light"], epoch_ms=MIN_EPOCH_MS)  # ok

    def test_qids_unique_and_increasing(self):
        a = Query.acquisition(["light"])
        b = Query.acquisition(["light"])
        assert b.qid > a.qid

    def test_explicit_qid_respected(self):
        assert Query.acquisition(["light"], qid=777).qid == 777

    def test_immutability(self):
        q = Query.acquisition(["light"])
        with pytest.raises(AttributeError):
            q.epoch_ms = 4096


class TestRequestedAttributes:
    def test_acquisition_includes_predicates(self):
        q = Query.acquisition(
            ["light"], PredicateSet({"temp": Interval(0, 50)}))
        assert q.requested_attributes() == frozenset({"light", "temp"})

    def test_aggregation_includes_inputs_and_predicates(self):
        q = Query.aggregation(
            [Aggregate(AggregateOp.MAX, "light")],
            PredicateSet({"nodeid": Interval(0, 7)}))
        assert q.requested_attributes() == frozenset({"light", "nodeid"})

    def test_group_by_attributes_are_sensed(self):
        q = Query.aggregation([Aggregate(AggregateOp.AVG, "light")],
                              group_by=[GroupBy("temp", 10.0)])
        assert q.requested_attributes() == frozenset({"light", "temp"})

    def test_derived_set_is_not_part_of_the_value(self):
        preds = PredicateSet({"temp": Interval(0, 50)})
        a = Query.acquisition(["light"], preds, qid=5)
        b = Query.acquisition(["light"], preds, qid=5)
        assert a.requested_attributes() == b.requested_attributes()
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert [f.name for f in dataclasses.fields(a)] == [
            "qid", "attributes", "aggregates", "predicates", "epoch_ms",
            "group_by"]
        assert "_requested" not in repr(a)
        assert sorted(query_to_dict(a)) == [
            "aggregates", "attributes", "epoch_ms", "group_by", "predicates",
            "qid"]
        assert pickle.loads(pickle.dumps(a)).requested_attributes() \
            == frozenset({"light", "temp"})

    def test_replace_derives_the_set_again(self):
        q = Query.acquisition(["light"], epoch_ms=4096)
        widened = dataclasses.replace(q, attributes=("light", "humidity"))
        assert widened.requested_attributes() == frozenset(
            {"light", "humidity"})
        assert q.requested_attributes() == frozenset({"light"})


class TestEpochScheduling:
    def test_fires_at_multiples(self):
        q = Query.acquisition(["light"], epoch_ms=4096)
        assert q.fires_at(0.0)
        assert q.fires_at(8192.0)
        assert not q.fires_at(2048.0)

    def test_epochs_in(self):
        q = Query.acquisition(["light"], epoch_ms=4096)
        assert q.epochs_in(10_000.0) == 2

    def test_combined_epoch_is_gcd(self):
        assert combined_epoch(4096, 6144) == 2048
        assert combined_epoch(4096, 8192) == 4096
        assert combined_epoch(8192, 8192) == 8192

    def test_gcd_epoch_over_set(self):
        assert gcd_epoch([8192, 12288, 20480]) == 4096
        assert gcd_epoch([]) == MIN_EPOCH_MS

    def test_str_rendering(self):
        q = Query.acquisition(["light"], PredicateSet({"light": Interval(1, 2)}),
                              epoch_ms=4096)
        text = str(q)
        assert "SELECT light" in text
        assert "EPOCH DURATION 4096" in text
        agg = Query.aggregation([Aggregate(AggregateOp.MIN, "temp")])
        assert "MIN(temp)" in str(agg)
