"""Unit tests for Algorithm 1 (greedy insertion) and its helpers."""

import pytest

from repro.core.basestation.insertion import insert_query
from repro.core.basestation.query_table import QueryTable
from repro.core.basestation.rewriter import beneficial, new_synthetic_record
from repro.queries.ast import Aggregate, AggregateOp, QidAllocator, Query
from repro.queries.predicates import Interval, PredicateSet
from repro.queries.semantics import covers


#: Synthetic qids, clear of the user qids the tests build.
QIDS = QidAllocator(1_000_000)


def _light(lo, hi):
    return PredicateSet({"light": Interval(lo, hi)})


def _acq(lo, hi, epoch=4096):
    return Query.acquisition(["light"], _light(lo, hi), epoch)


def _insert(table, model, query):
    table.add_user(query)
    insert_query(query, {query.qid: query}, table, model, QIDS)
    table.validate()


@pytest.fixture
def model(paper_cost_model):
    return paper_cost_model


class TestBeneficial:
    def test_cover_returns_exactly_one(self, model):
        record = new_synthetic_record(_acq(0, 1000), {}, QIDS)
        assessment = beneficial(_acq(100, 500, 8192), record, model)
        assert assessment.rate == 1.0
        assert assessment.is_cover

    def test_incompatible_aggregations_minus_infinity(self, model):
        a = Query.aggregation([Aggregate(AggregateOp.MAX, "light")], _light(0, 600))
        b = Query.aggregation([Aggregate(AggregateOp.MAX, "light")], _light(0, 500))
        record = new_synthetic_record(a, {}, QIDS)
        assert beneficial(b, record, model).rate == float("-inf")

    def test_real_merge_rate_strictly_below_one(self, model):
        record = new_synthetic_record(_acq(100, 300), {}, QIDS)
        assessment = beneficial(_acq(150, 500), record, model)
        assert 0.0 < assessment.rate < 1.0
        assert assessment.plan is not None

    def test_negative_rate_for_bad_merge(self, model):
        record = new_synthetic_record(_acq(280, 600, 2048), {}, QIDS)
        assert beneficial(_acq(100, 300, 4096), record, model).rate < 0


class TestAlgorithm1:
    def test_first_query_becomes_synthetic(self, model):
        table = QueryTable()
        q = _acq(100, 500)
        _insert(table, model, q)
        assert len(table.synthetic) == 1
        record = next(iter(table.synthetic.values()))
        assert record.qid != q.qid  # fresh synthetic qid
        assert q.qid in record.from_list

    def test_covered_query_absorbed(self, model):
        table = QueryTable()
        wide = _acq(0, 1000, 4096)
        narrow = _acq(200, 400, 8192)
        _insert(table, model, wide)
        _insert(table, model, narrow)
        assert len(table.synthetic) == 1
        record = next(iter(table.synthetic.values()))
        assert set(record.from_list) == {wide.qid, narrow.qid}

    def test_non_beneficial_queries_stay_separate(self, model):
        table = QueryTable()
        _insert(table, model, _acq(280, 600, 2048))
        _insert(table, model, _acq(100, 300, 4096))
        assert len(table.synthetic) == 2

    def test_paper_cascade_example(self, model):
        """q3 merges with q2, and the merged query then absorbs q1."""
        table = QueryTable()
        q1 = _acq(280, 600, 2048)
        q2 = _acq(100, 300, 4096)
        q3 = _acq(150, 500, 4096)
        for q in (q1, q2, q3):
            _insert(table, model, q)
        assert len(table.synthetic) == 1
        final = next(iter(table.synthetic.values()))
        assert final.query.predicates.interval("light") == Interval(100.0, 600.0)
        assert final.query.epoch_ms == 2048
        assert set(final.from_list) == {q1.qid, q2.qid, q3.qid}

    def test_synthetic_always_covers_members(self, model):
        table = QueryTable()
        queries = [
            _acq(0, 400, 4096),
            _acq(300, 800, 8192),
            Query.aggregation([Aggregate(AggregateOp.MAX, "light")],
                              _light(100, 700), 8192),
            Query.acquisition(["temp"], epoch_ms=4096),
        ]
        for q in queries:
            _insert(table, model, q)
        for record in table.synthetic.values():
            for user in record.from_list.values():
                assert covers(record.query, user)

    def test_aggregation_pair_same_predicates_merges(self, model):
        table = QueryTable()
        a = Query.aggregation([Aggregate(AggregateOp.MAX, "light")],
                              _light(0, 600), 4096)
        b = Query.aggregation([Aggregate(AggregateOp.MIN, "light")],
                              _light(0, 600), 8192)
        _insert(table, model, a)
        _insert(table, model, b)
        assert len(table.synthetic) == 1
        record = next(iter(table.synthetic.values()))
        assert record.query.is_aggregation
        assert len(record.query.aggregates) == 2

    def test_aggregation_different_predicates_stay_separate(self, model):
        table = QueryTable()
        a = Query.aggregation([Aggregate(AggregateOp.MAX, "light")],
                              _light(700, 1000), 4096)
        b = Query.aggregation([Aggregate(AggregateOp.MAX, "light")],
                              _light(0, 300), 4096)
        _insert(table, model, a)
        _insert(table, model, b)
        assert len(table.synthetic) == 2

    def test_acquisition_absorbs_aggregation(self, model):
        table = QueryTable()
        acq = _acq(0, 800, 4096)
        agg = Query.aggregation([Aggregate(AggregateOp.MAX, "light")],
                                _light(100, 700), 8192)
        _insert(table, model, acq)
        _insert(table, model, agg)
        assert len(table.synthetic) == 1
        record = next(iter(table.synthetic.values()))
        assert record.query.is_acquisition

    def test_every_user_query_is_mapped(self, model):
        table = QueryTable()
        queries = [_acq(i * 50, i * 50 + 300, 4096 if i % 2 else 8192)
                   for i in range(8)]
        for q in queries:
            _insert(table, model, q)
        for q in queries:
            record = table.synthetic_for(q.qid)
            assert q.qid in record.from_list
