"""Unit tests for shared-frame packing (rows and partial-aggregate groups)."""

from repro.core.innetwork.packing import (
    group_equal_partials,
    satisfied_acquisitions,
    shared_row_content,
    split_groups,
    trim_row_values,
)
from repro.queries.ast import Aggregate, AggregateOp, Query
from repro.queries.predicates import Interval, PredicateSet
from repro.tinydb.aggregation import PartialAggregate
from repro.tinydb.payloads import AggGroup


def _light(lo, hi):
    return PredicateSet({"light": Interval(lo, hi)})


class TestSatisfiedAcquisitions:
    def test_filters_by_predicate(self):
        q1 = Query.acquisition(["light"], _light(0, 500), 4096)
        q2 = Query.acquisition(["light"], _light(600, 1000), 4096)
        agg = Query.aggregation([Aggregate(AggregateOp.MAX, "light")], epoch_ms=4096)
        row = {"light": 300.0}
        assert satisfied_acquisitions([q1, q2, agg], row) == [q1]


class TestSharedRowContent:
    def test_attribute_union_and_qids(self):
        q1 = Query.acquisition(["light"], epoch_ms=4096, qid=1)
        q2 = Query.acquisition(["light", "temp"], epoch_ms=4096, qid=2)
        values, qids = shared_row_content([q1, q2],
                                          {"light": 1.0, "temp": 2.0, "nodeid": 3.0})
        assert values == {"light": 1.0, "temp": 2.0}
        assert qids == frozenset((1, 2))


class TestTrimRowValues:
    def test_drops_unneeded_attributes(self):
        q1 = Query.acquisition(["light"], epoch_ms=4096, qid=1)
        q2 = Query.acquisition(["temp"], epoch_ms=4096, qid=2)
        values = {"light": 1.0, "temp": 2.0}
        trimmed = trim_row_values(values, [q1, q2], frozenset((1,)))
        assert trimmed == {"light": 1.0}

    def test_unknown_qid_keeps_everything(self):
        q1 = Query.acquisition(["light"], epoch_ms=4096, qid=1)
        values = {"light": 1.0, "temp": 2.0}
        trimmed = trim_row_values(values, [q1], frozenset((1, 99)))
        assert trimmed == values


class TestGroupEqualPartials:
    def _p(self, value, op=AggregateOp.MAX, attr="light", count=1):
        return PartialAggregate(op, attr, value, count)

    def _state(self, *partials, group_key=()):
        """A query's grouped partial state with one bucket."""
        return {group_key: {p.key: p for p in partials}}

    def test_equal_partials_share_group(self):
        per_query = {
            1: self._state(self._p(9.0)),
            2: self._state(self._p(9.0)),
        }
        groups = group_equal_partials(per_query)
        assert len(groups) == 1
        assert groups[0].qids == frozenset((1, 2))

    def test_different_values_split_groups(self):
        per_query = {
            1: self._state(self._p(9.0)),
            2: self._state(self._p(5.0)),
        }
        groups = group_equal_partials(per_query)
        assert len(groups) == 2

    def test_different_operators_split_groups(self):
        per_query = {
            1: self._state(self._p(9.0)),
            2: self._state(self._p(9.0, op=AggregateOp.MIN)),
        }
        assert len(group_equal_partials(per_query)) == 2

    def test_count_differences_split_groups(self):
        """SUM/AVG partials with equal value but different counts are NOT
        interchangeable."""
        per_query = {
            1: self._state(self._p(9.0, op=AggregateOp.AVG, count=1)),
            2: self._state(self._p(9.0, op=AggregateOp.AVG, count=2)),
        }
        assert len(group_equal_partials(per_query)) == 2

    def test_different_group_keys_split_groups(self):
        """Equal partial values in different GROUP BY buckets never share."""
        per_query = {
            1: self._state(self._p(9.0), group_key=(3.0,)),
            2: self._state(self._p(9.0), group_key=(4.0,)),
        }
        groups = group_equal_partials(per_query)
        assert len(groups) == 2
        assert {g.group_key for g in groups} == {(3.0,), (4.0,)}

    def test_grouped_query_emits_one_group_per_bucket(self):
        per_query = {
            1: {(0.0,): {self._p(1.0).key: self._p(1.0)},
                (1.0,): {self._p(5.0).key: self._p(5.0)}},
        }
        groups = group_equal_partials(per_query)
        assert len(groups) == 2
        assert all(g.qids == frozenset((1,)) for g in groups)

    def test_empty_partials_skipped(self):
        per_query = {1: {}, 2: self._state(self._p(1.0))}
        groups = group_equal_partials(per_query)
        assert len(groups) == 1
        assert groups[0].qids == frozenset((2,))

    def test_deterministic_order(self):
        per_query = {
            3: self._state(self._p(1.0)),
            1: self._state(self._p(2.0)),
        }
        a = group_equal_partials(per_query)
        b = group_equal_partials(dict(reversed(list(per_query.items()))))
        assert [g.qids for g in a] == [g.qids for g in b]


class TestSplitGroups:
    def test_restricts_to_subset(self):
        p = PartialAggregate(AggregateOp.MAX, "light", 1.0, 1)
        groups = [AggGroup(frozenset((1, 2)), (p,)), AggGroup(frozenset((3,)), (p,))]
        result = split_groups(groups, frozenset((2, 3)))
        assert [g.qids for g in result] == [frozenset((2,)), frozenset((3,))]

    def test_empty_intersection_dropped(self):
        p = PartialAggregate(AggregateOp.MAX, "light", 1.0, 1)
        groups = [AggGroup(frozenset((1,)), (p,))]
        assert split_groups(groups, frozenset((9,))) == ()
