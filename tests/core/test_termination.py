"""Unit tests for Algorithm 2 (adaptive termination) and the alpha knob."""

import pytest

from repro.core.basestation.insertion import insert_query
from repro.core.basestation.query_table import QueryTable
from repro.core.basestation.termination import synthetic_benefit, terminate_query
from repro.queries.ast import QidAllocator, Query
from repro.queries.predicates import Interval, PredicateSet


#: Synthetic qids, clear of the user qids the tests build.
QIDS = QidAllocator(1_000_000)


def _light(lo, hi):
    return PredicateSet({"light": Interval(lo, hi)})


def _acq(lo, hi, epoch=4096):
    return Query.acquisition(["light"], _light(lo, hi), epoch)


def _setup(model, queries):
    table = QueryTable()
    for q in queries:
        table.add_user(q)
        insert_query(q, {q.qid: q}, table, model, QIDS)
    table.validate()
    return table


class TestSimpleTermination:
    def test_last_member_kills_synthetic(self, paper_cost_model):
        q = _acq(100, 500)
        table = _setup(paper_cost_model, [q])
        terminate_query(q.qid, table, paper_cost_model, alpha=0.6, qids=QIDS)
        assert table.synthetic == {}
        assert table.user == {}

    def test_unknown_query_raises(self, paper_cost_model):
        table = _setup(paper_cost_model, [])
        with pytest.raises(KeyError):
            terminate_query(42, table, paper_cost_model, alpha=0.6, qids=QIDS)

    def test_covered_member_leaves_silently(self, paper_cost_model):
        """Removing a query that required nothing unique never rebuilds."""
        wide = _acq(0, 1000, 4096)
        narrow = _acq(200, 400, 8192)
        table = _setup(paper_cost_model, [wide, narrow])
        before = set(table.synthetic)
        terminate_query(narrow.qid, table, paper_cost_model, alpha=0.0, qids=QIDS)
        assert set(table.synthetic) == before  # even with alpha=0
        table.validate()


class TestAlphaBranch:
    def _merged_pair(self, model):
        """Two queries merged into one synthetic, where removing either
        leaves the synthetic over-requesting."""
        q_cheap = _acq(100, 460, 4096)   # low cost: narrow + slow
        q_big = _acq(120, 600, 2048)     # the dominant member
        return q_cheap, q_big, _setup(model, [q_cheap, q_big])

    def test_small_alpha_forces_rebuild(self, paper_cost_model):
        q_cheap, q_big, table = self._merged_pair(paper_cost_model)
        assert len(table.synthetic) == 1
        old_qid = next(iter(table.synthetic))
        terminate_query(q_cheap.qid, table, paper_cost_model, alpha=0.0, qids=QIDS)
        # rebuild: the old synthetic is gone, a tight one replaces it
        assert old_qid not in table.synthetic
        assert len(table.synthetic) == 1
        tight = next(iter(table.synthetic.values()))
        assert tight.query.predicates == q_big.predicates
        table.validate()

    def test_large_alpha_keeps_old_synthetic(self, paper_cost_model):
        q_cheap, q_big, table = self._merged_pair(paper_cost_model)
        old_qid = next(iter(table.synthetic))
        terminate_query(q_cheap.qid, table, paper_cost_model, alpha=100.0, qids=QIDS)
        assert set(table.synthetic) == {old_qid}  # unchanged
        record = table.synthetic[old_qid]
        assert set(record.from_list) == {q_big.qid}
        table.validate()

    def test_threshold_uses_old_benefit(self, paper_cost_model):
        """The keep condition is cost(q) <= benefit * alpha with the benefit
        evaluated before removal; choosing alpha just above/below the ratio
        flips the decision."""
        q_cheap, q_big, table = self._merged_pair(paper_cost_model)
        record = next(iter(table.synthetic.values()))
        ratio = (paper_cost_model.cost(q_cheap)
                 / synthetic_benefit(record, paper_cost_model))
        old_qid = record.qid

        # keep: alpha slightly above the ratio
        keep_table = _setup(paper_cost_model, [_acq(100, 460, 4096), _acq(120, 600, 2048)])
        keep_ids = set(keep_table.synthetic)
        first_user = min(keep_table.user)
        terminate_query(first_user, keep_table, paper_cost_model,
                        alpha=ratio * 1.01, qids=QIDS)
        assert set(keep_table.synthetic) == keep_ids

        # rebuild: alpha slightly below the ratio
        terminate_query(q_cheap.qid, table, paper_cost_model,
                        alpha=ratio * 0.99, qids=QIDS)
        assert old_qid not in table.synthetic


class TestRebuildReinsertion:
    def test_survivors_can_remerge(self, paper_cost_model):
        """After a rebuild, surviving queries that still benefit from each
        other merge again (re-inserted 'in the same way as newly arrival
        queries')."""
        a = _acq(100, 300, 4096)
        b = _acq(150, 500, 4096)
        c = _acq(120, 520, 2048)
        table = _setup(paper_cost_model, [a, b, c])
        terminate_query(c.qid, table, paper_cost_model, alpha=0.0, qids=QIDS)
        # a and b alone are still a beneficial pair (the paper's example)
        assert len(table.synthetic) == 1
        record = next(iter(table.synthetic.values()))
        assert set(record.from_list) == {a.qid, b.qid}
        assert record.query.epoch_ms == 4096
        table.validate()

    def test_benefit_is_sum_minus_synthetic_cost(self, paper_cost_model):
        a = _acq(100, 300, 4096)
        b = _acq(150, 500, 4096)
        table = _setup(paper_cost_model, [a, b])
        record = next(iter(table.synthetic.values()))
        expected = (paper_cost_model.cost(a) + paper_cost_model.cost(b)
                    - paper_cost_model.cost(record.query))
        assert synthetic_benefit(record, paper_cost_model) == pytest.approx(expected)
