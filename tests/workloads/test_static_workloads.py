"""Tests that the Figure 3 workloads have the rewritability structure the
paper's Section 4.2 narrative requires."""

from repro.core.basestation import BaseStationOptimizer
from repro.queries.semantics import mergeable
from repro.workloads.static_workloads import (
    STATIC_WORKLOADS,
    workload_a,
    workload_b,
    workload_c,
)


def _run_tier1(queries, cost_model):
    optimizer = BaseStationOptimizer(cost_model, alpha=0.6)
    for q in queries:
        optimizer.register(q)
    return optimizer


class TestWorkloadA:
    def test_tier1_collapses_everything(self, cost_model):
        """A is 'common savings': tier-1 folds all queries into one."""
        optimizer = _run_tier1(workload_a(), cost_model)
        assert optimizer.synthetic_count() == 1

    def test_epochs_divisible(self):
        epochs = {q.epoch_ms for q in workload_a()}
        smallest = min(epochs)
        assert all(e % smallest == 0 for e in epochs)


class TestWorkloadB:
    def test_tier1_mostly_stuck(self, cost_model):
        """B is the in-network showcase: tier-1 keeps most queries apart."""
        queries = workload_b()
        optimizer = _run_tier1(queries, cost_model)
        assert optimizer.synthetic_count() >= len(queries) - 3

    def test_aggregations_pairwise_unmergeable(self):
        aggs = [q for q in workload_b() if q.is_aggregation]
        distinct_preds = {q.predicates for q in aggs}
        assert len(distinct_preds) >= 2
        unmergeable_pairs = sum(
            1 for i, a in enumerate(aggs) for b in aggs[i + 1:]
            if not mergeable(a, b))
        assert unmergeable_pairs >= 2

    def test_contains_epoch_incompatible_pair(self):
        epochs = sorted({q.epoch_ms for q in workload_b()})
        assert any(b % a != 0 for a in epochs for b in epochs if b > a)


class TestWorkloadC:
    def test_aggregations_absorbed_by_acquisitions(self, cost_model):
        """C's aggregation queries derive from its acquisition queries, so
        tier-1 suppresses them from the network entirely."""
        optimizer = _run_tier1(workload_c(), cost_model)
        for synthetic in optimizer.synthetic_queries():
            assert synthetic.is_acquisition

    def test_still_leaves_epoch_incompatibility_for_tier2(self, cost_model):
        optimizer = _run_tier1(workload_c(), cost_model)
        epochs = sorted({q.epoch_ms for q in optimizer.synthetic_queries()})
        assert any(b % a != 0 for a in epochs for b in epochs if b > a)


class TestRegistry:
    def test_registry_contents(self):
        assert set(STATIC_WORKLOADS) == {"A", "B", "C"}
        for factory in STATIC_WORKLOADS.values():
            queries = factory()
            assert len(queries) >= 6
            # fresh qids on every call (workloads are reusable)
            again = factory()
            assert {q.qid for q in queries}.isdisjoint({q.qid for q in again})
