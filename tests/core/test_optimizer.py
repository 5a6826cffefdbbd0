"""Unit + property tests for the optimizer facade (register/terminate)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.basestation import BaseStationOptimizer
from repro.queries.ast import Query
from repro.queries.predicates import Interval, PredicateSet
from repro.queries.semantics import covers
from repro.workloads.generator import QueryGenerator, QueryModel


def _light(lo, hi):
    return PredicateSet({"light": Interval(lo, hi)})


def _acq(lo, hi, epoch=4096):
    return Query.acquisition(["light"], _light(lo, hi), epoch)


@pytest.fixture
def optimizer(paper_cost_model):
    return BaseStationOptimizer(paper_cost_model, alpha=0.6)


class TestRegister:
    def test_first_query_injects_one_synthetic(self, optimizer):
        actions = optimizer.register(_acq(100, 500))
        assert len(actions.inject) == 1
        assert actions.abort_qids == ()

    def test_covered_query_is_noop(self, optimizer):
        optimizer.register(_acq(0, 1000, 4096))
        actions = optimizer.register(_acq(200, 400, 8192))
        assert actions.is_noop
        assert optimizer.absorbed_operations == 1

    def test_merge_aborts_and_injects(self, optimizer):
        q2 = _acq(100, 300, 4096)
        q3 = _acq(150, 500, 4096)
        first = optimizer.register(q2)
        actions = optimizer.register(q3)
        assert actions.abort_qids == (first.inject[0].qid,)
        assert len(actions.inject) == 1

    def test_duplicate_registration_rejected(self, optimizer):
        q = _acq(0, 100)
        optimizer.register(q)
        with pytest.raises(ValueError):
            optimizer.register(q)

    def test_synthetic_for_tracks_mapping(self, optimizer):
        q = _acq(100, 500)
        optimizer.register(q)
        synthetic = optimizer.synthetic_for(q.qid)
        assert covers(synthetic, q)


class TestTerminate:
    def test_sole_query_termination_aborts(self, optimizer):
        q = _acq(100, 500)
        injected = optimizer.register(q).inject[0]
        actions = optimizer.terminate(q.qid)
        assert actions.abort_qids == (injected.qid,)
        assert actions.inject == ()
        assert optimizer.synthetic_count() == 0

    def test_covered_termination_is_noop(self, optimizer):
        wide = _acq(0, 1000, 4096)
        narrow = _acq(200, 400, 8192)
        optimizer.register(wide)
        optimizer.register(narrow)
        actions = optimizer.terminate(narrow.qid)
        assert actions.is_noop

    def test_unknown_termination_raises(self, optimizer):
        with pytest.raises(KeyError):
            optimizer.terminate(404)

    def test_costs_shrink_after_merge(self, optimizer):
        """Synthetic cost must never exceed the unoptimized user cost."""
        for q in (_acq(100, 300, 4096), _acq(150, 500, 4096), _acq(120, 520, 2048)):
            optimizer.register(q)
        assert optimizer.total_synthetic_cost() <= optimizer.total_user_cost() + 1e-12
        assert optimizer.total_benefit() >= 0


class TestInvalidAlpha:
    def test_negative_alpha_rejected(self, paper_cost_model):
        with pytest.raises(ValueError):
            BaseStationOptimizer(paper_cost_model, alpha=-0.1)


# ----------------------------------------------------------------------
# Property test: a random arrival/departure sequence keeps every invariant.
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.data())
def test_random_workload_preserves_invariants(seed, data):
    from repro.core.basestation import CostModel, NetworkProfile
    from repro.sensors.distributions import DistributionSet
    from repro.sensors.field import standard_attributes

    profile = NetworkProfile.uniform_depth(16, 3)
    model = CostModel(profile, DistributionSet.uniform(standard_attributes(16)))
    optimizer = BaseStationOptimizer(model, alpha=0.6)
    generator = QueryGenerator(QueryModel(), n_nodes=16, seed=seed)

    live = []
    for step in range(30):
        terminate = live and data.draw(st.booleans(), label=f"terminate@{step}")
        if terminate:
            victim = live.pop(data.draw(
                st.integers(0, len(live) - 1), label=f"victim@{step}"))
            optimizer.terminate(victim.qid)
        else:
            query = generator.next_query()
            live.append(query)
            optimizer.register(query)

        optimizer.table.validate()
        # every live user query is served by a covering synthetic query
        for q in live:
            synthetic = optimizer.synthetic_for(q.qid)
            assert covers(synthetic, q)
        # never more synthetic queries than live user queries
        assert optimizer.synthetic_count() <= max(len(live), 0) or not live


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 25))
def test_registrations_never_increase_modelled_cost(seed, n_queries):
    """Without terminations, greedy insertion only merges when beneficial,
    so the synthetic set never costs more than the raw user set.  (After
    *terminations* the inequality can transiently fail by design: Algorithm
    2 reconsiders a synthetic query only when some count drops to zero, so
    a merge that was beneficial thanks to a departed member may be kept.)
    """
    from repro.core.basestation import CostModel, NetworkProfile
    from repro.sensors.distributions import DistributionSet
    from repro.sensors.field import standard_attributes

    profile = NetworkProfile.uniform_depth(16, 3)
    model = CostModel(profile, DistributionSet.uniform(standard_attributes(16)))
    optimizer = BaseStationOptimizer(model, alpha=0.6)
    generator = QueryGenerator(QueryModel(), n_nodes=16, seed=seed)
    for _ in range(n_queries):
        optimizer.register(generator.next_query())
        assert (optimizer.total_synthetic_cost()
                <= optimizer.total_user_cost() + 1e-9)
        assert optimizer.total_benefit() >= -1e-9
