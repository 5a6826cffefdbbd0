"""The stored ``cost(q)``: once per query and statistics version, never stale,
never larger than the live table."""

import pytest

from repro.core.basestation import BaseStationOptimizer, CostModel, NetworkProfile
from repro.queries.ast import Query
from repro.queries.predicates import Interval, PredicateSet
from repro.sensors.distributions import DistributionSet
from repro.sensors.field import standard_attributes


def _acq(lo, hi, epoch=4096):
    return Query.acquisition(
        ["light"], PredicateSet({"light": Interval(lo, hi)}), epoch)


class CountingCostModel(CostModel):
    """Counts Eq. 3 evaluations."""

    evaluations = 0

    def cost(self, query):
        self.evaluations += 1
        return super().cost(query)


def _optimizer(statistics):
    specs = standard_attributes(16)
    distributions = (DistributionSet.histograms(specs)
                     if statistics == "histogram"
                     else DistributionSet.uniform(specs))
    model = CountingCostModel(NetworkProfile.uniform_depth(16, 3),
                              distributions)
    optimizer = BaseStationOptimizer(model, alpha=0.6)
    for query in (_acq(0, 900), _acq(100, 500), _acq(200, 400, 8192)):
        optimizer.register(query)
    return optimizer, model


def _fresh_user_cost(optimizer):
    model = optimizer.cost_model
    return sum(CostModel.cost(model, r.query)
               for r in optimizer.table.user.values())


class TestStatisticsVersion:
    def test_histogram_observation_reprices(self):
        optimizer, model = _optimizer("histogram")
        before = optimizer.total_user_cost()
        assert before == _fresh_user_cost(optimizer)
        for _ in range(200):
            model.distributions.observe("light", 50.0)
        assert model.version == 200
        after = optimizer.total_user_cost()
        assert after != before
        assert after == _fresh_user_cost(optimizer)
        assert optimizer.total_benefit() == pytest.approx(
            after - optimizer.total_synthetic_cost())

    def test_uniform_observation_keeps_the_stored_costs(self):
        optimizer, model = _optimizer("uniform")
        before = optimizer.total_user_cost()
        optimizer.total_benefit()
        evaluations = model.evaluations
        model.distributions.observe("light", 50.0)
        assert model.version == 0
        assert optimizer.total_user_cost() == before
        optimizer.total_benefit()
        optimizer.total_synthetic_cost()
        assert model.evaluations == evaluations

    def test_unknown_attribute_does_not_bump(self):
        distributions = DistributionSet.histograms(standard_attributes(16))
        distributions.observe("humidity", 5.0)
        assert distributions.version == 0

    def test_a_query_is_priced_once(self):
        optimizer, model = _optimizer("uniform")
        optimizer.total_user_cost()
        evaluations = model.evaluations
        for _ in range(5):
            optimizer.total_user_cost()
            optimizer.total_benefit()
        assert model.evaluations <= evaluations + 1     # cost(sq), once

    def test_another_cost_model_is_not_served_stale_costs(self):
        optimizer, model = _optimizer("uniform")
        record = next(iter(optimizer.table.synthetic.values()))
        cheap = CostModel(NetworkProfile.uniform_depth(16, 3, c_start=1.0,
                                                       c_trans=0.0),
                          model.distributions)
        assert record.cost(model) == CostModel.cost(model, record.query)
        assert record.cost(cheap) == cheap.cost(record.query)
        assert record.cost(cheap) != record.cost(model)


def test_cost_store_does_not_grow_with_history():
    """10 000 distinct register/terminate pairs; at most 8 queries live."""
    specs = standard_attributes(16)
    optimizer = BaseStationOptimizer(
        CostModel(NetworkProfile.uniform_depth(16, 3),
                  DistributionSet.uniform(specs)), alpha=0.6)
    live = []
    for index in range(10_000):
        query = _acq(index % 300, 400 + index % 500,
                     4096 * (1 + index % 3))
        optimizer.register(query)
        live.append(query.qid)
        if len(live) > 8:
            optimizer.terminate(live.pop(0))
    table = optimizer.table
    stored = sum(len(record._member_costs)
                 for record in table.synthetic.values())
    assert stored <= len(table.user) == 8
    assert not table.remapped
    table.validate()
