"""Unit tests for the tier-1 cost model (Eqs. 1-3)."""

import pytest

from repro.core.basestation.cost_model import CostModel, NetworkProfile
from repro.queries.ast import Aggregate, AggregateOp, Query
from repro.queries.predicates import Interval, PredicateSet
from repro.sensors.distributions import DistributionSet
from repro.sensors.field import standard_attributes


def _light(lo, hi):
    return PredicateSet({"light": Interval(lo, hi)})


@pytest.fixture
def profile():
    # 15 sensors over 2 levels: 7 at level 1, 8 at level 2 (the 4x4 grid)
    return NetworkProfile(level_sizes={1: 7, 2: 8}, c_start=2.0, c_trans=1 / 4.8)


@pytest.fixture
def model(profile):
    return CostModel(profile, DistributionSet.uniform(standard_attributes(16)))


class TestNetworkProfile:
    def test_from_topology(self, grid4):
        profile = NetworkProfile.from_topology(grid4)
        assert profile.level_sizes == {1: 7, 2: 8}
        assert profile.n_sensors == 15

    def test_uniform_depth_distributes_remainder(self):
        profile = NetworkProfile.uniform_depth(16, 3)
        assert sum(profile.level_sizes.values()) == 16
        assert profile.max_depth == 3
        sizes = sorted(profile.level_sizes.values())
        assert sizes[-1] - sizes[0] <= 1

    def test_average_depth(self, profile):
        assert profile.average_depth() == pytest.approx((7 * 1 + 8 * 2) / 15)


def _level_rate(model, query, level):
    """Eq. (1) for one level: Eq. (2)'s sum over a profile holding only
    that level's nodes, placed one hop out so the depth weight is 1."""
    size = model.profile.level_sizes.get(level, 0)
    one_level = CostModel(
        NetworkProfile(level_sizes={1: size}, c_start=model.profile.c_start,
                       c_trans=model.profile.c_trans),
        model.distributions)
    return one_level.transmissions_at(query, model.selectivity(query))


class TestEq1ResultRate:
    def test_full_selectivity(self, model):
        q = Query.acquisition(["light"], epoch_ms=4096)
        assert _level_rate(model, q, 1) == pytest.approx(7 / 4096)
        assert _level_rate(model, q, 2) == pytest.approx(8 / 4096)

    def test_selectivity_scales_rate(self, model):
        q = Query.acquisition(["light"], _light(0, 250), epoch_ms=4096)
        assert _level_rate(model, q, 1) == pytest.approx(0.25 * 7 / 4096)

    def test_unknown_level_is_zero(self, model):
        q = Query.acquisition(["light"], epoch_ms=4096)
        assert _level_rate(model, q, 9) == 0.0

    def test_longer_epoch_lower_rate(self, model):
        fast = Query.acquisition(["light"], epoch_ms=4096)
        slow = Query.acquisition(["light"], epoch_ms=8192)
        assert _level_rate(model, slow, 1) == pytest.approx(
            _level_rate(model, fast, 1) / 2)


class TestEq2Transmissions:
    def test_acquisition_weights_hops(self, model):
        q = Query.acquisition(["light"], epoch_ms=4096)
        # sum_k sel*|N_k|*k = 7*1 + 8*2 = 23 per epoch
        assert model.transmissions(q) == pytest.approx(23 / 4096)

    def test_aggregation_uses_lower_bound(self, model):
        q = Query.aggregation([Aggregate(AggregateOp.MAX, "light")], epoch_ms=4096)
        # lower bound: each contributing node transmits once: 15 per epoch
        assert model.transmissions(q) == pytest.approx(15 / 4096)

    def test_aggregation_cheaper_than_acquisition(self, model):
        """The lower bound makes aggregation cost <= acquisition cost for
        the same predicates/epoch — the conservative direction the paper
        argues for."""
        acq = Query.acquisition(["light"], epoch_ms=4096)
        agg = Query.aggregation([Aggregate(AggregateOp.MAX, "light")], epoch_ms=4096)
        assert model.transmissions(agg) < model.transmissions(acq)

    def test_selectivity_is_evaluated_once_per_cost(self):
        """Eq. 2 sums over five levels but evaluates ``sel(q)`` once."""
        class Counting(DistributionSet):
            calls = 0

            def probability(self, attribute, lo, hi):
                self.calls += 1
                return super().probability(attribute, lo, hi)

        distributions = Counting.uniform(standard_attributes(64))
        model = CostModel(NetworkProfile.uniform_depth(64, 5), distributions)
        q = Query.acquisition(["light"], _light(100.0, 600.0),
                              epoch_ms=4096)
        model.cost(q)
        assert distributions.calls == 1  # one predicate, one evaluation

    def test_planner_prices_with_the_same_sum(self, model):
        """QueryPlanner.price takes Eq. 2 from the cost model: the same
        bits at the planner's selectivity."""
        from repro.service.planner import QueryPlanner

        q = Query.acquisition(["light"], _light(100.0, 600.0),
                              epoch_ms=4096)
        price = QueryPlanner(model).price(q)
        assert price.transmissions_per_epoch == (
            model.transmissions(q) * 4096.0)


class TestEq3Cost:
    def test_cost_formula(self, model, profile):
        q = Query.acquisition(["light"], epoch_ms=4096)
        expected = model.transmissions(q) * (
            profile.c_start + profile.c_trans * model.message_length(q))
        assert model.cost(q) == pytest.approx(expected)

    def test_wider_messages_cost_more(self, model):
        narrow = Query.acquisition(["light"], epoch_ms=4096)
        wide = Query.acquisition(["light", "temp", "nodeid"], epoch_ms=4096)
        assert model.cost(wide) > model.cost(narrow)

    def test_benefit_definition(self, model):
        q1 = Query.acquisition(["light"], _light(100, 300), 4096)
        q2 = Query.acquisition(["light"], _light(280, 600), 4096)
        merged = Query.acquisition(["light"], _light(100, 600), 4096)
        assert model.benefit(q1, q2, merged) == pytest.approx(
            model.cost(q1) + model.cost(q2) - model.cost(merged))


class TestPaperWorkedExample:
    """Section 3.1.3: with uniform light and unit hop cost, q1+q2 is not
    beneficial, q2+q3 is, and the result cascades into q1."""

    @pytest.fixture
    def unit_model(self, paper_cost_model):
        return paper_cost_model

    def q(self, lo, hi, epoch):
        return Query.acquisition(["light"], _light(lo, hi), epoch)

    def test_q1_q2_not_beneficial(self, unit_model):
        q1 = self.q(280, 600, 2048)
        q2 = self.q(100, 300, 4096)
        merged = self.q(100, 600, 2048)
        assert unit_model.benefit(q1, q2, merged) < 0

    def test_q2_q3_beneficial(self, unit_model):
        q2 = self.q(100, 300, 4096)
        q3 = self.q(150, 500, 4096)
        merged = self.q(100, 500, 4096)
        assert unit_model.benefit(q2, q3, merged) > 0

    def test_cascade_beneficial(self, unit_model):
        q1 = self.q(280, 600, 2048)
        q23 = self.q(100, 500, 4096)
        merged = self.q(100, 600, 2048)
        assert unit_model.benefit(q1, q23, merged) > 0
