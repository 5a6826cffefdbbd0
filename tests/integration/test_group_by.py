"""End-to-end tests for GROUP BY aggregation (the 'complex queries'
extension the paper defers to future work).

``SELECT AVG(temp) FROM sensors GROUP BY light / 250 EPOCH DURATION 8192``
partitions nodes into light buckets and aggregates temp per bucket, with
partials merged per group in-network exactly like ungrouped partials.
"""

import pytest

from repro.core.basestation import ResultMapper
from repro.harness import DeploymentConfig, Strategy, run_workload_live
from repro.queries import parse_query
from repro.queries.ast import AggregateOp, GroupBy
from repro.tinydb.aggregation import compute_grouped_aggregates
from repro.workloads import Workload


def _ground_truth(world, topo, query, t):
    rows = []
    for node in topo.node_ids:
        if node == topo.base_station:
            continue
        row = world.sample_many(node, query.requested_attributes(), t)
        if query.predicates.matches(row):
            rows.append(row)
    return compute_grouped_aggregates(query.aggregates, query.group_by, rows)


class TestGroupByAst:
    def test_parse_group_by(self):
        q = parse_query("SELECT AVG(temp) FROM sensors GROUP BY light / 250 "
                        "EPOCH DURATION 8192")
        assert q.group_by == (GroupBy("light", 250.0),)

    def test_parse_multiple_terms(self):
        q = parse_query("SELECT COUNT(nodeid) FROM sensors "
                        "GROUP BY light / 500, temp / 50 EPOCH DURATION 8192")
        assert len(q.group_by) == 2

    def test_group_by_on_acquisition_rejected(self):
        from repro.queries.parser import ParseError

        with pytest.raises(ParseError):
            parse_query("SELECT light FROM sensors GROUP BY temp "
                        "EPOCH DURATION 8192")

    def test_group_key_bucketing(self):
        q = parse_query("SELECT MAX(temp) FROM sensors GROUP BY light / 250 "
                        "EPOCH DURATION 8192")
        assert q.group_key({"light": 0.0}) == (0.0,)
        assert q.group_key({"light": 249.9}) == (0.0,)
        assert q.group_key({"light": 250.0}) == (1.0,)
        assert q.group_key({"light": 999.0}) == (3.0,)

    def test_group_attribute_is_requested(self):
        q = parse_query("SELECT MAX(temp) FROM sensors GROUP BY light / 250 "
                        "EPOCH DURATION 8192")
        assert "light" in q.requested_attributes()

    def test_roundtrip(self):
        text = ("SELECT MAX(temp) FROM sensors GROUP BY light / 250 "
                "EPOCH DURATION 8192")
        q = parse_query(text)
        assert parse_query(str(q)).group_by == q.group_by


@pytest.mark.parametrize("strategy", [Strategy.BASELINE, Strategy.TTMQO],
                         ids=["baseline", "ttmqo"])
class TestGroupByEndToEnd:
    def test_grouped_aggregates_match_ground_truth(self, strategy):
        query = parse_query(
            "SELECT MAX(temp), COUNT(temp) FROM sensors "
            "GROUP BY light / 250 EPOCH DURATION 8192")
        workload = Workload.static([query], duration_ms=90_000.0)
        result = run_workload_live(strategy, workload,
                              DeploymentConfig(side=4, seed=37))
        deployment = result.deployment
        network_qid = deployment.network_query_for(query.qid).qid
        log = deployment.results
        epochs = log.aggregate_epochs(network_qid)
        assert len(epochs) >= 8

        max_temp = next(a for a in query.aggregates
                        if a.op is AggregateOp.MAX)
        count_temp = next(a for a in query.aggregates
                          if a.op is AggregateOp.COUNT)
        exact_epochs = 0
        for t in epochs[1:]:
            truth = _ground_truth(deployment.world, deployment.topology,
                                  query, t)
            keys = log.group_keys(network_qid, t)
            expected_keys = sorted((k[0],) for k in truth)
            if sorted(keys) != expected_keys:
                continue  # a lost frame dropped a bucket; count exact only
            ok = True
            for key in keys:
                got_max = log.aggregate(network_qid, t, max_temp, key)
                got_count = log.aggregate(network_qid, t, count_temp, key)
                truth_vals = truth[key]
                if got_max != pytest.approx(truth_vals[max_temp]):
                    ok = False
                if got_count != truth_vals[count_temp]:
                    ok = False
            exact_epochs += ok
        assert exact_epochs >= len(epochs[1:]) * 0.8

    def test_counts_sum_to_population(self, strategy):
        """Group COUNTs across buckets must sum to the sensor population
        (every node falls into exactly one bucket)."""
        query = parse_query("SELECT COUNT(light) FROM sensors "
                            "GROUP BY light / 500 EPOCH DURATION 8192")
        workload = Workload.static([query], duration_ms=60_000.0)
        result = run_workload_live(strategy, workload,
                              DeploymentConfig(side=4, seed=38))
        deployment = result.deployment
        network_qid = deployment.network_query_for(query.qid).qid
        log = deployment.results
        count_agg = query.aggregates[0]
        good = 0
        epochs = log.aggregate_epochs(network_qid)[1:]
        for t in epochs:
            total = sum(log.aggregate(network_qid, t, count_agg, key) or 0
                        for key in log.group_keys(network_qid, t))
            good += (total == deployment.topology.size - 1)
        assert good >= len(epochs) * 0.8


class TestGroupByMapping:
    def test_grouped_queries_merge_when_identical_grouping(self,
                                                           paper_cost_model):
        from repro.core.basestation import BaseStationOptimizer

        optimizer = BaseStationOptimizer(paper_cost_model, alpha=0.6)
        a = parse_query("SELECT MAX(temp) FROM sensors GROUP BY light / 250 "
                        "EPOCH DURATION 8192")
        b = parse_query("SELECT MIN(temp) FROM sensors GROUP BY light / 250 "
                        "EPOCH DURATION 16384")
        optimizer.register(a)
        optimizer.register(b)
        assert optimizer.synthetic_count() == 1
        merged = optimizer.synthetic_queries()[0]
        assert merged.group_by == a.group_by
        assert len(merged.aggregates) == 2

    def test_different_grouping_blocks_merge(self, paper_cost_model):
        from repro.core.basestation import BaseStationOptimizer

        optimizer = BaseStationOptimizer(paper_cost_model, alpha=0.6)
        a = parse_query("SELECT MAX(temp) FROM sensors GROUP BY light / 250 "
                        "EPOCH DURATION 8192")
        b = parse_query("SELECT MAX(temp) FROM sensors GROUP BY light / 500 "
                        "EPOCH DURATION 8192")
        optimizer.register(a)
        optimizer.register(b)
        assert optimizer.synthetic_count() == 2

    def test_grouped_query_absorbed_by_acquisition(self, paper_cost_model):
        """An acquisition query returning light+temp covers a grouped
        aggregate; the base station recomputes groups from rows."""
        from repro.core.basestation import BaseStationOptimizer
        from repro.tinydb.results import ResultLog

        optimizer = BaseStationOptimizer(paper_cost_model, alpha=0.6)
        acq = parse_query("SELECT light, temp FROM sensors "
                          "EPOCH DURATION 8192")
        grouped = parse_query("SELECT MAX(temp) FROM sensors "
                              "GROUP BY light / 500 EPOCH DURATION 8192")
        optimizer.register(acq)
        optimizer.register(grouped)
        assert optimizer.synthetic_count() == 1
        synthetic = optimizer.synthetic_for(grouped.qid)
        assert synthetic.is_acquisition

        log = ResultLog()
        log.add_row(synthetic.qid, 8192.0, 1, {"light": 100.0, "temp": 10.0})
        log.add_row(synthetic.qid, 8192.0, 2, {"light": 200.0, "temp": 30.0})
        log.add_row(synthetic.qid, 8192.0, 3, {"light": 700.0, "temp": 50.0})
        mapper = ResultMapper(log)
        answers = mapper.aggregation_results(grouped, synthetic)
        by_key = {a.group_key: a.values for a in answers}
        assert by_key[(0.0,)][grouped.aggregates[0]] == 30.0
        assert by_key[(1.0,)][grouped.aggregates[0]] == 50.0