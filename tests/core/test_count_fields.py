"""Differentials: refcounted count fields vs. the recomputing originals.

Tier 1 used to answer every "did a count drop to zero?", "what is this
synthetic query's benefit?", "who was remapped?" and "is this synthetic
query reliable?" by walking the synthetic query's whole from_list.  The
functions that did so are kept *here*, verbatim, as the oracle; ``src/``
holds only the maintained-count versions, and these properties hold the two
to the same decisions on random inputs.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.basestation import BaseStationOptimizer, CostModel, NetworkProfile
from repro.core.basestation.insertion import insert_query
from repro.core.basestation.query_table import (
    CountFields,
    QueryTable,
    SyntheticQueryRecord,
)
from repro.core.basestation.rewriter import update_count
from repro.core.qos import QoSClass, strongest
from repro.queries.ast import Aggregate, AggregateOp, GroupBy, QidAllocator, Query
from repro.queries.predicates import Interval, PredicateSet
from repro.sensors.distributions import DistributionSet
from repro.sensors.field import standard_attributes


# ----------------------------------------------------------------------
# The oracle: the pre-refcount bodies, O(members) per call
# ----------------------------------------------------------------------
def oracle_attribute_counts(record):
    counts = {}
    for user in record.from_list.values():
        for attr in user.requested_attributes():
            counts[attr] = counts.get(attr, 0) + 1
    return counts


def oracle_aggregate_counts(record):
    counts = {}
    for user in record.from_list.values():
        for aggregate in user.aggregates:
            counts[aggregate] = counts.get(aggregate, 0) + 1
    return counts


def oracle_epoch_counts(record):
    counts = {}
    for user in record.from_list.values():
        counts[user.epoch_ms] = counts.get(user.epoch_ms, 0) + 1
    return counts


def oracle_over_requests(record):
    if not record.from_list:
        return True
    try:
        tight = record.tight_query()
    except ValueError:
        return True
    if tight.is_acquisition != record.query.is_acquisition:
        return True
    if tight.epoch_ms != record.query.epoch_ms:
        return True
    if set(tight.attributes) != set(record.query.attributes):
        return True
    if set(tight.aggregates) != set(record.query.aggregates):
        return True
    if tight.predicates != record.query.predicates:
        return True
    if (len(record.from_list) > 1
            and record.query.epoch_ms not in oracle_epoch_counts(record)):
        return True
    return False


def oracle_synthetic_benefit(record, cost_model):
    individual = sum(cost_model.cost(q) for q in record.from_list.values())
    return individual - cost_model.cost(record.query)


def oracle_terminate_query(user_qid, table, cost_model, alpha, qids):
    record = table.synthetic_for(user_qid)
    user = table.remove_user(user_qid)
    old_benefit = oracle_synthetic_benefit(record, cost_model)
    update_count(record, user.query, increment=False)
    if not record.from_list:
        table.remove_synthetic(record.qid)
        return
    if not oracle_over_requests(record):
        return
    if cost_model.cost(user.query) <= old_benefit * alpha:
        return
    table.remove_synthetic(record.qid)
    survivors = sorted(record.from_list.values(), key=lambda q: q.qid)
    for query in survivors:
        table.user[query.qid].synthetic_qid = None
    for query in survivors:
        insert_query(query, {query.qid: query}, table, cost_model, qids)


class OracleQoSRegistry:
    """The registry that re-derived every class from every member."""

    def __init__(self):
        self._user = {}
        self._synthetic = {}

    def register_user(self, qid, qos):
        self._user[qid] = qos

    def forget_user(self, qid):
        self._user.pop(qid, None)

    def user_class(self, qid):
        return self._user.get(qid, QoSClass.BEST_EFFORT)

    def reliable_qids(self):
        return {qid for qid, qos in self._synthetic.items()
                if qos is QoSClass.RELIABLE}

    def reset(self, user_classes=None):
        self._user.clear()
        self._synthetic.clear()
        self._user.update(user_classes or {})

    def sync_with_table(self, table):
        self._synthetic = {
            qid: strongest(self.user_class(member)
                           for member in record.from_list)
            for qid, record in table.synthetic.items()}


class OracleOptimizer(BaseStationOptimizer):
    """The facade over the oracle bodies: full scans on every step."""

    def __init__(self, cost_model, alpha):
        super().__init__(cost_model, alpha)
        self.qos_registry = OracleQoSRegistry()

    def terminate(self, user_qid):
        before = self._running_qids()
        oracle_terminate_query(user_qid, self.table, self.cost_model,
                               self.alpha, self.qids)
        self.qos_registry.forget_user(user_qid)
        self.qos_registry.sync_with_table(self.table)
        return self._diff(before)

    def total_benefit(self):
        return sum(oracle_synthetic_benefit(r, self.cost_model)
                   for r in self.table.synthetic.values())

    def total_user_cost(self):
        return sum(self.cost_model.cost(r.query)
                   for r in self.table.user.values())

    def total_synthetic_cost(self):
        return sum(self.cost_model.cost(q) for q in self.synthetic_queries())

    def _record_mappings(self):
        for user_qid, user in self.table.user.items():
            if user.synthetic_qid is None:
                continue
            history = self._mapping_history.setdefault(user_qid, [])
            if not history or history[-1] != user.synthetic_qid:
                history.append(user.synthetic_qid)
            self._synthetic_snapshots.setdefault(
                user.synthetic_qid,
                self.table.synthetic[user.synthetic_qid].query)


# ----------------------------------------------------------------------
# Inputs: a small domain, so bounds, epochs and whole queries collide
# ----------------------------------------------------------------------
ATTRIBUTES = ("light", "temp", "nodeid")
BOUNDS = (0.0, 100.0, 300.0, 600.0, 1000.0)
#: gcd(4096, 6144) = 2048 is neither input; gcd(4096, 8192) is one of them.
EPOCHS = (2048, 4096, 6144, 8192, 12288)

intervals = st.tuples(st.sampled_from(BOUNDS), st.sampled_from(BOUNDS)).map(
    lambda pair: Interval(min(pair), max(pair)))
predicate_sets = st.dictionaries(
    st.sampled_from(ATTRIBUTES), intervals, max_size=2).map(PredicateSet)
aggregates = st.builds(Aggregate, st.sampled_from(list(AggregateOp)[:3]),
                       st.sampled_from(ATTRIBUTES[:2]))
group_bys = st.sampled_from(
    [(), (), (GroupBy("nodeid"),), (GroupBy("light", 100.0),)])


@st.composite
def queries(draw, qid):
    epoch = draw(st.sampled_from(EPOCHS))
    predicates = draw(predicate_sets)
    if draw(st.booleans()):
        attributes = draw(st.lists(st.sampled_from(ATTRIBUTES), min_size=1,
                                   max_size=2, unique=True))
        return Query.acquisition(attributes, predicates, epoch, qid=qid)
    return Query.aggregation(
        draw(st.lists(aggregates, min_size=1, max_size=2, unique=True)),
        predicates, epoch, qid=qid, group_by=draw(group_bys))


@st.composite
def query_pools(draw, min_size, max_size):
    size = draw(st.integers(min_size, max_size))
    return [draw(queries(qid)) for qid in range(1, size + 1)]


def _cost_model(statistics):
    specs = standard_attributes(16)
    distributions = (DistributionSet.histograms(specs, n_buckets=5)
                     if statistics == "histogram"
                     else DistributionSet.uniform(specs))
    return CostModel(NetworkProfile.uniform_depth(16, 3), distributions)


# ----------------------------------------------------------------------
# One record: over_requests() and the accessors against the fold
# ----------------------------------------------------------------------
def _check_record(record):
    assert record.over_requests() == oracle_over_requests(record)
    assert record.attribute_counts() == oracle_attribute_counts(record)
    assert record.aggregate_counts() == oracle_aggregate_counts(record)
    assert record.epoch_counts() == oracle_epoch_counts(record)
    assert record.counts == CountFields.of(record.from_list.values())


def _record_sequence(pool, data):
    """Random add/remove on one record whose query is a fold of the pool.

    Folding a random subset gives tight records, stale ones (members the
    fold was built for have left: an alpha "keep") and records narrower
    than their members; an unfoldable subset falls back to a pool query.
    """
    folded = data.draw(st.lists(st.sampled_from(pool), min_size=1,
                                unique_by=lambda q: q.qid), label="folded")
    record = SyntheticQueryRecord(folded[0])
    for user in folded:
        record.add_user_query(user)
    try:
        synthetic = record.tight_query()
    except ValueError:
        synthetic = folded[0]
    record = SyntheticQueryRecord(
        Query(900, synthetic.attributes, synthetic.aggregates,
              synthetic.predicates, synthetic.epoch_ms, synthetic.group_by),
        from_list={q.qid: q for q in folded})
    _check_record(record)
    for step in range(data.draw(st.integers(1, 12), label="steps")):
        user = data.draw(st.sampled_from(pool), label=f"user@{step}")
        if user.qid in record.from_list:
            record.remove_user_query(user.qid)
        else:
            record.add_user_query(user)
        _check_record(record)


@settings(max_examples=100, deadline=None)
@given(query_pools(2, 7), st.data())
def test_over_requests_equals_the_fold(pool, data):
    _record_sequence(pool, data)


@pytest.mark.slow
@settings(max_examples=200, deadline=None)
@given(query_pools(2, 10), st.data())
def test_over_requests_equals_the_fold_deep(pool, data):
    _record_sequence(pool, data)


def _max_light(predicates, epoch, qid, group_by=()):
    return Query.aggregation([Aggregate(AggregateOp.MAX, "light")],
                             predicates, epoch, qid=qid, group_by=group_by)


def _light(lo, hi):
    return PredicateSet({"light": Interval(lo, hi)})


#: (why, synthetic query, members, over-requests?) — the corners a random
#: pool reaches rarely.
CORNERS = [
    ("aggregations that differ only in GROUP BY cannot share",
     _max_light(_light(0, 600), 4096, 900),
     [_max_light(_light(0, 600), 4096, 1),
      _max_light(_light(0, 600), 4096, 2, (GroupBy("nodeid"),))], True),
    ("aggregations that differ only in predicates cannot share",
     _max_light(_light(0, 600), 4096, 900),
     [_max_light(_light(0, 600), 4096, 1),
      _max_light(_light(0, 300), 4096, 2)], True),
    ("a synthetic narrower than a member is not tight, though its bound "
     "is some member's bound",
     Query.acquisition(["light"], _light(300, 600), 4096, qid=900),
     [Query.acquisition(["light"], _light(300, 600), 4096, qid=1),
      Query.acquisition(["light"], _light(100, 600), 4096, qid=2)], True),
    ("equal predicates everywhere: tested attributes are not returned",
     Query.acquisition(["temp"], _light(0, 600), 4096, qid=900),
     [Query.acquisition(["temp"], _light(0, 600), 4096, qid=1),
      Query.acquisition(["temp"], _light(0, 600), 8192, qid=2)], False),
    ("one narrower member: tested attributes are returned for re-filtering",
     Query.acquisition(["light", "temp"], _light(0, 600), 4096, qid=900),
     [Query.acquisition(["temp"], _light(0, 600), 4096, qid=1),
      Query.acquisition(["temp"], _light(0, 300), 4096, qid=2)], False),
    ("the GCD still equals the synthetic epoch, but nobody runs at it",
     Query.acquisition(["light"], epoch_ms=2048, qid=900),
     [Query.acquisition(["light"], epoch_ms=4096, qid=1),
      Query.acquisition(["light"], epoch_ms=6144, qid=2)], True),
    ("a sole member at a multiple of the synthetic epoch",
     Query.acquisition(["light"], epoch_ms=2048, qid=900),
     [Query.acquisition(["light"], epoch_ms=4096, qid=1)], True),
    ("an acquisition synthetic left holding one aggregation",
     Query.acquisition(["light"], epoch_ms=4096, qid=900),
     [_max_light(PredicateSet.true(), 4096, 1)], True),
    ("an acquisition absorbing an aggregation's input and predicate",
     Query.acquisition(["light", "temp"], epoch_ms=4096, qid=900),
     [Query.acquisition(["temp"], epoch_ms=4096, qid=1),
      _max_light(_light(0, 300), 4096, 2)], False),
]


@pytest.mark.parametrize("why,synthetic,members,expected", CORNERS,
                         ids=[corner[0] for corner in CORNERS])
def test_over_requests_corners(why, synthetic, members, expected):
    record = SyntheticQueryRecord(synthetic)
    for member in members:
        record.add_user_query(member)
    _check_record(record)
    assert record.over_requests() is expected


def test_re_adding_a_member_keeps_its_place_and_counts():
    first = Query.acquisition(["light"], epoch_ms=4096, qid=1)
    second = Query.acquisition(["temp"], epoch_ms=4096, qid=2)
    record = SyntheticQueryRecord(
        Query.acquisition(["light", "temp"], epoch_ms=4096, qid=900),
        from_list={1: first, 2: second})
    record.add_user_query(Query.acquisition(["nodeid"], epoch_ms=8192, qid=1))
    assert list(record.from_list) == [1, 2]
    _check_record(record)


# ----------------------------------------------------------------------
# Whole workloads: BaseStationOptimizer against the oracle optimizer
# ----------------------------------------------------------------------
@st.composite
def workloads(draw, max_queries):
    """(pool, events): arrive/terminate/observe over a random pool."""
    pool = draw(query_pools(2, max_queries))
    events, waiting, live = [], list(pool), []
    for _ in range(draw(st.integers(1, 3 * len(pool)))):
        kind = draw(st.sampled_from(["arrive", "arrive", "terminate",
                                     "observe"]))
        if kind == "arrive" and waiting:
            query = waiting.pop(draw(st.integers(0, len(waiting) - 1)))
            live.append(query)
            events.append(("arrive", query, draw(st.sampled_from(QoSClass))))
        elif kind == "terminate" and live:
            query = live.pop(draw(st.integers(0, len(live) - 1)))
            waiting.append(query)       # may arrive again under the same qid
            events.append(("terminate", query.qid))
        elif kind == "observe":
            events.append(("observe", draw(st.sampled_from(ATTRIBUTES[:2])),
                           draw(st.sampled_from(BOUNDS))))
    return pool, events


def _replay(optimizer_cls, statistics, alpha, events, restore_at=None):
    """Everything observable from one replay, step by step."""
    trace = []
    model = _cost_model(statistics)
    optimizer = optimizer_cls(model, alpha)
    optimizer.qids = QidAllocator(1000)
    for index, event in enumerate(events):
        if index == restore_at:
            state = json.loads(json.dumps(optimizer.snapshot_state()))
            qids = optimizer.qids
            optimizer = optimizer_cls(model, alpha)
            optimizer.restore_state(state)
            optimizer.qids = QidAllocator(qids.next_value)
        if event[0] == "arrive":
            trace.append(optimizer.register(event[1], qos=event[2]))
        elif event[0] == "terminate":
            trace.append(optimizer.terminate(event[1]))
        else:
            model.distributions.observe(event[1], event[2])
        optimizer.table.validate()
        trace.append(optimizer.snapshot_state())
        trace.append(sorted(optimizer.qos_registry.reliable_qids()))
        trace.append((optimizer.total_benefit(),
                      optimizer.total_user_cost(),
                      optimizer.total_synthetic_cost()))
    trace.append({qid: optimizer.synthetic_history(qid)
                  for qid in range(1, 40)})
    return trace


def _differential(workload, statistics, alpha, restore_at=None):
    _, events = workload
    if restore_at is not None:
        restore_at %= max(len(events), 1)
    new = _replay(BaseStationOptimizer, statistics, alpha, events, restore_at)
    old = _replay(OracleOptimizer, statistics, alpha, events, restore_at)
    assert new == old


statistics_kinds = st.sampled_from(["uniform", "histogram"])
alphas = st.sampled_from([0.0, 0.3, 0.6, 1.0, 4.0])


@settings(max_examples=40, deadline=None)
@given(workloads(10), statistics_kinds, alphas)
def test_optimizer_equals_the_oracle(workload, statistics, alpha):
    _differential(workload, statistics, alpha)


@settings(max_examples=40, deadline=None)
@given(workloads(10), statistics_kinds, alphas, st.integers(0, 100))
def test_optimizer_equals_the_oracle_across_a_restore(workload, statistics,
                                                      alpha, restore_at):
    _differential(workload, statistics, alpha, restore_at)


@pytest.mark.slow
@settings(max_examples=60, deadline=None)
@given(workloads(16), statistics_kinds, alphas,
       st.one_of(st.none(), st.integers(0, 100)))
def test_optimizer_equals_the_oracle_deep(workload, statistics, alpha,
                                          restore_at):
    _differential(workload, statistics, alpha, restore_at)


# ----------------------------------------------------------------------
# The drift guard and the single writer of qid'
# ----------------------------------------------------------------------
def _two_member_table():
    table = QueryTable()
    users = [Query.acquisition(["light"], epoch_ms=4096, qid=1),
             Query.acquisition(["temp"], epoch_ms=8192, qid=2)]
    for user in users:
        table.add_user(user)
    table.add_synthetic(SyntheticQueryRecord(
        Query.acquisition(["light", "temp"], epoch_ms=4096, qid=900),
        from_list={q.qid: q for q in users}))
    return table


def test_validate_catches_count_drift():
    table = _two_member_table()
    table.validate()
    record = table.synthetic[900]
    record.from_list[3] = Query.acquisition(["light"], epoch_ms=4096, qid=3)
    with pytest.raises(AssertionError, match="drifted"):
        record.validate()


def test_from_dict_recounts():
    table = _two_member_table()
    clone = QueryTable.from_dict(json.loads(json.dumps(table.to_dict())))
    assert clone.synthetic[900].counts == table.synthetic[900].counts
    assert clone.synthetic[900].epoch_counts() == {4096: 1, 8192: 1}
    clone.synthetic[900].remove_user_query(1)
    assert clone.synthetic[900].over_requests()


def test_assign_is_the_remap_log():
    table = _two_member_table()
    assert table.take_remapped() == {1, 2}
    assert table.take_remapped() == set()
    table.assign(1, None)
    table.assign(2, 900)
    table.assign(77, 900)           # no user record: skipped
    table.remove_user(1)            # gone users leave the log
    assert table.take_remapped() == {2}
    assert table.user[2].synthetic_qid == 900
