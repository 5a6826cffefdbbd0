"""Property tests: query -> str -> parse round-trips.

``Query.__str__`` renders the TinyDB dialect the parser accepts, so any
query with finite predicate bounds must survive a round trip unchanged.
"""

from hypothesis import given, strategies as st

from repro.queries.ast import Aggregate, AggregateOp, Query
from repro.queries.parser import parse_query
from repro.queries.predicates import Interval, PredicateSet

_attr = st.sampled_from(["light", "temp", "nodeid"])
_epoch = st.sampled_from([2048, 4096, 6144, 8192, 12288, 24576])


@st.composite
def _finite_predicates(draw):
    constraints = {}
    for attr in draw(st.sets(_attr, max_size=3)):
        lo = draw(st.floats(0, 900, allow_nan=False, allow_infinity=False))
        width = draw(st.floats(0.5, 100, allow_nan=False, allow_infinity=False))
        constraints[attr] = Interval(round(lo, 3), round(lo + width, 3))
    return PredicateSet(constraints)


@st.composite
def _printable_query(draw):
    predicates = draw(_finite_predicates())
    epoch = draw(_epoch)
    if draw(st.booleans()):
        attrs = sorted(draw(st.sets(_attr, min_size=1, max_size=3)))
        return Query.acquisition(attrs, predicates, epoch)
    ops = draw(st.sets(st.sampled_from(list(AggregateOp)), min_size=1,
                       max_size=2))
    aggregates = [Aggregate(op, draw(_attr)) for op in sorted(ops, key=lambda o: o.value)]
    # Query forbids duplicate aggregates; dedupe on (op, attr)
    unique = list({(a.op, a.attribute): a for a in aggregates}.values())
    return Query.aggregation(unique, predicates, epoch)


@given(_printable_query())
def test_str_parse_roundtrip(query):
    reparsed = parse_query(str(query))
    assert reparsed.attributes == query.attributes
    assert set(reparsed.aggregates) == set(query.aggregates)
    assert reparsed.epoch_ms == query.epoch_ms
    assert reparsed.predicates == query.predicates


@given(_printable_query())
def test_roundtrip_is_idempotent(query):
    once = parse_query(str(query))
    twice = parse_query(str(once))
    assert str(once) == str(twice)
