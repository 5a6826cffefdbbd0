"""Property-based tests for the planner's statistics store.

The planner merges :class:`~repro.service.StatisticsStore` samples taken
independently on each shard, serialises them into snapshots, and prices
predicates off the merged histograms — so three algebraic properties are
load-bearing rather than nice-to-have:

* **merge is commutative and associative** — shard samples arrive in
  arbitrary order, and the merged store must not depend on it.  Every
  mergeable field is an integer accumulator precisely so this holds
  *exactly* (bit-identical JSON), not merely approximately.
* **selectivity is monotone under predicate tightening** — shrinking an
  interval can never *raise* the estimate, or the optimizer would price
  a strictly narrower query above a broader one.
* **serialisation round-trips bit-identically** — a store shipped
  through JSON (snapshot, cross-shard transfer) prices every query the
  same as the original.
"""

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs import scoped
from repro.queries.predicates import PredicateSet
from repro.sensors.field import AttributeSpec
from repro.service import StatisticsStore

SPECS = (
    AttributeSpec("light", 0.0, 1000.0),
    AttributeSpec("temp", -10.0, 50.0),
)

_row = st.fixed_dictionaries({
    "light": st.floats(min_value=-100.0, max_value=1100.0,
                       allow_nan=False, allow_infinity=False),
    "temp": st.floats(min_value=-20.0, max_value=60.0,
                      allow_nan=False, allow_infinity=False),
})

_frame_obs = st.tuples(
    st.sampled_from(["result", "query", "abort", "maintenance"]),
    st.integers(min_value=0, max_value=50),
    st.floats(min_value=0.0, max_value=500.0,
              allow_nan=False, allow_infinity=False),
)


@st.composite
def stores(draw):
    """A StatisticsStore fed an arbitrary observation history."""
    store = StatisticsStore.from_specs(SPECS, n_buckets=8)
    with scoped():  # observe_* counts samples; keep it off the ambient registry
        for row in draw(st.lists(_row, max_size=20)):
            store.observe_row(row)
        for kind, frames, airtime_ms in draw(st.lists(_frame_obs,
                                                      max_size=8)):
            store.observe_frames(kind, frames, airtime_ms)
    store.nodes = draw(st.integers(min_value=0, max_value=64))
    store.sleep_us = draw(st.integers(min_value=0, max_value=10**9))
    store.node_time_us = draw(st.integers(min_value=0, max_value=10**9))
    for level in draw(st.lists(st.integers(1, 5), max_size=4)):
        store.level_sizes[level] = store.level_sizes.get(level, 0) + 1
    return store


def _canon(store):
    return store.to_json()


@settings(max_examples=60, deadline=None)
@given(a=stores(), b=stores())
def test_merge_commutative(a, b):
    assert _canon(a.merge(b)) == _canon(b.merge(a))


@settings(max_examples=40, deadline=None)
@given(a=stores(), b=stores(), c=stores())
def test_merge_associative(a, b, c):
    assert _canon(a.merge(b).merge(c)) == _canon(a.merge(b.merge(c)))


@settings(max_examples=60, deadline=None)
@given(store=stores())
def test_merge_with_empty_is_identity(store):
    empty = StatisticsStore.from_specs(SPECS, n_buckets=8)
    assert _canon(store.merge(empty)) == _canon(store)


@settings(max_examples=60, deadline=None)
@given(store=stores())
def test_json_round_trip_bit_identical(store):
    blob = store.to_json()
    assert StatisticsStore.from_json(blob).to_json() == blob
    # And the wire form itself is canonical (sorted, re-dumpable).
    assert json.dumps(json.loads(blob), sort_keys=True) == \
        json.dumps(json.loads(blob), sort_keys=True)


_interval = st.tuples(
    st.floats(min_value=-50.0, max_value=1050.0,
              allow_nan=False, allow_infinity=False),
    st.floats(min_value=-50.0, max_value=1050.0,
              allow_nan=False, allow_infinity=False),
).map(lambda pair: (min(pair), max(pair)))


@settings(max_examples=80, deadline=None)
@given(store=stores(), outer=_interval, shrink=st.tuples(
    st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
    st.floats(min_value=0.0, max_value=0.5, allow_nan=False)))
# Halving from both ends: in floats ``hi - span/2`` can land one ulp
# below ``lo + span/2``, which once built an inverted interval.
@example(store=StatisticsStore.from_specs(SPECS, n_buckets=8),
         outer=(-1.7537540114447374, 31.0), shrink=(0.5, 0.5))
def test_selectivity_monotone_under_tightening(store, outer, shrink):
    """Tightening a predicate interval never raises the estimate."""
    lo, hi = outer
    span = hi - lo
    tight_lo = lo + shrink[0] * span
    tight_hi = max(hi - shrink[1] * span, tight_lo)
    loose = PredicateSet.from_triples([("light", lo, hi)])
    tight = PredicateSet.from_triples([("light", tight_lo, tight_hi)])
    assert store.selectivity(tight) <= store.selectivity(loose) + 1e-12


@settings(max_examples=40, deadline=None)
@given(store=stores(), interval=_interval)
def test_selectivity_bounded(store, interval):
    lo, hi = interval
    predicates = PredicateSet.from_triples([("light", lo, hi),
                                            ("temp", -5.0, 30.0)])
    estimate = store.selectivity(predicates)
    assert 0.0 <= estimate <= 1.0


@settings(max_examples=40, deadline=None)
@given(store=stores())
def test_unknown_attribute_is_unconstrained(store):
    known = store.selectivity(PredicateSet.from_triples(
        [("light", 100.0, 900.0)]))
    with_unknown = store.selectivity(PredicateSet.from_triples(
        [("light", 100.0, 900.0), ("humidity", 0.0, 1.0)]))
    assert with_unknown == known
