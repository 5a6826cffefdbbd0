"""Unit tests for the DAG neighbour view and dynamic parent selection."""

import random
from dataclasses import asdict

import pytest

from repro.core.innetwork.dag import UpperNeighborView


@pytest.fixture
def view():
    """Three upper neighbours with distinct link qualities."""
    return UpperNeighborView([10, 11, 12], {10: 0.9, 11: 0.7, 12: 0.5})


class TestEvidence:
    def test_fresh_has_data(self, view):
        view.note_has_data(10, qid=1, now=100.0)
        assert view.has_data(10, 1, now=200.0)

    def test_evidence_goes_stale(self):
        view = UpperNeighborView([10], {10: 0.9}, freshness_ms=1000.0)
        view.note_has_data(10, qid=1, now=100.0)
        assert view.has_data(10, 1, now=1000.0)
        assert not view.has_data(10, 1, now=1200.0)

    def test_unknown_neighbor_ignored(self, view):
        view.note_has_data(99, qid=1, now=0.0)  # not an upper neighbour
        assert not view.has_data(99, 1, now=0.0)

    def test_drop_query_forgets(self, view):
        view.note_has_data(10, qid=1, now=0.0)
        view.drop_query(1)
        assert not view.has_data(10, 1, now=0.0)

    def test_unreachable_backoff(self, view):
        view.note_unreachable(10, now=100.0, backoff_ms=1000.0)
        assert not view.is_available(10, now=500.0)
        assert view.is_available(10, now=1200.0)

    def test_hearing_clears_unreachable(self, view):
        view.note_unreachable(10, now=100.0, backoff_ms=10_000.0)
        view.note_heard(10, now=200.0)
        assert view.is_available(10, now=300.0)


def _reset_on_every_frame(view, neighbor, now):
    """``note_heard`` as it was: every frame heard resets the streak."""
    info = view._info.get(neighbor)
    if info is None:
        return None
    info.unavailable_until = float("-inf")
    recovery = None
    if info.evicted and info.first_failure_at is not None:
        recovery = now - info.first_failure_at
    info.evicted = False
    info.failures = 0
    info.first_failure_at = None
    return recovery


def test_hearing_without_a_streak_changes_nothing():
    rng = random.Random(7)
    shipped, oracle = (UpperNeighborView([10, 11], {10: 0.9, 11: 0.5},
                                         evict_after=3) for _ in range(2))
    for step in range(3_000):
        now, neighbor = float(step), rng.choice((10, 11, 99))
        if rng.random() < 0.3:
            assert shipped.note_unreachable(neighbor, now, 100.0) == \
                oracle.note_unreachable(neighbor, now, 100.0)
        else:
            assert shipped.note_heard(neighbor, now) == \
                _reset_on_every_frame(oracle, neighbor, now)
        assert {n: asdict(info) for n, info in shipped._info.items()} == \
            {n: asdict(info) for n, info in oracle._info.items()}


class TestParentSelection:
    def test_no_evidence_falls_back_to_best_quality(self, view):
        assignment = view.select_parents(frozenset((1, 2)), now=0.0)
        assert assignment == {10: frozenset((1, 2))}  # quality 0.9 wins

    def test_prefers_neighbor_with_data(self, view):
        view.note_has_data(12, qid=1, now=0.0)
        view.note_has_data(12, qid=2, now=0.0)
        assignment = view.select_parents(frozenset((1, 2)), now=1.0)
        assert assignment == {12: frozenset((1, 2))}

    def test_most_coverage_wins_over_quality(self, view):
        view.note_has_data(10, qid=1, now=0.0)       # good quality, 1 query
        view.note_has_data(12, qid=1, now=0.0)       # poor quality, 2 queries
        view.note_has_data(12, qid=2, now=0.0)
        assignment = view.select_parents(frozenset((1, 2)), now=1.0)
        assert assignment == {12: frozenset((1, 2))}

    def test_quality_breaks_coverage_ties(self, view):
        view.note_has_data(10, qid=1, now=0.0)
        view.note_has_data(11, qid=1, now=0.0)
        assignment = view.select_parents(frozenset((1,)), now=1.0)
        assert assignment == {10: frozenset((1,))}  # higher quality

    def test_multicast_split_when_no_single_cover(self, view):
        view.note_has_data(10, qid=1, now=0.0)
        view.note_has_data(11, qid=2, now=0.0)
        assignment = view.select_parents(frozenset((1, 2)), now=1.0)
        assert assignment == {10: frozenset((1,)), 11: frozenset((2,))}

    def test_uncovered_queries_ride_with_fallback(self, view):
        view.note_has_data(11, qid=1, now=0.0)
        assignment = view.select_parents(frozenset((1, 2, 3)), now=1.0)
        assert assignment[11] >= frozenset((1,))
        # queries 2 and 3 go to the best-quality candidate
        covered = frozenset().union(*assignment.values())
        assert covered == frozenset((1, 2, 3))

    def test_unavailable_neighbors_skipped(self, view):
        view.note_has_data(10, qid=1, now=0.0)
        view.note_unreachable(10, now=0.0, backoff_ms=10_000.0)
        assignment = view.select_parents(frozenset((1,)), now=1.0)
        assert 10 not in assignment

    def test_all_unavailable_falls_back_to_everyone(self, view):
        for n in (10, 11, 12):
            view.note_unreachable(n, now=0.0, backoff_ms=10_000.0)
        assignment = view.select_parents(frozenset((1,)), now=1.0)
        assert assignment  # something is still chosen rather than dropping

    def test_exclusion_respected(self, view):
        assignment = view.select_parents(frozenset((1,)), now=0.0,
                                         exclude={10})
        assert 10 not in assignment

    def test_all_excluded_returns_empty(self, view):
        assignment = view.select_parents(frozenset((1,)), now=0.0,
                                         exclude={10, 11, 12})
        assert assignment == {}

    def test_assignment_partitions_queries(self, view):
        view.note_has_data(10, qid=1, now=0.0)
        view.note_has_data(11, qid=2, now=0.0)
        view.note_has_data(12, qid=3, now=0.0)
        assignment = view.select_parents(frozenset((1, 2, 3)), now=1.0)
        all_qids = sorted(q for qs in assignment.values() for q in qs)
        assert all_qids == [1, 2, 3]  # no duplicates, nothing lost


class TestEscalatingBackoff:
    def test_backoff_escalates_with_consecutive_failures(self, view):
        view.note_unreachable(10, now=0.0, backoff_ms=1000.0)
        assert view.is_available(10, now=1000.0)       # 1x after 1 failure
        view.note_unreachable(10, now=1000.0, backoff_ms=1000.0)
        assert not view.is_available(10, now=2500.0)   # 2x: until 3000
        assert view.is_available(10, now=3000.0)
        view.note_unreachable(10, now=3000.0, backoff_ms=1000.0)
        assert not view.is_available(10, now=6500.0)   # 4x: until 7000
        assert view.is_available(10, now=7000.0)

    def test_backoff_is_capped(self):
        view = UpperNeighborView([10], {10: 0.9}, evict_after=0,
                                 max_backoff_ms=4000.0)
        for i in range(20):
            view.note_unreachable(10, now=float(i), backoff_ms=1000.0)
        assert view.is_available(10, now=19.0 + 4000.0)

    def test_hearing_resets_the_escalation(self, view):
        view.note_unreachable(10, now=0.0, backoff_ms=1000.0)
        view.note_unreachable(10, now=1000.0, backoff_ms=1000.0)
        view.note_heard(10, now=1500.0)
        view.note_unreachable(10, now=2000.0, backoff_ms=1000.0)
        assert view.is_available(10, now=3000.0)  # back to 1x


class TestEviction:
    @pytest.fixture
    def quick_evict(self):
        return UpperNeighborView([10, 11], {10: 0.9, 11: 0.7},
                                 evict_after=2)

    def test_evicted_after_consecutive_failures(self, quick_evict):
        assert quick_evict.note_unreachable(10, now=0.0) is False
        assert quick_evict.note_unreachable(10, now=10.0) is True
        assert quick_evict.is_evicted(10)
        # Only the transition reports True.
        assert quick_evict.note_unreachable(10, now=20.0) is False

    def test_evicted_neighbor_not_selected_even_by_fallback(self, quick_evict):
        quick_evict.note_unreachable(10, now=0.0)
        quick_evict.note_unreachable(10, now=1.0)
        quick_evict.note_unreachable(11, now=2.0, backoff_ms=5000.0)
        # 11 is backed off (but not evicted); 10 is evicted.  The
        # all-unavailable fallback must prefer the backed-off one.
        assignment = quick_evict.select_parents(frozenset((1,)), now=3.0)
        assert assignment == {11: frozenset((1,))}

    def test_all_evicted_still_routes(self, quick_evict):
        for neighbor in (10, 11):
            quick_evict.note_unreachable(neighbor, now=0.0)
            quick_evict.note_unreachable(neighbor, now=1.0)
        assignment = quick_evict.select_parents(frozenset((1,)), now=2.0)
        assert assignment  # liveness: never drop data for the heuristic

    def test_note_heard_readmits_and_reports_latency(self, quick_evict):
        quick_evict.note_unreachable(10, now=100.0)
        quick_evict.note_unreachable(10, now=200.0)
        assert quick_evict.is_evicted(10)
        recovery = quick_evict.note_heard(10, now=700.0)
        assert recovery == 600.0  # first failure at 100 -> heard at 700
        assert not quick_evict.is_evicted(10)
        assert quick_evict.is_available(10, now=700.0)

    def test_note_heard_without_eviction_reports_nothing(self, quick_evict):
        quick_evict.note_unreachable(10, now=100.0)
        assert quick_evict.note_heard(10, now=200.0) is None


class TestDeterminism:
    def test_selection_independent_of_insertion_order(self):
        """Ties on coverage AND quality break by stable neighbour id."""
        quality = {10: 0.8, 11: 0.8, 12: 0.8}
        assignments = []
        for order in ([10, 11, 12], [12, 11, 10], [11, 12, 10]):
            view = UpperNeighborView(order, quality)
            for neighbor in order:
                view.note_has_data(neighbor, qid=1, now=0.0)
            assignments.append(view.select_parents(frozenset((1,)), now=1.0))
        assert assignments[0] == assignments[1] == assignments[2]
        assert assignments[0] == {10: frozenset((1,))}  # lowest id wins

    def test_next_best_prefers_available_then_quality(self, view):
        view.note_unreachable(10, now=0.0, backoff_ms=5000.0)
        assert view.next_best(now=1.0) == 11  # best *available* quality
        assert view.next_best(now=1.0, exclude={11}) == 12
