"""Canonicalization: textual variants collapse onto one cache key."""

import pytest

from repro.queries import (
    QueryValidationError,
    canonical_key,
    canonicalize,
    parse_canonical,
    parse_query,
)


def key_of(text: str):
    return canonical_key(parse_query(text))


class TestTextualVariants:
    BASE = "SELECT light FROM sensors WHERE light > 280 EPOCH DURATION 4096"

    @pytest.mark.parametrize("variant", [
        "select light from sensors where light > 280 epoch duration 4096",
        "SELECT LIGHT FROM sensors WHERE LIGHT > 280 EPOCH DURATION 4096",
        "SELECT light FROM sensors WHERE 280 < light EPOCH DURATION 4096",
        "SELECT light FROM sensors WHERE light >= 280 EPOCH DURATION 4096",
        "SELECT light FROM sensors WHERE light > 280 SAMPLE PERIOD 4096",
    ])
    def test_variant_same_key(self, variant):
        assert key_of(variant) == key_of(self.BASE)

    def test_select_list_order_ignored(self):
        assert key_of("SELECT light, temp FROM sensors EPOCH DURATION 4096") \
            == key_of("SELECT temp, light FROM sensors EPOCH DURATION 4096")

    def test_predicate_order_ignored(self):
        a = key_of("SELECT light FROM sensors WHERE light > 100 AND temp < 30 "
                   "EPOCH DURATION 4096")
        b = key_of("SELECT light FROM sensors WHERE temp < 30 AND light > 100 "
                   "EPOCH DURATION 4096")
        assert a == b

    def test_between_equals_two_bounds(self):
        a = key_of("SELECT light FROM sensors WHERE light BETWEEN 100 AND 600 "
                   "EPOCH DURATION 4096")
        b = key_of("SELECT light FROM sensors WHERE light >= 100 "
                   "AND light <= 600 EPOCH DURATION 4096")
        assert a == b

    def test_aggregate_case_and_order(self):
        a = key_of("SELECT MAX(light), MIN(temp) FROM sensors "
                   "EPOCH DURATION 8192")
        b = key_of("SELECT min(TEMP), max(LIGHT) FROM sensors "
                   "EPOCH DURATION 8192")
        assert a == b


class TestDistinctQueriesStayDistinct:
    def test_different_epoch(self):
        assert key_of("SELECT light FROM sensors EPOCH DURATION 4096") \
            != key_of("SELECT light FROM sensors EPOCH DURATION 8192")

    def test_different_predicate_bound(self):
        assert key_of("SELECT light FROM sensors WHERE light > 100 "
                      "EPOCH DURATION 4096") \
            != key_of("SELECT light FROM sensors WHERE light > 200 "
                      "EPOCH DURATION 4096")

    def test_acquisition_vs_aggregation(self):
        assert key_of("SELECT light FROM sensors EPOCH DURATION 4096") \
            != key_of("SELECT MAX(light) FROM sensors EPOCH DURATION 4096")

    def test_group_by_matters(self):
        assert key_of("SELECT MAX(light) FROM sensors GROUP BY nodeid "
                      "EPOCH DURATION 4096") \
            != key_of("SELECT MAX(light) FROM sensors EPOCH DURATION 4096")


class TestCanonicalize:
    def test_lowercases_attributes(self):
        query = parse_canonical(
            "SELECT LIGHT FROM sensors WHERE TEMP > 10 EPOCH DURATION 4096")
        assert query.attributes == ("light",)
        assert query.predicates.attributes == ("temp",)

    def test_idempotent(self):
        query = parse_query("SELECT Temp, LIGHT FROM sensors "
                            "WHERE Light > 5 EPOCH DURATION 4096")
        once = canonicalize(query)
        twice = canonicalize(once)
        assert canonical_key(once) == canonical_key(twice)
        assert once.attributes == twice.attributes

    def test_fresh_qid_assignable(self):
        query = parse_query("SELECT light FROM sensors EPOCH DURATION 4096")
        renamed = canonicalize(query, qid=99_999)
        assert renamed.qid == 99_999
        assert canonical_key(renamed) == canonical_key(query)

    def test_case_duplicate_predicates_intersect(self):
        query = parse_query("SELECT light FROM sensors "
                            "WHERE Light > 100 AND light < 600 "
                            "EPOCH DURATION 4096")
        canonical = canonicalize(query)
        (attr, lo, hi), = canonical.predicates.to_triples()
        assert (attr, lo, hi) == ("light", 100.0, 600.0)

    def test_contradictory_case_fold_rejected(self):
        query = parse_query("SELECT light FROM sensors "
                            "WHERE Light > 600 AND light < 100 "
                            "EPOCH DURATION 4096")
        with pytest.raises(QueryValidationError):
            canonicalize(query)

    def test_semantics_preserved(self):
        query = parse_canonical(
            "SELECT LIGHT FROM sensors WHERE 300 < Light EPOCH DURATION 4096")
        assert query.predicates.matches({"light": 400.0})
        assert not query.predicates.matches({"light": 200.0})
