"""Predicate algebra: intervals, conjunctive predicate sets, coverage, hulls.

The paper stores predicates as a list of ``(attribute, min, max)`` triples
(Section 3.1.1) interpreted conjunctively.  Tier-1 rewriting needs three
operations on them:

* **matches** — does a row of readings satisfy the predicates;
* **covers** — is one query's answer set a superset of another's (the
  ``max == 1`` "covered" case of Algorithm 1);
* **hull** — the tightest conjunctive predicate set whose answer set
  contains the union of two queries' answer sets ("the requested ...
  predicates of q12 will be the union of those of q1 and q2").  For a single
  attribute this is the union's covering interval; for attributes
  constrained by only one of the two queries the constraint must be dropped,
  since rows matching the other query are unconstrained on it.

Selectivity of a conjunctive set is the product of per-attribute
probabilities (attribute-independence, the standard Selinger assumption).

Intervals are closed; on the continuous sensor domains the paper's strict
comparisons (``280 < light``) and non-strict ones have identical measure, so
the parser normalises both to closed intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Mapping, Optional, Tuple


@dataclass(frozen=True, order=True)
class Interval:
    """A closed interval ``[lo, hi]``; infinite endpoints allowed."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty interval: lo={self.lo} > hi={self.hi}")

    @classmethod
    def everything(cls) -> "Interval":
        return cls(-math.inf, math.inf)

    def contains_value(self, value: float) -> bool:
        return self.lo <= value <= self.hi

    def contains(self, other: "Interval") -> bool:
        """True if ``other`` is a sub-interval of ``self``."""
        return self.lo <= other.lo and other.hi <= self.hi

    def overlaps(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def hull(self, other: "Interval") -> "Interval":
        """Smallest interval containing both (covers their union)."""
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def intersect(self, other: "Interval") -> Optional["Interval"]:
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        return Interval(lo, hi) if lo <= hi else None

    @property
    def is_unbounded(self) -> bool:
        return math.isinf(self.lo) or math.isinf(self.hi)

    def __repr__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


class PredicateSet:
    """An immutable conjunction of per-attribute interval constraints.

    Attributes without an entry are unconstrained.  Multiple constraints on
    one attribute are normalised by intersection at construction time; an
    empty intersection raises ``ValueError`` (the query can never match).
    """

    __slots__ = ("_intervals",)

    def __init__(self, constraints: Optional[Mapping[str, Interval]] = None) -> None:
        merged: Dict[str, Interval] = {}
        for attr, interval in (constraints or {}).items():
            existing = merged.get(attr)
            if existing is None:
                merged[attr] = interval
            else:
                intersection = existing.intersect(interval)
                if intersection is None:
                    raise ValueError(
                        f"contradictory constraints on {attr!r}: "
                        f"{existing} and {interval}"
                    )
                merged[attr] = intersection
        self._intervals: Tuple[Tuple[str, Interval], ...] = tuple(
            sorted(merged.items())
        )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_triples(cls, triples: Iterable[Tuple[str, float, float]]) -> "PredicateSet":
        """Build from the paper's ``(attribute, min, max)`` representation."""
        constraints: Dict[str, Interval] = {}
        result_constraints = []
        for attr, lo, hi in triples:
            result_constraints.append((attr, Interval(lo, hi)))
        # Delegate normalisation (intersection of duplicates) to __init__ by
        # pre-merging here, since a Mapping cannot hold duplicates.
        merged: Dict[str, Interval] = {}
        for attr, interval in result_constraints:
            if attr in merged:
                intersection = merged[attr].intersect(interval)
                if intersection is None:
                    raise ValueError(f"contradictory constraints on {attr!r}")
                merged[attr] = intersection
            else:
                merged[attr] = interval
        return cls(merged)

    @classmethod
    def true(cls) -> "PredicateSet":
        """The empty conjunction — matches every row."""
        return cls({})

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def attributes(self) -> Tuple[str, ...]:
        return tuple(attr for attr, _ in self._intervals)

    def interval(self, attribute: str) -> Interval:
        """Constraint on ``attribute`` (``Interval.everything()`` if none)."""
        for attr, interval in self._intervals:
            if attr == attribute:
                return interval
        return Interval.everything()

    def items(self) -> Iterator[Tuple[str, Interval]]:
        return iter(self._intervals)

    def is_true(self) -> bool:
        return not self._intervals

    def __len__(self) -> int:
        return len(self._intervals)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PredicateSet):
            return NotImplemented
        return self._intervals == other._intervals

    def __hash__(self) -> int:
        return hash(self._intervals)

    def __repr__(self) -> str:
        if not self._intervals:
            return "PredicateSet(TRUE)"
        parts = ", ".join(f"{a} in {i}" for a, i in self._intervals)
        return f"PredicateSet({parts})"

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def matches(self, row: Mapping[str, float]) -> bool:
        """True if the readings in ``row`` satisfy every constraint.

        A constrained attribute missing from the row fails the predicate
        (the node did not sample it, so it cannot prove satisfaction).
        """
        for attr, interval in self._intervals:
            value = row.get(attr)
            if value is None or not interval.contains_value(value):
                return False
        return True

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def covers(self, other: "PredicateSet") -> bool:
        """True if every row matching ``other`` also matches ``self``."""
        for attr, interval in self._intervals:
            if not interval.contains(other.interval(attr)):
                return False
        return True

    def hull(self, other: "PredicateSet") -> "PredicateSet":
        """Tightest conjunctive superset of the union of the two answer sets.

        Only attributes constrained in *both* operands stay constrained
        (with the interval hull); any one-sided constraint must be dropped.
        """
        constraints: Dict[str, Interval] = {}
        other_attrs = set(other.attributes)
        for attr, interval in self._intervals:
            if attr in other_attrs:
                constraints[attr] = interval.hull(other.interval(attr))
        return PredicateSet(constraints)

    def intersect(self, other: "PredicateSet") -> Optional["PredicateSet"]:
        """Conjunction of both sets, or ``None`` if contradictory."""
        constraints: Dict[str, Interval] = dict(self._intervals)
        for attr, interval in other.items():
            if attr in constraints:
                merged = constraints[attr].intersect(interval)
                if merged is None:
                    return None
                constraints[attr] = merged
            else:
                constraints[attr] = interval
        return PredicateSet(constraints)

    def selectivity(self, distributions) -> float:
        """Estimated fraction of nodes whose readings match (Eq. 1's sel).

        ``distributions`` has ``probability(attr, lo, hi)``: a
        ``DistributionSet`` or the planner's ``StatisticsStore``."""
        sel = 1.0
        for attr, interval in self._intervals:
            sel *= distributions.probability(attr, interval.lo, interval.hi)
        return sel

    def to_triples(self) -> Tuple[Tuple[str, float, float], ...]:
        """The paper's wire representation."""
        return tuple((a, i.lo, i.hi) for a, i in self._intervals)
