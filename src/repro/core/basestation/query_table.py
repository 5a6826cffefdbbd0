"""The base station's query table (Section 3.1.1).

User queries are stored as ``<qid, attribute_list|agg_list, predicates,
epoch_duration, qid'>`` where ``qid'`` names the synthetic query the user
query was rewritten into.  Synthetic queries additionally carry:

(a) *count* fields — per attribute, per aggregate, per epoch value — giving
    the number of contained user queries that require each piece of data;
(b) a *from_list* — the user queries the synthetic query is responsible
    for;
(c) a *flag* — current status;
(d) a *benefit* — gain versus running the contained user queries
    individually.  The record stores ``cost(q)`` of its own query and of
    every member, stamped with the cost model's statistics version, so the
    benefit always reflects current statistics without re-evaluating Eq. 3.

The count fields are real refcounts, maintained on every membership change:
an arrival or termination costs O(|q|), not O(queries sharing the
synthetic).  All of these live only at the base station; the network sees
plain queries.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Dict, Iterable, Optional, Set, Tuple

from ...queries.ast import (
    Aggregate,
    GroupBy,
    Query,
    query_from_dict,
    query_to_dict,
)
from ...queries.predicates import PredicateSet
from ...queries.semantics import covers, merge_all

if TYPE_CHECKING:
    from .cost_model import CostModel


class SyntheticStatus(enum.Enum):
    """Lifecycle flag of a synthetic query."""

    PENDING = "pending"      # created by rewriting, not yet injected
    RUNNING = "running"      # injected into the network
    ABORTED = "aborted"      # abortion flooded


@dataclass
class UserQueryRecord:
    """One user query and the synthetic query serving it (``qid'``)."""

    query: Query
    synthetic_qid: Optional[int] = None

    @property
    def qid(self) -> int:
        return self.query.qid


def _step(counts: dict, key, step: int) -> None:
    """Move one refcount by ``step``; a count of zero has no entry."""
    count = counts.get(key, 0) + step
    if count:
        counts[key] = count
    else:
        del counts[key]


def _step_bound(bounds: Dict[str, Dict[float, int]], attribute: str,
                bound: float, step: int) -> None:
    """:func:`_step` one attribute's bound; an empty attribute has no entry."""
    counts = bounds.setdefault(attribute, {})
    _step(counts, bound, step)
    if not counts:
        del bounds[attribute]


@dataclass
class CountFields:
    """How many of a from_list's user queries need each piece of data.

    ``attributes``, ``aggregates`` and ``epochs`` are the paper's count
    fields.  The rest split them finely enough that "some count dropped to
    zero" (:meth:`SyntheticQueryRecord.over_requests`) is decided from the
    counts alone, whatever the number of members.
    """

    #: sensed attribute (selected, aggregated, tested or grouped on) -> users
    attributes: Dict[str, int] = field(default_factory=dict)
    aggregates: Dict[Aggregate, int] = field(default_factory=dict)
    epochs: Dict[int, int] = field(default_factory=dict)
    #: selected attribute or aggregate input -> users (always returned)
    base_attributes: Dict[str, int] = field(default_factory=dict)
    #: tested attribute -> users (returned only while rows need re-filtering)
    predicate_attributes: Dict[str, int] = field(default_factory=dict)
    predicate_sets: Dict[PredicateSet, int] = field(default_factory=dict)
    #: tested attribute -> interval bound -> users; the hull is their min/max
    lo: Dict[str, Dict[float, int]] = field(default_factory=dict)
    hi: Dict[str, Dict[float, int]] = field(default_factory=dict)
    #: GROUP BY clause -> aggregation users
    group_bys: Dict[Tuple[GroupBy, ...], int] = field(default_factory=dict)
    n_aggregation: int = 0

    @classmethod
    def of(cls, users: Iterable[Query]) -> "CountFields":
        """The counts of ``users``, from scratch."""
        counts = cls()
        for user in users:
            counts.apply(user, +1)
        return counts

    def apply(self, user: Query, step: int) -> None:
        """Add (``step=+1``) or remove (``-1``) one user query's needs."""
        _step(self.epochs, user.epoch_ms, step)
        _step(self.predicate_sets, user.predicates, step)
        for attribute in user.requested_attributes():
            _step(self.attributes, attribute, step)
        for attribute in {*user.attributes,
                          *(a.attribute for a in user.aggregates)}:
            _step(self.base_attributes, attribute, step)
        for attribute, interval in user.predicates.items():
            _step(self.predicate_attributes, attribute, step)
            _step_bound(self.lo, attribute, interval.lo, step)
            _step_bound(self.hi, attribute, interval.hi, step)
        if user.is_aggregation:
            self.n_aggregation += step
            _step(self.group_bys, user.group_by, step)
            for aggregate in user.aggregates:
                _step(self.aggregates, aggregate, step)


@dataclass
class SyntheticQueryRecord:
    """A synthetic query plus the enhanced base-station-only fields.

    ``from_list`` changes only through :meth:`add_user_query` /
    :meth:`remove_user_query`, which keep ``counts`` and the stored member
    costs in step with it; :meth:`validate` catches any drift.
    """

    query: Query
    from_list: Dict[int, Query] = field(default_factory=dict)
    flag: SyntheticStatus = SyntheticStatus.PENDING
    counts: CountFields = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.counts = CountFields.of(self.from_list.values())
        #: member qid -> cost(member), priced lazily; see member_costs().
        self._member_costs: Dict[int, float] = {}
        self._own_cost: Optional[float] = None
        #: (cost model, its statistics version) the stored costs hold for.
        self._priced_at: Optional[Tuple["CostModel", int]] = None

    @property
    def qid(self) -> int:
        return self.query.qid

    # ------------------------------------------------------------------
    # Count fields
    # ------------------------------------------------------------------
    def attribute_counts(self) -> Dict[str, int]:
        """attribute -> number of contained user queries needing it."""
        return dict(self.counts.attributes)

    def aggregate_counts(self) -> Dict[Aggregate, int]:
        return dict(self.counts.aggregates)

    def epoch_counts(self) -> Dict[int, int]:
        return dict(self.counts.epochs)

    # ------------------------------------------------------------------
    # Membership maintenance
    # ------------------------------------------------------------------
    def add_user_query(self, user: Query) -> None:
        replaced = self.from_list.get(user.qid)
        if replaced is not None:
            self.counts.apply(replaced, -1)
            self._member_costs.pop(user.qid, None)
        self.from_list[user.qid] = user
        self.counts.apply(user, +1)

    def remove_user_query(self, qid: int) -> Query:
        user = self.from_list.pop(qid)
        self.counts.apply(user, -1)
        self._member_costs.pop(qid, None)
        return user

    # ------------------------------------------------------------------
    # Stored costs (the benefit field's inputs)
    # ------------------------------------------------------------------
    def _stored_costs(self, cost_model: "CostModel") -> Dict[int, float]:
        """The stored member costs, dropped if the statistics have moved."""
        stamp = (cost_model, cost_model.version)
        if self._priced_at != stamp:
            self._member_costs = {}
            self._own_cost = None
            self._priced_at = stamp
        return self._member_costs

    def cost(self, cost_model: "CostModel") -> float:
        """``cost(sq)`` of the synthetic query itself."""
        self._stored_costs(cost_model)
        if self._own_cost is None:
            self._own_cost = cost_model.cost(self.query)
        return self._own_cost

    def member_costs(self, cost_model: "CostModel") -> Dict[int, float]:
        """member qid -> ``cost(q)`` for every member (read-only).

        Each member is priced once per statistics version and the entry
        leaves with the member, so the store is as large as the from_list.
        """
        costs = self._stored_costs(cost_model)
        if len(costs) != len(self.from_list):
            for qid, user in self.from_list.items():
                if qid not in costs:
                    costs[qid] = cost_model.cost(user)
        return costs

    def tight_query(self) -> Query:
        """The minimal synthetic query covering the current from_list.

        The O(members) fold :meth:`over_requests` answers without; kept as
        the reference the count fields are tested against.
        """
        return merge_all(list(self.from_list.values()), qid=self.query.qid)

    def over_requests(self) -> bool:
        """True if some count effectively dropped to zero (Algorithm 2 line 4).

        The running synthetic query requests strictly more than its
        remaining user queries need: some attribute, aggregate, predicate
        width or epoch rate has no supporter any more — that is, the query
        differs from :meth:`tight_query`.  Two cases beyond that comparison:

        * the remaining queries cannot even share one synthetic query (an
          acquisition synthetic left holding only differing-predicate
          aggregations) — certainly time to rebuild;
        * the synthetic epoch's count hit zero: no remaining user query has
          exactly the synthetic's epoch, so every tick that is not also a
          boundary of some user epoch is wasted sampling, even though the
          GCD of the survivors may still *equal* the synthetic epoch.
        """
        n = len(self.from_list)
        if not n:
            return True
        counts, query = self.counts, self.query
        if counts.n_aggregation == n:
            # Only aggregations remain: they share a synthetic query only
            # with one predicate set and one grouping, and it is theirs.
            if len(counts.predicate_sets) > 1 or len(counts.group_bys) > 1:
                return True
            if query.is_acquisition:
                return True
            if query.predicates not in counts.predicate_sets:
                return True
            if counts.aggregates.keys() != set(query.aggregates):
                return True
        else:
            if not query.is_acquisition:
                return True
            # The hull constrains what every member constrains, as widely
            # as the widest member.
            constrained = sum(1 for users in counts.predicate_attributes.values()
                              if users == n)
            if constrained != len(query.predicates):
                return True
            for attribute, interval in query.predicates.items():
                if counts.predicate_attributes.get(attribute) != n:
                    return True
                if (min(counts.lo[attribute]) != interval.lo
                        or max(counts.hi[attribute]) != interval.hi):
                    return True
            # Tested attributes are returned only for members whose rows the
            # base station must re-filter: those with narrower predicates.
            needed = set(counts.base_attributes)
            if counts.predicate_sets.get(query.predicates, 0) < n:
                needed.update(counts.predicate_attributes)
            if needed != set(query.attributes):
                return True
        if math.gcd(*counts.epochs) != query.epoch_ms:
            return True
        # Epoch count: some user query must run at exactly the synthetic
        # epoch, otherwise the GCD only exists to serve a departed query.
        if n > 1 and query.epoch_ms not in counts.epochs:
            return True
        return False

    def validate(self) -> None:
        """Invariants: every contained user query is covered and counted."""
        for user in self.from_list.values():
            if not covers(self.query, user):
                raise AssertionError(
                    f"synthetic query {self.query.qid} does not cover user "
                    f"query {user.qid}: {self.query} vs {user}"
                )
        recounted = CountFields.of(self.from_list.values())
        drifted = [f.name for f in fields(CountFields)
                   if getattr(self.counts, f.name) != getattr(recounted, f.name)]
        if drifted:
            raise AssertionError(
                f"synthetic query {self.query.qid}: count fields {drifted} "
                f"drifted from its from_list"
            )
        if not self._member_costs.keys() <= self.from_list.keys():
            raise AssertionError(
                f"synthetic query {self.query.qid} stores the cost of a "
                f"query that left its from_list"
            )


class QueryTable:
    """All user and synthetic query records at the base station."""

    def __init__(self) -> None:
        self.user: Dict[int, UserQueryRecord] = {}
        self.synthetic: Dict[int, SyntheticQueryRecord] = {}
        #: Live user queries whose ``qid'`` was written since the last
        #: :meth:`take_remapped` (the optimizer's mapping history reads it).
        self.remapped: Set[int] = set()

    # ------------------------------------------------------------------
    # User-query records
    # ------------------------------------------------------------------
    def add_user(self, query: Query) -> UserQueryRecord:
        if query.qid in self.user:
            raise ValueError(f"user query {query.qid} already registered")
        record = UserQueryRecord(query)
        self.user[query.qid] = record
        return record

    def remove_user(self, qid: int) -> UserQueryRecord:
        record = self.user.pop(qid, None)
        if record is None:
            raise KeyError(f"unknown user query {qid}")
        self.remapped.discard(qid)
        return record

    def assign(self, user_qid: int, synthetic_qid: Optional[int]) -> None:
        """Write a user query's ``qid'``: the one place it is written.

        ``None`` unmaps the query (Algorithm 2's rebuild, until it is
        re-inserted).  Queries without a user record are skipped.
        """
        user = self.user.get(user_qid)
        if user is not None:
            user.synthetic_qid = synthetic_qid
            self.remapped.add(user_qid)

    def take_remapped(self) -> Set[int]:
        """The user queries assigned since the last call; clears the set."""
        remapped, self.remapped = self.remapped, set()
        return remapped

    def synthetic_for(self, user_qid: int) -> SyntheticQueryRecord:
        """The synthetic record a user query was rewritten into (``qid'``)."""
        user = self.user.get(user_qid)
        if user is None or user.synthetic_qid is None:
            raise KeyError(f"user query {user_qid} is not mapped to a synthetic query")
        return self.synthetic[user.synthetic_qid]

    # ------------------------------------------------------------------
    # Synthetic-query records
    # ------------------------------------------------------------------
    def add_synthetic(self, record: SyntheticQueryRecord) -> None:
        if record.qid in self.synthetic:
            raise ValueError(f"synthetic query {record.qid} already present")
        self.synthetic[record.qid] = record
        for user_qid in record.from_list:
            self.assign(user_qid, record.qid)

    def remove_synthetic(self, qid: int) -> SyntheticQueryRecord:
        record = self.synthetic.pop(qid, None)
        if record is None:
            raise KeyError(f"unknown synthetic query {qid}")
        return record

    # ------------------------------------------------------------------
    # Durability (repro.service.durability snapshots)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """A JSON-safe encoding of the full table, synthetic merges included.

        Inverse of :meth:`from_dict`; used by the service tier's snapshot
        file so a restarted base station recovers the exact rewrite state
        (not merely a state that happens to serve the same user queries —
        Algorithm 2's α decisions make the table history-dependent).
        """
        return {
            "user": [
                {
                    "query": query_to_dict(record.query),
                    "synthetic_qid": record.synthetic_qid,
                }
                for _, record in sorted(self.user.items())
            ],
            "synthetic": [
                {
                    "query": query_to_dict(record.query),
                    "from_qids": sorted(record.from_list),
                    "flag": record.flag.value,
                }
                for _, record in sorted(self.synthetic.items())
            ],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "QueryTable":
        """Rebuild a table from :meth:`to_dict` output (validated).

        Count fields are recounted from each from_list, so the rebuilt
        table decides exactly as the encoded one did.
        """
        table = cls()
        for entry in payload["user"]:
            record = table.add_user(query_from_dict(entry["query"]))
            table.assign(record.qid, entry["synthetic_qid"])
        for entry in payload["synthetic"]:
            query = query_from_dict(entry["query"])
            record = SyntheticQueryRecord(
                query=query,
                from_list={qid: table.user[qid].query
                           for qid in entry["from_qids"]},
                flag=SyntheticStatus(entry["flag"]),
            )
            table.synthetic[record.qid] = record
        table.validate()
        return table

    def validate(self) -> None:
        """Cross-record invariants (used heavily by tests)."""
        for user_qid, user in self.user.items():
            if user.synthetic_qid is not None:
                synthetic = self.synthetic.get(user.synthetic_qid)
                assert synthetic is not None, (
                    f"user {user_qid} maps to missing synthetic {user.synthetic_qid}"
                )
                assert user_qid in synthetic.from_list, (
                    f"user {user_qid} missing from from_list of "
                    f"synthetic {user.synthetic_qid}"
                )
        for record in self.synthetic.values():
            record.validate()
            for user_qid in record.from_list:
                assert user_qid in self.user, (
                    f"synthetic {record.qid} references unknown user {user_qid}"
                )
                assert self.user[user_qid].synthetic_qid == record.qid, (
                    f"user {user_qid} not mapped back to synthetic {record.qid}"
                )
