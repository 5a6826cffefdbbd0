"""Declarative query layer: TinyDB dialect AST, parser, predicate algebra (S3)."""

from .ast import (
    Aggregate,
    GroupBy,
    AggregateOp,
    MIN_EPOCH_MS,
    QidAllocator,
    Query,
    QueryValidationError,
    combined_epoch,
    fresh_qids,
    gcd_epoch,
    next_qid,
)
from .canonical import canonical_key, canonicalize, parse_canonical
from .parser import ParseError, parse_query
from .predicates import Interval, PredicateSet
from .semantics import MergeKind, MergePlan, covers, merge, mergeable

__all__ = [
    "Aggregate",
    "GroupBy",
    "AggregateOp",
    "Interval",
    "MIN_EPOCH_MS",
    "MergeKind",
    "MergePlan",
    "ParseError",
    "PredicateSet",
    "QidAllocator",
    "Query",
    "QueryValidationError",
    "canonical_key",
    "canonicalize",
    "combined_epoch",
    "covers",
    "fresh_qids",
    "parse_canonical",
    "gcd_epoch",
    "merge",
    "mergeable",
    "next_qid",
    "parse_query",
]
