"""Tier-1: cost-based multi-query rewriting at the base station (S5)."""

from .cost_model import CostModel, NetworkProfile
from .insertion import insert_query
from .optimizer import BaseStationOptimizer, DEFAULT_ALPHA, NetworkActions
from .query_table import (
    CountFields,
    QueryTable,
    SyntheticQueryRecord,
    SyntheticStatus,
    UserQueryRecord,
)
from .result_mapper import (
    DeliveryCursor,
    MappedAggregates,
    MappedRow,
    ResultMapper,
)
from .rewriter import BenefitAssessment, beneficial, integrate, update_count
from .root import (
    RegionExtent,
    RootPlan,
    RootRewriter,
    decompose_for_fan_out,
)
from .termination import synthetic_benefit, terminate_query

__all__ = [
    "BaseStationOptimizer",
    "BenefitAssessment",
    "CostModel",
    "CountFields",
    "DEFAULT_ALPHA",
    "DeliveryCursor",
    "MappedAggregates",
    "MappedRow",
    "NetworkActions",
    "NetworkProfile",
    "QueryTable",
    "RegionExtent",
    "ResultMapper",
    "RootPlan",
    "RootRewriter",
    "SyntheticQueryRecord",
    "SyntheticStatus",
    "UserQueryRecord",
    "beneficial",
    "decompose_for_fan_out",
    "insert_query",
    "integrate",
    "synthetic_benefit",
    "terminate_query",
    "update_count",
]
