"""repro — reproduction of *Two-Tier Multiple Query Optimization for Sensor
Networks* (Xiang, Lim, Tan, Zhou; ICDCS 2007).

Quickstart::

    from repro import (DeploymentConfig, Strategy, Workload, parse_query,
                       run_workload)

    queries = [
        parse_query("SELECT light FROM sensors WHERE light > 300 "
                    "EPOCH DURATION 4096"),
        parse_query("SELECT MAX(light) FROM sensors EPOCH DURATION 8192"),
    ]
    workload = Workload.static(queries, duration_ms=120_000)
    result = run_workload(Strategy.TTMQO, workload, DeploymentConfig(side=4))
    print(result.average_transmission_time)

Package map (see DESIGN.md for the full inventory):

* :mod:`repro.sim` — packet-level discrete-event simulator (TOSSIM stand-in);
* :mod:`repro.sensors` — synthetic sensed environment;
* :mod:`repro.queries` — TinyDB-dialect queries, parser, predicate algebra;
* :mod:`repro.tinydb` — baseline single-query processor;
* :mod:`repro.core` — the paper's contribution (tier-1 + tier-2);
* :mod:`repro.workloads` — Figure-3 static workloads, Section 4.3 generator;
* :mod:`repro.harness` — strategy matrix, experiment runners, metrics;
* :mod:`repro.service` — multi-tenant query service over the optimizer.
"""

from .core import (
    BaseStationOptimizer,
    CostModel,
    NetworkProfile,
    ResultMapper,
    TTMQOBaseStationApp,
    TTMQONodeApp,
    TTMQOParams,
)
from .harness import (
    CellSpec,
    Deployment,
    DeploymentConfig,
    LiveRun,
    RunResult,
    Strategy,
    Tier1CellSpec,
    WorkloadSpec,
    run_all_strategies,
    run_all_strategies_live,
    run_sweep,
    run_tier1,
    run_workload,
    run_workload_live,
)
from .queries import (
    Aggregate,
    AggregateOp,
    Interval,
    PredicateSet,
    Query,
    parse_query,
)
from .sensors import SensorWorld
from .service import (
    OptimizerBackend,
    QueryService,
    ServiceStats,
)
from .sim import Simulation, Topology
from .tinydb import RoutingTree, TinyDBBaseStationApp, TinyDBNodeApp
from .workloads import (
    QueryGenerator,
    QueryModel,
    Workload,
    dynamic_workload,
    workload_a,
    workload_b,
    workload_c,
)

__version__ = "1.0.0"

__all__ = [
    "Aggregate",
    "AggregateOp",
    "BaseStationOptimizer",
    "CostModel",
    "Deployment",
    "DeploymentConfig",
    "Interval",
    "NetworkProfile",
    "OptimizerBackend",
    "PredicateSet",
    "Query",
    "QueryService",
    "QueryGenerator",
    "QueryModel",
    "ResultMapper",
    "CellSpec",
    "LiveRun",
    "RoutingTree",
    "RunResult",
    "SensorWorld",
    "ServiceStats",
    "Simulation",
    "Strategy",
    "TTMQOBaseStationApp",
    "TTMQONodeApp",
    "TTMQOParams",
    "TinyDBBaseStationApp",
    "TinyDBNodeApp",
    "Tier1CellSpec",
    "Topology",
    "Workload",
    "WorkloadSpec",
    "dynamic_workload",
    "parse_query",
    "run_all_strategies",
    "run_all_strategies_live",
    "run_sweep",
    "run_tier1",
    "run_workload",
    "run_workload_live",
    "workload_a",
    "workload_b",
    "workload_c",
]
