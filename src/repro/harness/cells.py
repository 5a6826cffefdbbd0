"""Sweep cells: self-contained, hashable specifications of one experiment.

A *cell* is everything needed to reproduce one simulation — strategy,
workload recipe, deployment configuration, seed — expressed as plain data
rather than live objects.  Cells therefore

* pickle across process boundaries (the parallel executor ships them to
  worker processes),
* serialise to a **canonical JSON form** whose SHA-256 is the cell's
  identity: equal specs produce equal keys, and the key never depends on
  interpreter state (``PYTHONHASHSEED``, allocation order, grid position),
* derive their own seed when none is given, again from the stable hash —
  so a cell's seed is a pure function of *what* it runs, not *where in the
  grid* it sits.

Workloads are described by recipe (:class:`WorkloadSpec`) instead of by
value: a worker process rebuilds the workload from the recipe inside a
:func:`repro.queries.ast.fresh_qids` scope, which makes the constructed
queries — qids included — byte-identical in every process.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, is_dataclass, replace
from typing import Dict, Optional, Tuple, Union

from ..queries import fresh_qids, parse_query
from ..workloads import (
    STATIC_WORKLOADS,
    Workload,
    dynamic_workload,
    fig4_query_model,
    fig5_queries,
)
from .runner import DEFAULT_DRAIN_MS, RunResult, run_workload
from .strategies import DeploymentConfig, Strategy
from .tier1_sim import Tier1RunStats, default_cost_model, run_tier1

#: Bumped whenever the canonical encoding itself changes shape, so stale
#: cache entries written under an older encoding can never alias new keys.
CANONICAL_VERSION = 1


# ----------------------------------------------------------------------
# Workload recipes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkloadSpec:
    """A reproducible recipe for building one :class:`Workload`.

    ``kind`` selects the constructor:

    * ``"named"``   — one of the Figure 3 static workloads (A/B/C);
    * ``"queries"`` — an explicit list of query texts, injected statically;
    * ``"fig5"``    — the Section 4.3 generated static workload;
    * ``"dynamic"`` — the Section 4.3 Poisson arrival workload (Figure 4).
    """

    kind: str
    duration_ms: float = 90_000.0
    #: "named": the STATIC_WORKLOADS key.
    name: str = ""
    #: "queries": TinyDB-dialect texts, parsed in order.
    query_texts: Tuple[str, ...] = ()
    #: "named"/"queries": static-injection timing.
    start_ms: float = 500.0
    spacing_ms: float = 50.0
    #: "fig5" parameters.
    fraction: float = 0.0
    selectivity: float = 1.0
    n_nodes: int = 16
    epoch_ms: int = 8192
    #: "fig5"/"dynamic": generator seed and query count.
    seed: int = 0
    n_queries: int = 8
    #: "dynamic": target mean concurrency.
    concurrency: float = 8.0
    description: str = ""

    # -- constructors --------------------------------------------------
    @classmethod
    def named(cls, name: str, duration_ms: float = 90_000.0,
              description: str = "") -> "WorkloadSpec":
        if name not in STATIC_WORKLOADS:
            raise ValueError(f"unknown static workload {name!r}; "
                             f"choices: {sorted(STATIC_WORKLOADS)}")
        return cls(kind="named", name=name, duration_ms=duration_ms,
                   description=description or f"WORKLOAD_{name}")

    @classmethod
    def from_texts(cls, query_texts, duration_ms: float,
                   start_ms: float = 500.0, spacing_ms: float = 50.0,
                   description: str = "") -> "WorkloadSpec":
        return cls(kind="queries", query_texts=tuple(query_texts),
                   duration_ms=duration_ms, start_ms=start_ms,
                   spacing_ms=spacing_ms, description=description)

    @classmethod
    def fig5(cls, fraction: float, selectivity: float, n_nodes: int,
             duration_ms: float = 90_000.0, n_queries: int = 8,
             epoch_ms: int = 8192, seed: int = 0) -> "WorkloadSpec":
        return cls(kind="fig5", fraction=fraction, selectivity=selectivity,
                   n_nodes=n_nodes, duration_ms=duration_ms,
                   n_queries=n_queries, epoch_ms=epoch_ms, seed=seed,
                   description="fig5")

    # -- construction --------------------------------------------------
    def build(self) -> Workload:
        """Materialise the workload (call inside a ``fresh_qids`` scope)."""
        if self.kind == "named":
            queries = STATIC_WORKLOADS[self.name]()
            return Workload.static(queries, duration_ms=self.duration_ms,
                                   start_ms=self.start_ms,
                                   spacing_ms=self.spacing_ms,
                                   description=self.description)
        if self.kind == "queries":
            queries = [parse_query(text) for text in self.query_texts]
            return Workload.static(queries, duration_ms=self.duration_ms,
                                   start_ms=self.start_ms,
                                   spacing_ms=self.spacing_ms,
                                   description=self.description)
        if self.kind == "fig5":
            queries = fig5_queries(self.fraction, self.selectivity,
                                   self.n_nodes, n_queries=self.n_queries,
                                   epoch_ms=self.epoch_ms, seed=self.seed)
            return Workload.static(queries, duration_ms=self.duration_ms,
                                   description=self.description)
        if self.kind == "dynamic":
            return dynamic_workload(fig4_query_model(), self.n_nodes,
                                    n_queries=self.n_queries,
                                    concurrency=self.concurrency,
                                    seed=self.seed)
        raise ValueError(f"unknown workload kind {self.kind!r}")


# ----------------------------------------------------------------------
# Cells
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=True)
class CellSpec:
    """One packet-level simulation: (strategy, workload, config, seed)."""

    strategy: Strategy
    workload: WorkloadSpec
    config: DeploymentConfig = None  # type: ignore[assignment]
    #: Explicit seed; ``None`` derives one from the stable cell hash.
    seed: Optional[int] = None
    drain_ms: float = DEFAULT_DRAIN_MS

    def __post_init__(self) -> None:
        if self.config is None:
            object.__setattr__(self, "config", DeploymentConfig())

    def resolved_seed(self) -> int:
        """The seed this cell runs with (explicit, or hash-derived)."""
        if self.seed is not None:
            return self.seed
        return derive_seed(self)

    def resolved_config(self) -> DeploymentConfig:
        """The deployment config with the cell seed applied."""
        return replace(self.config, seed=self.resolved_seed())

    def run(self) -> RunResult:
        """Execute the cell deterministically in the current process."""
        with fresh_qids():
            workload = self.workload.build()
            return run_workload(self.strategy, workload,
                                self.resolved_config(), self.drain_ms)


@dataclass(frozen=True, eq=True)
class Tier1CellSpec:
    """One network-free tier-1 replay (the Figure 4 family of sweeps)."""

    n_nodes: int = 64
    max_depth: int = 5
    concurrency: float = 8.0
    n_queries: int = 500
    alpha: float = 0.6
    seed: Optional[int] = None

    def resolved_seed(self) -> int:
        if self.seed is not None:
            return self.seed
        return derive_seed(self)

    def run(self) -> Tier1RunStats:
        with fresh_qids():
            workload = dynamic_workload(fig4_query_model(), self.n_nodes,
                                        n_queries=self.n_queries,
                                        concurrency=self.concurrency,
                                        seed=self.resolved_seed())
            cost_model = default_cost_model(self.n_nodes, self.max_depth)
            return run_tier1(workload, cost_model, alpha=self.alpha)


AnyCell = Union[CellSpec, Tier1CellSpec]
AnyResult = Union[RunResult, Tier1RunStats]


# ----------------------------------------------------------------------
# Canonical encoding and stable hashing
# ----------------------------------------------------------------------
def _canonical_value(value):
    """Recursively normalise to JSON-safe data with deterministic order."""
    if isinstance(value, Strategy):
        return value.name
    if is_dataclass(value) and not isinstance(value, type):
        return {k: _canonical_value(v) for k, v in
                sorted(asdict(value).items())}
    if isinstance(value, dict):
        return {str(k): _canonical_value(v) for k, v in
                sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_canonical_value(v) for v in value]
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, float):
        return value
    raise TypeError(f"cannot canonicalise {type(value).__name__}: {value!r}")


def canonical_cell_dict(spec: AnyCell) -> Dict[str, object]:
    """The cell as a plain dict with fully deterministic contents."""
    payload = {k: _canonical_value(v) for k, v in sorted(asdict(spec).items())}
    # asdict flattens nested dataclasses to dicts already; re-sort via
    # _canonical_value above.  Tag the cell kind so a packet cell and a
    # tier-1 cell that happened to share field values can never collide.
    payload["__cell__"] = type(spec).__name__
    payload["__canonical_version__"] = CANONICAL_VERSION
    return payload


def canonical_cell_json(spec: AnyCell) -> str:
    """Canonical JSON: sorted keys, no whitespace, repr-stable floats."""
    return json.dumps(canonical_cell_dict(spec), sort_keys=True,
                      separators=(",", ":"), allow_nan=False)


def stable_hash(text: str) -> str:
    """SHA-256 hex digest of ``text`` — never the process-salted hash()."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cell_key(spec: AnyCell, fingerprint: str = "") -> str:
    """The cell's cache identity: spec hash salted with a code fingerprint.

    Two equal specs always map to the same key; any change to the spec —
    or to the simulator source, via ``fingerprint`` — changes the key, so
    stale cache entries are misses rather than wrong answers.
    """
    return stable_hash(canonical_cell_json(spec) + "\x00" + fingerprint)


def derive_seed(spec: AnyCell) -> int:
    """A deterministic per-cell seed from the stable spec hash.

    The ``seed`` field itself is excluded (it is what we are deriving), so
    the derived seed depends only on the cell's substantive content and is
    invariant under grid order, process, and ``PYTHONHASHSEED``.
    """
    payload = canonical_cell_dict(spec)
    payload["seed"] = None
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")
