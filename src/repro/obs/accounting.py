"""Latency accounting and the simulation's observability bundle.

:class:`LatencyAccountant` records end-to-end result latency: the base
station observes ``arrival_time - epoch_time`` per delivered row or
aggregate, labelled by query id.  :class:`SimObs` bundles it with the
registry and a virtual-clock tracer for one simulation.  Radio events are
not accounted here: the simulation's one radio ledger is
:class:`repro.sim.trace.TraceCollector`, which increments the ``sim.*``
series itself.  This module never imports the simulator, keeping
``repro.obs`` a dependency-free leaf layer.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from .registry import Histogram, MetricsRegistry, get_registry
from .spans import Tracer


class LatencyAccountant:
    """Per-query end-to-end result latency (epoch boundary -> sink)."""

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else get_registry()
        self._rows: Dict[int, Histogram] = {}
        self._aggs: Dict[int, Histogram] = {}

    def observe_row(self, qid: int, latency_ms: float) -> None:
        hist = self._rows.get(qid)
        if hist is None:
            hist = self._rows[qid] = self.registry.histogram(
                "tinydb.bs.row_latency_ms",
                help="acquisition row latency from epoch boundary to sink",
                unit="ms", qid=qid)
        hist.observe(latency_ms)

    def observe_aggregate(self, qid: int, latency_ms: float) -> None:
        hist = self._aggs.get(qid)
        if hist is None:
            hist = self._aggs[qid] = self.registry.histogram(
                "tinydb.bs.agg_latency_ms",
                help="aggregate result latency from epoch boundary to sink",
                unit="ms", qid=qid)
        hist.observe(latency_ms)


class SimObs:
    """The observability bundle one simulation carries.

    Wired by :class:`repro.sim.runtime.Simulation` and handed to the
    radio ledger, the nodes and the node applications.  Bundles the
    current registry, a virtual-clock tracer, and the latency accountant,
    so instrumented layers take exactly one optional dependency.
    """

    def __init__(self, clock: Callable[[], float],
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else get_registry()
        self.tracer = Tracer(self.registry, clock=clock)
        self.latency = LatencyAccountant(self.registry)
