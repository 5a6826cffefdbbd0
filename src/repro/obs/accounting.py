"""Latency accounting and the simulation's observability bundle.

:class:`LatencyAccountant` records end-to-end result latency: the base
station observes ``arrival_time - epoch_time`` per delivered row or
aggregate, labelled by its sink (the base station's node id) and query
id: a qid names a query at one sink only, and shards of a cluster share
one registry.  :class:`SimObs` bundles it with the registry and the
record of the simulation's ``radio.tx`` spans.  Radio events are not
accounted here: the simulation's one radio ledger is
:class:`repro.sim.trace.TraceCollector`, which lends its totals to the
``sim.*`` series and appends each frame to the span record.  This module
never imports the simulator, keeping ``repro.obs`` a dependency-free leaf
layer.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from operator import getitem
from typing import Callable, Deque, Dict, List, Optional, Tuple

from .registry import Histogram, MetricsRegistry, get_registry
from .spans import DEFAULT_SPAN_CAP, Span, Tracer


class LatencyAccountant:
    """Per-query end-to-end result latency (epoch boundary -> sink)."""

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else get_registry()
        self._rows: Dict[Tuple[int, int], Histogram] = {}
        self._aggs: Dict[Tuple[int, int], Histogram] = {}

    def observe_row(self, sink: int, qid: int, latency_ms: float) -> None:
        hist = self._rows.get((sink, qid))
        if hist is None:
            hist = self._rows[sink, qid] = self.registry.histogram(
                "tinydb.bs.row_latency_ms",
                help="acquisition row latency from epoch boundary to sink",
                unit="ms", sink=sink, qid=qid)
        hist.observe(latency_ms)

    def observe_aggregate(self, sink: int, qid: int,
                          latency_ms: float) -> None:
        hist = self._aggs.get((sink, qid))
        if hist is None:
            hist = self._aggs[sink, qid] = self.registry.histogram(
                "tinydb.bs.agg_latency_ms",
                help="aggregate result latency from epoch boundary to sink",
                unit="ms", sink=sink, qid=qid)
        hist.observe(latency_ms)


class SimObs:
    """The observability bundle one simulation carries.

    Wired by :class:`repro.sim.runtime.Simulation` and handed to the
    radio ledger, the nodes and the node applications.  Bundles the
    current registry, the ``radio.tx`` span record, and the latency
    accountant, so instrumented layers take exactly one optional
    dependency.

    The radio ledger appends every frame's span duration to
    ``radio_tx_ms`` (the samples of ``span.radio.tx.duration_ms``) and
    its ``(node, kind, start, end)`` to ``radio_tx``, which keeps the last
    ``DEFAULT_SPAN_CAP`` frames.  The node processors count their
    ``recovery.*`` events with :meth:`count_recovery` into ``recovery``,
    this simulation's tally, which the registry reads.

    The registry holds only those tallies and sample lists, never the
    bundle, and the bundle's clock reads the simulation's event queue,
    not the simulation.  So the bundle keeps no run alive: a finished
    simulation is released by ``Simulation.close()`` (its owner calls it)
    followed by the owner dropping it, with no cyclic collection needed.
    """

    def __init__(self, clock: Callable[[], float],
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else get_registry()
        self._clock = clock
        self.radio_tx: Deque[Tuple[int, object, float, float]] = deque(
            maxlen=DEFAULT_SPAN_CAP)
        self.radio_tx_ms: List[float] = []
        self.latency = LatencyAccountant(self.registry)
        #: ``recovery.*`` events by (family, sorted label items).
        self.recovery: Dict[Tuple[str, tuple], int] = {}

    def count_recovery(self, name: str, help: str, **labels: str) -> None:
        """Count one recovery event; its series binds on the first."""
        key = (name, tuple(sorted(labels.items())))
        if key not in self.recovery:
            self.recovery[key] = 0
            self.registry.counter(name, help=help, **labels).add_part(
                partial(getitem, self.recovery, key))
        self.recovery[key] += 1

    @property
    def tracer(self) -> Tracer:
        """A tracer holding the last frames as ``radio.tx`` spans, built
        on each read.

        ``finished`` is the most recent ``DEFAULT_SPAN_CAP`` frames in
        transmission order, ``started`` counts every frame and
        ``dropped`` those no longer retained — what a tracer finishing
        one span per frame would hold.
        """
        frames = list(self.radio_tx)
        tracer = Tracer(self.registry, clock=self._clock,
                        cap=self.radio_tx.maxlen)
        tracer.finished.extend(
            Span(name="radio.tx", start_ms=start,
                 labels={"node": str(node), "kind": kind.value},
                 end_ms=end)
            for node, kind, start, end in frames)
        tracer.started = len(self.radio_tx_ms)
        tracer.dropped = tracer.started - len(frames)
        return tracer
