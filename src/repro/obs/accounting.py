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

from array import array
from functools import partial
from operator import getitem
from typing import Callable, Dict, Iterator, List, Optional, Tuple

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


class FrameRing:
    """The last ``cap`` frames, ``(node, kind, start, end)``, as parallel
    typed columns.

    ``node`` is a 64-bit integer, ``kind`` a one-byte code (the writer
    interns each kind once, with :meth:`code`), and ``start``/``end``
    are doubles: 25 bytes a frame.  The radio ledger
    (``TraceCollector.record_transmission``) is the one writer, and it
    writes in place, in the same method as its other per-frame totals:
    the ``columns`` grow to ``cap`` (at least 1) frames, after that each
    frame overwrites the oldest at ``pushed % cap``, so a further frame
    allocates nothing.  ``pushed`` counts every frame written.
    """

    __slots__ = ("cap", "pushed", "_kinds", "_codes", "columns")

    def __init__(self, cap: int) -> None:
        self.cap = cap
        self.pushed = 0
        self._kinds: List[object] = []
        self._codes: Dict[object, int] = {}
        self.columns = (array("q"), array("B"), array("d"), array("d"))

    def code(self, kind: object) -> int:
        """``kind``'s one-byte code in this ring, interned on first use."""
        code = self._codes.get(kind)
        if code is None:
            code = self._codes[kind] = len(self._kinds)
            self._kinds.append(kind)
        return code

    def __len__(self) -> int:
        return len(self.columns[0])

    def __iter__(self) -> Iterator[Tuple[int, object, float, float]]:
        """The retained frames, oldest first."""
        split, kinds = self.pushed % self.cap, self._kinds
        for node, code, start, end in zip(
                *(column[split:] + column[:split]
                  for column in self.columns)):
            yield node, kinds[code], start, end


class SimObs:
    """The observability bundle one simulation carries.

    Wired by :class:`repro.sim.runtime.Simulation` and handed to the
    radio ledger, the nodes and the node applications.  Bundles the
    current registry, the ``radio.tx`` span record, and the latency
    accountant, so instrumented layers take exactly one optional
    dependency.

    The radio ledger appends every frame's span duration to
    ``radio_tx_ms`` (the samples of ``span.radio.tx.duration_ms``, an
    ``array('d')`` at 8 bytes a frame) and writes its ``(node, kind,
    start, end)`` into ``radio_tx``, a :class:`FrameRing` of the last
    ``DEFAULT_SPAN_CAP`` frames.  The node processors count their
    ``recovery.*`` events with :meth:`count_recovery` into ``recovery``,
    this simulation's tally, which the registry reads.

    The registry holds only those tallies and sample arrays, never the
    bundle, and the bundle's clock reads the simulation's event queue,
    not the simulation.  So the bundle keeps no run alive: a finished
    simulation is released by ``Simulation.close()`` (its owner calls it)
    followed by the owner dropping it, with no cyclic collection needed.
    """

    def __init__(self, clock: Callable[[], float],
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else get_registry()
        self._clock = clock
        self.radio_tx = FrameRing(DEFAULT_SPAN_CAP)
        self.radio_tx_ms = array("d")
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
        ring = self.radio_tx
        tracer = Tracer(self.registry, clock=self._clock, cap=ring.cap)
        tracer.finished.extend(
            Span(name="radio.tx", start_ms=start,
                 labels={"node": str(node), "kind": kind.value},
                 end_ms=end)
            for node, kind, start, end in ring)
        tracer.started = len(self.radio_tx_ms)
        tracer.dropped = tracer.started - len(ring)
        return tracer
