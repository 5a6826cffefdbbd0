"""Structured spans: named, labelled intervals on an injected clock.

A span is one timed operation — a frame on the air, an optimizer pass, an
admission batch flush — with a name, a start/end time, and labels (most
commonly ``qid`` and ``node``).  Spans complement the metrics registry:
counters say *how much*, spans say *when and in what order*.

The clock is always injected, never read from the machine: simulation
components pass the event engine's virtual clock, so tracing a cell stays
bit-identically deterministic; host-side components (the sweep executor)
may pass a wall clock because they run outside cells.  A tracer with no
clock timestamps everything at 0.0, which still records ordering and
counts.

Every finished span also feeds the histogram
``span.<name>.duration_ms`` in the tracer's registry, so span timing
shows up in ordinary metric exports without reading the span buffer.

The simulator's ``radio.tx`` spans are the exception to "record as you
go": the radio ledger keeps each frame's ``(node, kind, start, end)`` in
a ring of typed columns (:class:`repro.obs.accounting.FrameRing`) and its
duration histogram's samples in an ``array('d')``, and
:attr:`repro.obs.SimObs.tracer` builds a ``Tracer`` holding the ring's
frames as ``Span`` objects only when something reads it.

Usage::

    tracer = Tracer(registry, clock=lambda: engine.now)
    with tracer.span("radio.tx", node=3, kind="result"):
        ...                      # or start()/finish() for callback code
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Iterator, List, Optional

from .registry import MetricsRegistry, get_registry

#: Default bound on retained finished spans (oldest dropped first).
DEFAULT_SPAN_CAP = 10_000


@dataclass
class Span:
    """One named, labelled interval.  ``end_ms`` is None while open."""

    name: str
    start_ms: float
    labels: Dict[str, str] = field(default_factory=dict)
    end_ms: Optional[float] = None
    status: str = "ok"

    @property
    def duration_ms(self) -> float:
        if self.end_ms is None:
            return 0.0
        return self.end_ms - self.start_ms

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "start_ms": self.start_ms,
            "end_ms": self.end_ms,
            "duration_ms": self.duration_ms,
            "labels": dict(sorted(self.labels.items())),
            "status": self.status,
        }


class Tracer:
    """Collects spans against an injected clock, bounded in memory.

    ``finished`` holds the most recent ``cap`` completed spans in
    completion order; ``dropped`` counts evictions, so an exporter can
    tell a quiet run from a truncated one.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 clock: Optional[Callable[[], float]] = None,
                 cap: int = DEFAULT_SPAN_CAP) -> None:
        self.registry = registry if registry is not None else get_registry()
        self._clock = clock or (lambda: 0.0)
        self.cap = cap
        # A deque evicts the oldest span in O(1) once full; the simulator
        # finishes a span per frame, a long-lived service millions.
        self.finished: Deque[Span] = deque(maxlen=cap)
        self.dropped = 0
        self.started = 0
        # Duration-histogram handles by span name: the handle for a given
        # name never changes, so finish() looks it up once.
        self._duration_hists: Dict[str, object] = {}

    @property
    def now(self) -> float:
        return self._clock()

    # -- recording -----------------------------------------------------
    def start(self, name: str, **labels: object) -> Span:
        """Open a span now; pair with :meth:`finish`."""
        self.started += 1
        return Span(name=name, start_ms=self._clock(),
                    labels={str(k): str(v) for k, v in labels.items()})

    def finish(self, span: Span, status: str = "ok",
               end_ms: Optional[float] = None) -> Span:
        """Close a span (``end_ms`` overrides the clock, e.g. known airtime)."""
        span.end_ms = self._clock() if end_ms is None else end_ms
        span.status = status
        if len(self.finished) == self.cap:
            self.dropped += 1
        self.finished.append(span)
        hist = self._duration_hists.get(span.name)
        if hist is None:
            hist = self._duration_hists[span.name] = self.registry.histogram(
                f"span.{span.name}.duration_ms",
                help=f"duration of {span.name} spans",
                unit="ms")
        hist.observe(span.duration_ms)
        return span

    @contextmanager
    def span(self, name: str, **labels: object) -> Iterator[Span]:
        """Context manager form; marks the span failed on exception."""
        opened = self.start(name, **labels)
        try:
            yield opened
        except BaseException:
            self.finish(opened, status="error")
            raise
        self.finish(opened)

    # -- introspection -------------------------------------------------
    def by_name(self, name: str) -> List[Span]:
        return [s for s in self.finished if s.name == name]

    def snapshot(self, limit: Optional[int] = None) -> List[Dict[str, object]]:
        """The most recent ``limit`` finished spans as JSON-safe dicts."""
        spans = list(self.finished)
        if limit is not None:
            spans = spans[-limit:]
        return [span.to_dict() for span in spans]
