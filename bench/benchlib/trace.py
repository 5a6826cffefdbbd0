"""In-memory spans recorded from outside the program, and what is read off them.

The benchmark may not edit the program, so a layer is timed where the
driver (or a layer above it) calls into it: the driver wraps its own calls
in :meth:`Tracer.span`, and hands a :class:`TimedProxy` to the layer above
through that layer's public constructor, so that calls one layer makes
into the next are recorded too.  Spans are kept in a list and written out
when the run ends.

A span is ``[name, layer, req, start_ns, end_ns, parent]`` where ``parent``
is the index of the enclosing span on the same thread (or ``None``).
"""

from __future__ import annotations

import cProfile
import json
import pstats
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional

NAME, LAYER, REQ, START, END, PARENT = range(6)

#: ``repro.<package>`` prefixes the profile is summed by, most specific
#: first: a file belongs to the first prefix its module path starts with.
PROFILE_LAYERS = (
    ("core.innetwork", "repro/core/innetwork/"),
    ("core.basestation", "repro/core/basestation/"),
    ("sim", "repro/sim/"),
    ("tinydb", "repro/tinydb/"),
    ("obs", "repro/obs/"),
    ("sensors", "repro/sensors/"),
    ("queries", "repro/queries/"),
    ("service", "repro/service/"),
    ("cluster", "repro/cluster/"),
    ("gateway", "repro/gateway/"),
    ("harness", "repro/harness/"),
)


class Tracer:
    """Span recorder; one per traced repetition."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._local = threading.local()
        #: The gateway workload records from three threads; a span's index
        #: is its identity, so allocation is serialized.
        self._lock = threading.Lock()
        #: Identifier the next spans on this thread are filed under (a
        #: ticket, a client, a cell); set by the driver around its calls.
        self.req: Optional[object] = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, layer: str, req: Optional[object] = None):
        stack = self._stack()
        record = [name, layer, self.req if req is None else req,
                  0, 0, stack[-1] if stack else None]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        record[START] = time.perf_counter_ns()
        try:
            yield index
        finally:
            record[END] = time.perf_counter_ns()
            stack.pop()

    def add(self, name: str, layer: str, req: Optional[object],
            start_ns: int, end_ns: int, parent: Optional[int] = None) -> int:
        """Record a span measured elsewhere (e.g. send time to reply time)."""
        with self._lock:
            self.spans.append([name, layer, req, start_ns, end_ns, parent])
            return len(self.spans) - 1

    # -- reading ---------------------------------------------------------
    def durations_s(self, name: str) -> List[float]:
        return [(s[END] - s[START]) / 1e9 for s in self.spans
                if s[NAME] == name]

    def busy_s(self, name: str) -> float:
        return sum(self.durations_s(name))

    def coverage(self, name: str) -> float:
        """Share of the span called ``name`` that its child spans cover."""
        index = next(i for i, s in enumerate(self.spans) if s[NAME] == name)
        covered = sum(s[END] - s[START] for s in self.spans
                      if s[PARENT] == index)
        return covered / (self.spans[index][END] - self.spans[index][START])

    def self_time_by_layer(self) -> Dict[str, float]:
        """Each layer's span time minus the part its child spans cover."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] is not None:
                child_ns[span[PARENT]] += span[END] - span[START]
        totals: Dict[str, float] = {}
        for index, span in enumerate(self.spans):
            own = span[END] - span[START] - child_ns[index]
            totals[span[LAYER]] = totals.get(span[LAYER], 0.0) + own / 1e9
        return totals

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps({
                    "name": span[NAME], "layer": span[LAYER],
                    "req": span[REQ], "start_ns": span[START],
                    "end_ns": span[END], "parent": span[PARENT]}) + "\n")


class TimedProxy:
    """Stands in for ``target``; the listed methods record a span per call.

    Everything else (attributes, other methods, assignments) goes straight
    to the target, so the layer above cannot tell the difference.
    """

    def __init__(self, target, tracer: Tracer, layer: str,
                 methods: Iterable[str], prefix: Optional[str] = None):
        object.__setattr__(self, "_tp_target", target)
        prefix = prefix or layer
        for method in methods:
            bound = getattr(target, method, None)
            if bound is not None:
                object.__setattr__(
                    self, method,
                    _timed(bound, tracer, f"{prefix}.{method}", layer))

    def __getattr__(self, name):
        return getattr(object.__getattribute__(self, "_tp_target"), name)

    def __setattr__(self, name, value):
        setattr(object.__getattribute__(self, "_tp_target"), name, value)


def _timed(bound, tracer: Tracer, name: str, layer: str):
    def call(*args, **kwargs):
        with tracer.span(name, layer):
            return bound(*args, **kwargs)
    return call


def profile_self_s(profiler: cProfile.Profile) -> Dict[str, float]:
    """Sum a finished profile's ``tottime`` by ``repro.<package>``.

    The interior of ``run_until`` cannot be interposed from outside, so
    this is how the simulator's time is split between channel, app layer
    and accounting.  The figures add up to the profiled wall by
    construction (``other`` is the interpreter, the standard library and
    the benchmark itself) and are inflated by the profiler's per-call
    cost: compare them with each other, not with ``wall_s``.
    """
    totals = {layer: 0.0 for layer, _ in PROFILE_LAYERS}
    totals["other"] = 0.0
    for (filename, _line, _func), row in pstats.Stats(profiler).stats.items():
        tottime = row[2]
        path = filename.replace("\\", "/")
        for layer, needle in PROFILE_LAYERS:
            if needle in path:
                totals[layer] += tottime
                break
        else:
            totals["other"] += tottime
    return totals
