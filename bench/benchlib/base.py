"""What every workload module provides, and the helpers they share.

A workload module defines ``NAME``, ``WHY`` and six functions::

    make_inputs(seed, quick) -> inputs      seeded; all the program sees
    setup(inputs, tracer)    -> ctx         deployments, services, sockets
    run(ctx, tracer)         -> Outcome     the timed region, driver-owned
    layer_metrics(ctx, outcome, tracer) -> {name: value}   traced run only
    query_inputs(inputs)     -> texts or queries the workload submits
    teardown(ctx)

``tracer`` is a :class:`~benchlib.trace.Tracer` on the traced repetition
and :data:`NO_TRACE` otherwise; with :data:`NO_TRACE` no proxy is
installed and ``span`` costs one no-op context manager.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from .trace import TimedProxy

BENCH_DIR = Path(__file__).resolve().parent.parent
GOLDEN_DIR = BENCH_DIR / "golden"
#: Everything a run writes: results, span files, the gateway's state dirs.
OUT_DIR = BENCH_DIR / "out"


class _NoTrace:
    """Tracing off: spans are no-ops and nothing is proxied."""

    enabled = False
    req = None
    _null = nullcontext()       # reusable, unlike a generator-based manager

    def span(self, name, layer, req=None):
        return self._null


NO_TRACE = _NoTrace()


def proxied(target, tracer, layer: str, methods: Iterable[str],
            prefix: Optional[str] = None):
    """``target`` itself when tracing is off, else a timing proxy for it."""
    if not tracer.enabled:
        return target
    return TimedProxy(target, tracer, layer, methods, prefix)


@dataclass
class Outcome:
    """One repetition's timed region."""

    wall_s: float
    cpu_s: float
    #: Operations attempted / failed, refused, shed, unanswered or wrong.
    attempted: int
    failed: int
    #: Digest of every deterministic output of the repetition.
    digest: str
    #: What is compared with the golden record, field by field.
    record: Dict[str, object]
    #: User-visible host-time metrics of this repetition, by name.
    values: Dict[str, float] = field(default_factory=dict)
    #: Counts and virtual-time metrics; these repeat exactly.
    counts: Dict[str, float] = field(default_factory=dict)
    #: Correctness failures found inside the repetition.
    problems: List[str] = field(default_factory=list)
    #: Free-form detail for result.json (sample counts, per-rate rows).
    detail: Dict[str, object] = field(default_factory=dict)


#: The span every driver call of a repetition is a child of.
REGION = "bench.timed_region"


class Stopwatch:
    """Wall and process-CPU time of the timed region.

    With tracing on the region is itself a span: what its children leave
    uncovered is the driver's own time between its calls into the layers.
    """

    def __init__(self, tracer) -> None:
        self._span = tracer.span(REGION, "bench")

    def __enter__(self) -> "Stopwatch":
        self._span.__enter__()
        self._cpu0 = time.process_time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.wall_s = time.perf_counter() - self._t0
        self.cpu_s = time.process_time() - self._cpu0
        return self._span.__exit__(*exc)


def sim_rates(frames: float, run_until_s: float) -> Dict[str, float]:
    """The simulator's busy time and what it made of it."""
    return {"sim.run_until_busy_s": run_until_s,
            "sim.frames_per_host_s": frames / run_until_s,
            "sim.host_us_per_frame": run_until_s / frames * 1e6}


@contextmanager
def timed_into(sink: List[float]):
    """Append the block's duration in seconds to ``sink``."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        sink.append(time.perf_counter() - t0)
