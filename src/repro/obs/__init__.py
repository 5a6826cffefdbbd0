"""repro.obs — the unified observability layer (S10).

One process-wide metrics registry (counters, gauges, histograms with
p50/p95), a structured span/trace API on injected clocks, and the
end-to-end latency accountant.  Every other layer records here:

* ``repro.sim`` — its radio ledger (``sim.trace.TraceCollector``) exports
  frames, airtime, collisions, retransmissions, drops, sleep and energy
  in the paper's cost-model units.  The per-frame series are read from
  the ledger's totals when the registry is read, and ``radio.tx`` spans
  are built from its ring of recent frames when ``SimObs.tracer`` is;
* ``repro.tinydb`` (base station) — control floods, delivered results,
  per-query end-to-end latency;
* ``repro.core`` (tier-1 optimizer) — registrations, terminations,
  network vs absorbed operations, live query counts, modelled benefit;
* ``repro.service`` — admissions, cache hits, lease churn, admission
  latency (``stats()`` reads these same metrics);
* ``repro.harness`` — run-level ``run.*`` gauges mirroring every
  ``RunResult`` field, and sweep executor telemetry.

Exports (text / JSON / Prometheus) and the telemetry contract — metric
names, labels, units, and their stability guarantees — are documented in
``docs/observability.md``; ``python -m repro obs`` runs one Figure 3 cell
and prints the export.  Nothing in this package reads the wall clock or
randomness, so instrumentation never perturbs the repository's
bit-identical determinism guarantees.
"""

from .accounting import LatencyAccountant, SimObs
from .export import render_json, render_prometheus, render_text
from .registry import (
    Counter,
    Counts,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    bind_counts,
    percentile,
    reset_registry,
    scoped,
    set_registry,
    unbind,
)
from .spans import DEFAULT_SPAN_CAP, Span, Tracer

__all__ = [
    "Counter",
    "Counts",
    "DEFAULT_SPAN_CAP",
    "Gauge",
    "Histogram",
    "LatencyAccountant",
    "MetricsRegistry",
    "SimObs",
    "Span",
    "Tracer",
    "bind_counts",
    "get_registry",
    "percentile",
    "render_json",
    "render_prometheus",
    "render_text",
    "reset_registry",
    "scoped",
    "set_registry",
    "unbind",
]
