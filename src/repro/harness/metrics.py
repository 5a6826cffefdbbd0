"""Metric helpers shared by the benchmarks and integration tests."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping

from ..obs.registry import percentile
from .runner import RunResult
from .strategies import Strategy


def percent_savings(baseline: float, optimized: float) -> float:
    """Relative improvement of ``optimized`` over ``baseline`` in percent.

    The paper's "improved up to 82% in terms of the transmission time"
    means the optimized strategy spends 82% less transmission time than the
    baseline.
    """
    if baseline <= 0:
        return 0.0
    return 100.0 * (baseline - optimized) / baseline


def savings_table(results: Mapping[Strategy, RunResult]) -> Dict[Strategy, float]:
    """Percent transmission-time savings of each strategy vs the baseline."""
    baseline = results[Strategy.BASELINE].average_transmission_time
    return {
        strategy: percent_savings(baseline, result.average_transmission_time)
        for strategy, result in results.items()
        if strategy is not Strategy.BASELINE
    }


@dataclass
class SweepTelemetry:
    """Progress/timing channel of one sweep (:mod:`repro.harness.parallel`).

    Filled in as cells complete; readable at any time by a progress
    callback, final by the time :func:`run_sweep` returns.
    """

    total_cells: int = 0
    workers: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    wall_s: float = 0.0
    #: Per-cell simulation durations (seconds), cache hits excluded —
    #: a hit performs no simulation.
    cell_seconds: List[float] = field(default_factory=list)

    @property
    def simulated_cells(self) -> int:
        return len(self.cell_seconds)

    @property
    def busy_s(self) -> float:
        """Total worker-seconds spent simulating."""
        return sum(self.cell_seconds)

    @property
    def utilization(self) -> float:
        """Fraction of the worker pool's wall-clock capacity spent busy."""
        if self.wall_s <= 0 or self.workers <= 0:
            return 0.0
        return min(self.busy_s / (self.wall_s * self.workers), 1.0)

    @property
    def cell_p50_s(self) -> float:
        return percentile(self.cell_seconds, 50.0)

    @property
    def cell_p95_s(self) -> float:
        return percentile(self.cell_seconds, 95.0)

    def summary(self) -> Dict[str, float]:
        """Flat headline numbers, for reporting and the sweep CLI."""
        return {
            "total_cells": float(self.total_cells),
            "cache_hits": float(self.cache_hits),
            "cache_misses": float(self.cache_misses),
            "simulated_cells": float(self.simulated_cells),
            "workers": float(self.workers),
            "wall_s": self.wall_s,
            "busy_s": self.busy_s,
            "utilization": self.utilization,
            "cell_p50_s": self.cell_p50_s,
            "cell_p95_s": self.cell_p95_s,
        }

    def export(self, registry=None) -> None:
        """Fold this telemetry into a metrics registry (``sweep.*``).

        Serial and parallel sweeps call this with identical semantics, so
        an exported snapshot has the same schema either way (wall-clock
        derived values naturally differ; everything else is
        deterministic).  Counters accumulate across sweeps in the same
        registry; the gauges describe the most recent one.
        """
        from ..obs import get_registry  # local import: avoid cycle at load

        registry = registry or get_registry()
        registry.counter("sweep.cells_total",
                         help="experiment cells requested").inc(
            self.total_cells)
        registry.counter("sweep.cache_hits_total",
                         help="cells served from the result cache").inc(
            self.cache_hits)
        registry.counter("sweep.cache_misses_total",
                         help="cells that had to simulate").inc(
            self.cache_misses)
        registry.gauge("sweep.workers",
                       help="worker processes of the last sweep").set(
            self.workers)
        registry.gauge("sweep.wall_seconds", unit="s",
                       help="wall-clock duration of the last sweep").set(
            self.wall_s)
        registry.gauge("sweep.utilization",
                       help="worker busy fraction of the last sweep").set(
            self.utilization)
        hist = registry.histogram("sweep.cell_seconds", unit="s",
                                  help="per-cell simulation durations")
        for seconds in self.cell_seconds:
            hist.observe(seconds)


def message_savings(results: Mapping[Strategy, RunResult]) -> Dict[Strategy, float]:
    """Percent result-frame savings of each strategy vs the baseline."""
    baseline = results[Strategy.BASELINE].result_frames
    return {
        strategy: percent_savings(baseline, result.result_frames)
        for strategy, result in results.items()
        if strategy is not Strategy.BASELINE
    }
