"""Parallel sweep executor: wall-clock and determinism on the Fig. 3 grid.

Runs the full Figure 3 grid (3 workloads x {16, 64} nodes x 4 strategies)
three ways — serial in-process, fanned over 4 worker processes, and again
from a warm cache — and records the wall clocks, speedup, and telemetry in
``BENCH_parallel.json``.

Assertions:

* parallel and serial execution produce **bit-identical** metrics for
  every cell (the executor's determinism contract);
* a warm-cache re-run performs **zero** simulations (hits == cells);
* on a machine with >= 4 CPU cores, the 4-worker sweep is at least 2x
  faster than the serial run (skipped on smaller machines, where there is
  no parallel hardware to win on — the recorded JSON still shows the
  measured numbers).
"""

import json
import os
import time
from pathlib import Path

from repro.harness import print_table, run_sweep
from repro.harness.experiments import fig3_grid

from _util import run_once

BENCH_PATH = Path(__file__).resolve().parent / "BENCH_parallel.json"
WORKERS = 4


def _measure(tmp_cache: Path):
    cells = fig3_grid()

    started = time.perf_counter()
    serial = run_sweep(cells, workers=0)
    serial_s = time.perf_counter() - started

    started = time.perf_counter()
    parallel = run_sweep(cells, workers=WORKERS, cache_dir=tmp_cache)
    parallel_s = time.perf_counter() - started

    started = time.perf_counter()
    cached = run_sweep(cells, workers=WORKERS, cache_dir=tmp_cache)
    cached_s = time.perf_counter() - started

    return cells, serial, serial_s, parallel, parallel_s, cached, cached_s


def test_parallel_sweep(benchmark, tmp_path):
    (cells, serial, serial_s, parallel, parallel_s,
     cached, cached_s) = run_once(benchmark, _measure, tmp_path / "cache")

    serial_metrics = [c.result.to_dict() for c in serial.cells]
    parallel_metrics = [c.result.to_dict() for c in parallel.cells]
    cached_metrics = [c.result.to_dict() for c in cached.cells]

    # Determinism contract: identical metrics, whatever ran them.
    assert parallel_metrics == serial_metrics
    assert cached_metrics == serial_metrics

    # A warm cache re-runs nothing.
    assert cached.telemetry.cache_hits == len(cells)
    assert cached.telemetry.cache_misses == 0

    speedup = serial_s / parallel_s if parallel_s > 0 else 0.0
    record = {
        "grid": "fig3 (A/B/C x {16,64} nodes x 4 strategies)",
        "cells": len(cells),
        "workers": WORKERS,
        "cpu_count": os.cpu_count(),
        "serial_wall_s": round(serial_s, 3),
        "parallel_wall_s": round(parallel_s, 3),
        "cached_wall_s": round(cached_s, 3),
        "speedup": round(speedup, 3),
        "cached_speedup": round(serial_s / cached_s, 1) if cached_s > 0
        else None,
        "parallel_utilization": round(parallel.telemetry.utilization, 3),
        "cell_p50_s": round(parallel.telemetry.cell_p50_s, 3),
        "cell_p95_s": round(parallel.telemetry.cell_p95_s, 3),
    }
    BENCH_PATH.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    print_table(
        ["mode", "wall (s)", "simulated", "cache hits"],
        [["serial", f"{serial_s:.2f}", serial.telemetry.cache_misses, 0],
         [f"parallel x{WORKERS}", f"{parallel_s:.2f}",
          parallel.telemetry.cache_misses, parallel.telemetry.cache_hits],
         ["warm cache", f"{cached_s:.2f}", cached.telemetry.cache_misses,
          cached.telemetry.cache_hits]],
        title=f"Fig. 3 grid sweep ({len(cells)} cells) -> {BENCH_PATH.name}",
    )

    if (os.cpu_count() or 1) >= WORKERS:
        assert speedup >= 2.0, (
            f"4-worker sweep only {speedup:.2f}x faster than serial "
            f"on a {os.cpu_count()}-core machine")
    # The cache always wins regardless of core count.
    assert cached_s < serial_s
