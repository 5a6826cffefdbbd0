"""Differential tests: serial execution vs the parallel sweep executor.

Determinism is the executor's contract, not approximate equality: for the
same grid, plain serial ``run_workload`` calls, the executor's in-process
serial mode, and the multi-process pool must all produce **identical**
``RunResult`` metrics, field by field.  The on-disk cache must replay a
completed sweep without performing a single simulation.
"""

import dataclasses

from repro.harness import (
    CellSpec,
    DeploymentConfig,
    Strategy,
    Tier1CellSpec,
    WorkloadSpec,
    run_sweep,
    run_workload,
)
from repro.queries import fresh_qids

DURATION_MS = 20_000.0


def _small_grid():
    """A cheap but non-trivial grid: 2 workloads x 2 strategies, side 3."""
    named = WorkloadSpec.named("A", duration_ms=DURATION_MS)
    adhoc = WorkloadSpec.from_texts(
        ("SELECT light FROM sensors WHERE light > 300 EPOCH DURATION 4096",
         "SELECT MAX(light) FROM sensors EPOCH DURATION 8192"),
        DURATION_MS, description="adhoc")
    return [
        CellSpec(strategy=strategy, workload=workload,
                 config=DeploymentConfig(side=3, seed=7), seed=7)
        for workload in (named, adhoc)
        for strategy in (Strategy.BASELINE, Strategy.TTMQO)
    ]


class TestSerialParallelEquivalence:
    def test_parallel_matches_direct_serial_field_by_field(self):
        cells = _small_grid()

        # The serial reference: plain run_workload, no executor involved.
        serial = []
        for cell in cells:
            with fresh_qids():
                workload = cell.workload.build()
                serial.append(run_workload(cell.strategy, workload,
                                           cell.resolved_config(),
                                           cell.drain_ms))

        report = run_sweep(cells, workers=2)
        assert len(report.cells) == len(cells)
        for reference, completed in zip(serial, report.cells):
            result = completed.result
            for field in dataclasses.fields(type(reference)):
                assert getattr(result, field.name) == \
                    getattr(reference, field.name), field.name

    def test_executor_serial_mode_matches_pool(self):
        cells = _small_grid()
        serial = run_sweep(cells, workers=0)
        pooled = run_sweep(cells, workers=3)
        assert [c.result.to_dict() for c in serial.cells] == \
            [c.result.to_dict() for c in pooled.cells]

    def test_tier1_cells_equivalent(self):
        cells = [Tier1CellSpec(n_nodes=16, n_queries=40, concurrency=4,
                               seed=seed) for seed in (1, 2)]
        serial = run_sweep(cells, workers=0)
        pooled = run_sweep(cells, workers=2)
        assert serial.results() == pooled.results()


class TestResultCacheReplay:
    def test_warm_cache_simulates_nothing(self, tmp_path):
        cells = _small_grid()
        cold = run_sweep(cells, workers=0, cache_dir=tmp_path / "cache")
        assert cold.telemetry.cache_hits == 0
        assert cold.telemetry.cache_misses == len(cells)

        warm = run_sweep(cells, workers=0, cache_dir=tmp_path / "cache")
        assert warm.telemetry.cache_hits == len(cells)
        assert warm.telemetry.cache_misses == 0
        assert warm.telemetry.simulated_cells == 0
        assert [c.result.to_dict() for c in warm.cells] == \
            [c.result.to_dict() for c in cold.cells]
        assert all(c.cached for c in warm.cells)

    def test_cache_shared_between_serial_and_parallel(self, tmp_path):
        cells = _small_grid()[:2]
        cold = run_sweep(cells, workers=2, cache_dir=tmp_path / "cache")
        warm = run_sweep(cells, workers=0, cache_dir=tmp_path / "cache")
        assert warm.telemetry.cache_hits == len(cells)
        assert warm.results()[0] == cold.results()[0]

    def test_telemetry_accounting(self, tmp_path):
        cells = _small_grid()
        report = run_sweep(cells, workers=0, cache_dir=tmp_path / "cache")
        t = report.telemetry
        assert t.total_cells == len(cells)
        assert t.cache_hits + t.cache_misses == len(cells)
        assert len(t.cell_seconds) == t.cache_misses
        assert t.wall_s > 0
        assert 0.0 <= t.utilization <= 1.0
        assert t.cell_p95_s >= t.cell_p50_s >= 0.0

    def test_progress_callback_sees_every_cell(self):
        cells = _small_grid()[:2]
        seen = []
        run_sweep(cells, workers=0,
                  progress=lambda cell, t: seen.append(cell.key))
        assert len(seen) == len(cells)
