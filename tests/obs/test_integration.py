"""End-to-end: a cell's registry export mirrors its ``RunResult`` exactly.

This is the acceptance test for the telemetry layer: metrics are not a
parallel implementation of the run statistics, they *are* the run
statistics — the ``sim.*`` series read the same accumulators of the
simulation's one radio ledger (``sim.trace.TraceCollector``) that
``RunResult`` reads, so every exported value
must equal the corresponding ``RunResult`` field bit-for-bit, and the
instrumentation must not perturb the simulation (same snapshot across
repeated runs).
"""

import pytest

from repro.harness import Strategy
from repro.harness.experiments import fig3_cells
from repro.harness.runner import run_workload_live
from repro.obs import render_json, scoped
from repro.queries.ast import fresh_qids

DURATION_MS = 20_000.0


def run_cell(strategy=Strategy.TTMQO):
    spec = fig3_cells("A", 4, duration_ms=DURATION_MS,
                      strategies=(strategy,))[0]
    with scoped() as registry:
        with fresh_qids():
            workload = spec.workload.build()
            live = run_workload_live(spec.strategy, workload,
                                     spec.resolved_config(), spec.drain_ms)
        snapshot = registry.snapshot()
    return registry, snapshot, live


@pytest.fixture(scope="module")
def cell():
    return run_cell()


def by_key(snapshot):
    return {(e["name"], tuple(sorted(e["labels"].items()))): e
            for e in snapshot}


class TestRunResultParity:
    def test_energy_gauge_bit_identical(self, cell):
        _, snapshot, live = cell
        entries = by_key(snapshot)
        avg = entries[("sim.energy.avg_node_mj", ())]
        assert avg["value"] == live.result.average_energy_mj

    def test_every_run_gauge_mirrors_runresult(self, cell):
        _, snapshot, live = cell
        result = live.result
        labels = (("strategy", result.strategy.name),
                  ("workload", result.workload_description))
        entries = by_key(snapshot)
        mirrored = 0
        for field, value in result.to_dict().items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            entry = entries[(f"run.{field}", labels)]
            assert entry["value"] == value, field
            mirrored += 1
        assert mirrored >= 10  # the RunResult scalars, not a token few

    def test_frames_by_kind_parity(self, cell):
        _, snapshot, live = cell
        exported = {dict(key[1])["kind"]: entry["value"]
                    for key, entry in by_key(snapshot).items()
                    if key[0] == "sim.radio.tx_frames_total"}
        sent = {kind: frames
                for kind, frames in live.result.frames_by_kind().items()
                if frames}
        assert exported == sent
        assert sum(exported.values()) == live.result.total_frames

    def test_per_query_latency_gauges(self, cell):
        _, snapshot, live = cell
        results = live.deployment.results
        qids = results.queries_seen()
        assert qids
        entries = by_key(snapshot)
        for qid in qids:
            labels = (("qid", str(qid)),
                      ("strategy", live.result.strategy.name),
                      ("workload", live.result.workload_description))
            entry = entries[("run.query_mean_row_latency_ms", labels)]
            assert entry["value"] == results.mean_row_latency(qid)


class TestInstrumentationCoverage:
    def test_radio_and_node_families_present(self, cell):
        registry, _, _ = cell
        families = registry.families()
        for name in ["sim.radio.tx_frames_total", "sim.radio.airtime_ms_total",
                     "sim.node.tx_ms_total", "sim.energy.node_mj",
                     "sim.energy.total_mj", "span.radio.tx.duration_ms",
                     "tinydb.bs.queries_injected_total",
                     "optimizer.registrations_total"]:
            assert name in families, name

    def test_spans_recorded_on_virtual_clock(self, cell):
        _, _, live = cell
        tracer = live.deployment.sim.obs.tracer
        spans = tracer.by_name("radio.tx")
        assert spans
        assert all(s.duration_ms > 0 for s in spans)
        # duration_ms is the full horizon; a frame in flight at the end
        # may finish a few ms of airtime past it.
        assert all(s.end_ms <= live.result.duration_ms + 1000.0
                   for s in spans)

    def test_optimizer_gauges_live(self, cell):
        _, snapshot, live = cell
        entries = by_key(snapshot)
        synth = entries[("optimizer.synthetic_queries", ())]
        assert synth["value"] == live.deployment.optimizer.synthetic_count()


class TestDeterminism:
    def test_repeated_run_snapshots_bit_identical(self, cell):
        _, first, _ = cell
        _, second, _ = run_cell()
        assert render_json(first) == render_json(second)
