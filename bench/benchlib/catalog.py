"""The metric catalogue: every name the benchmark prints, with its unit.

``BENCHMARK.json`` is this module written out (:func:`manifest`); the tests
check that the two agree and that a run emits exactly what is declared.

Two lists.  **End-to-end** metrics are what a user of the system sees and
carry a regression bound; **per-layer** metrics explain them and carry
none.  The driver that consumes ``BENCHMARK.json`` wants every declared
end-to-end metric on every workload, never zero, and steady across seeds,
so only the metrics of which that holds (:data:`CONTRACT_E2E`) are declared
``end_to_end`` there; the others are declared ``per_layer`` under the same
names and keep their bounds here, where ``run.py --agree`` enforces them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from . import admit_churn, cluster_sim, gateway_durable, serve_sim, sim_fig3

WORKLOADS = {module.NAME: module for module in (
    sim_fig3, admit_churn, gateway_durable, serve_sim, cluster_sim)}
ALL = tuple(WORKLOADS)
SIMS = ("sim_fig3", "serve_sim", "cluster_sim")
SERVED = ("serve_sim", "cluster_sim")

#: Whole seconds one run measures (``run_seconds``); a repetition is sized
#: to about 3 s on the box the sizes were chosen on, so a run makes five.
#: 22 runs of each of 5 workloads at about 20 s fit the driver's 3420 s.
RUN_SECONDS = 15
DEFAULT_SEED = 1


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Share of the parent's median it may worsen by; ``None``: per-layer.
    bound: Optional[float] = None
    #: Workloads an end-to-end metric is measured on.
    workloads: Tuple[str, ...] = ALL


# Host-time metrics.  The box these were sized on switches, for tens of
# seconds at a time, between two speeds 1.45x apart (see README, "Noise"),
# so every host-time bound is the widest the driver takes; on a quiet
# machine a tenth would do.
HOST = 0.25
E2E: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", HOST),
    Metric("wall_s", "s", "lower", HOST),
    Metric("cpu_s", "s", "lower", HOST),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
    Metric("sim_speed_x", "x", "higher", HOST, SIMS),
    Metric("admissions_per_s", "1/s", "higher", HOST, ("admit_churn",)),
    Metric("submit_p50_ms", "ms", "lower", HOST,
           ("admit_churn", "gateway_durable")),
    # Not on gateway_durable, where it is one pass's tail (see LAYERS).
    Metric("submit_p99_ms", "ms", "lower", HOST, ("admit_churn",)),
    Metric("terminate_p50_ms", "ms", "lower", HOST, ("admit_churn",)),
    Metric("recover_s", "s", "lower", HOST, ("gateway_durable",)),
    Metric("rows_delivered_per_s", "1/s", "higher", HOST, SERVED),
    # Virtual time and counts repeat exactly for a seed: bound 0.
    Metric("ttfr_virtual_ms_p50", "ms", "lower", 0.0, SERVED),
    Metric("ttfr_virtual_ms_p90", "ms", "lower", 0.0, SERVED),
    Metric("tx_saving_pct", "%", "higher", 0.0, ("sim_fig3",)),
    Metric("failed_share", "ratio", "lower", 0.0),
)
CONTRACT_E2E = ("setup_s", "wall_s", "peak_rss_mb")


def _layer(names: str, unit: str, better: str = "lower") -> List[Metric]:
    return [Metric(name, unit, better) for name in names.split()]


_RATES = gateway_durable.RATES
LAYERS: Tuple[Metric, ...] = tuple(
    # Demoted from the end-to-end list: two runs of the same tree differed
    # by 48% and 50% on them.  Both hang on whether a snapshot falls inside
    # the one 5 s step; gateway_durable's p99 is gateway.submit_p99_ms_r200.
    _layer("max_rate_ok_per_s", "1/s", "higher")
    + _layer("queries.parse_us_p50 queries.canonicalize_us_p50", "us")
    + _layer("queries.calls", "count", "higher")
    + _layer("gateway.ping_rtt_ms_p50 gateway.self_ms_p50 "
             "gateway.loadgen_lag_ms_p99", "ms")
    + _layer("gateway.encode_us_p50 gateway.decode_us_p50", "us")
    + _layer("gateway.requests", "count", "higher")
    + _layer("gateway.sheds gateway.send_drops gateway.backlog_max", "count")
    + _layer(" ".join(f"gateway.submit_p50_ms_r{r} gateway.submit_p99_ms_r{r}"
                      for r in _RATES), "ms")
    + _layer("service.submit_busy_s service.terminate_busy_s "
             "service.tick_busy_s service.flush_busy_s service.pump_busy_s "
             "service.self_s", "s")
    + _layer("service.pump_calls service.registrations service.shed_total "
             "service.wal_records service.snapshots "
             "service.recover_replayed_ops", "count")
    + _layer("service.pump_ms_p50 service.pump_ms_max "
             "service.snapshot_ms_final", "ms")
    + _layer("service.cache_hit_rate service.absorbed_admission_rate",
             "ratio", "higher")
    + _layer("service.wal_bytes", "B")
    + _layer("core.basestation.register_busy_s "
             "core.basestation.terminate_busy_s", "s")
    + _layer("core.basestation.register_ms_p50 "
             "core.basestation.register_ms_p99 "
             "core.basestation.terminate_ms_p50", "ms")
    + _layer("core.basestation.synthetic_peak core.basestation.network_ops",
             "count")
    + _layer("core.basestation.benefit_ratio", "ratio", "higher")
    + _layer("harness.deployment_build_s harness.deployment_register_busy_s "
             "sim.run_until_busy_s sim.cell_A_s sim.cell_B_s sim.cell_C_s",
             "s")
    + _layer("sim.frames sim.collisions sim.retransmissions sim.acquisitions",
             "count")
    + _layer("sim.frames_per_host_s", "1/s", "higher")
    + _layer("sim.host_us_per_frame", "us")
    # tottime by repro.<package> from the traced run's cProfile pass.
    + _layer("sim.self_s tinydb.self_s core.innetwork.self_s "
             "core.basestation.self_s obs.self_s sensors.self_s "
             "queries.self_s service.prof_self_s cluster.prof_self_s "
             "harness.prof_self_s other.prof_self_s", "s")
    + _layer("cluster.submit_busy_s cluster.flush_busy_s cluster.pump_busy_s "
             "cluster.tick_busy_s cluster.self_s", "s")
    + _layer("cluster.local_submissions cluster.fanout_submissions "
             "cluster.fanout_subqueries cluster.root_dedup_hits "
             "cluster.merged_rows cluster.merged_aggregates "
             "cluster.merge_duplicates_dropped", "count")
    + _layer("cluster.shard_skew", "ratio")
    # Traced wall over untraced wall (CPU for the open-loop workload), and
    # the share of the traced region the driver's own spans cover.
    + _layer("trace_overhead_x", "x")
    + _layer("trace_coverage", "ratio", "higher")
)

BY_NAME: Dict[str, Metric] = {m.name: m for m in E2E + LAYERS}
#: What ``--trace 1`` prints: every per-layer metric, and every end-to-end
#: metric the driver's contract cannot take as such.
CONTRACT_PER_LAYER = tuple(
    [m.name for m in E2E if m.name not in CONTRACT_E2E]
    + [m.name for m in LAYERS])


def manifest() -> dict:
    """``BENCHMARK.json`` as a dict."""
    def declare(name: str, with_bound: bool) -> dict:
        metric = BY_NAME[name]
        row = {"name": name, "unit": metric.unit, "better": metric.better}
        if with_bound:
            row["bound"] = metric.bound
        return row

    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": module.WHY}
                      for name, module in WORKLOADS.items()],
        "end_to_end": [declare(name, True) for name in CONTRACT_E2E],
        "per_layer": [declare(name, False) for name in CONTRACT_PER_LAYER],
    }
