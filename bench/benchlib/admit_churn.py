"""``admit_churn``: distinct random queries arriving and leaving, tier 1 only."""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List

from repro.core.basestation import BaseStationOptimizer
from repro.harness.tier1_sim import default_cost_model
from repro.service import OptimizerBackend, QueryService
from repro.service.service import TicketStatus
from repro.workloads import dynamic_workload, fig4_query_model
from repro.workloads.spec import EventKind, Workload

from .base import Outcome, Stopwatch, proxied
from .stats import Digest, percentile

NAME = "admit_churn"
WHY = ("Section 4.3 random queries, all distinct, arriving and leaving "
       "through QueryService(OptimizerBackend) by library call: Algorithms "
       "1 and 2 over a large table dominate, the dedup cache is bypassed")

N_NODES = 64
MAX_DEPTH = 5
N_QUERIES = 2000
CONCURRENCY = 400.0
QUICK_N_QUERIES = 300
QUICK_CONCURRENCY = 60.0
N_SESSIONS = 16
#: Every this many events the traced run reads the modelled costs, to
#: integrate the benefit ratio the way harness.tier1_sim does.
COST_SAMPLE_EVERY = 50

BACKEND_METHODS = ("register", "register_passthrough", "terminate")


@dataclass
class Ctx:
    workload: Workload
    optimizer: BaseStationOptimizer
    service: QueryService
    sessions: List[str]


def make_inputs(seed: int, quick: bool) -> Workload:
    return dynamic_workload(
        fig4_query_model(), N_NODES,
        n_queries=QUICK_N_QUERIES if quick else N_QUERIES,
        concurrency=QUICK_CONCURRENCY if quick else CONCURRENCY, seed=seed)


def setup(workload: Workload, tracer) -> Ctx:
    optimizer = BaseStationOptimizer(default_cost_model(N_NODES, MAX_DEPTH),
                                     alpha=0.6)
    backend = proxied(OptimizerBackend(optimizer), tracer,
                      "core.basestation", BACKEND_METHODS)
    # Virtual clock: every call below passes the event's own time.
    service = QueryService(backend, batch_window_ms=0.0,
                           default_ttl_ms=workload.duration_ms * 10.0,
                           clock=lambda: 0.0)
    sessions = [service.open_session(f"tenant-{i:02d}", now_ms=0.0)
                for i in range(N_SESSIONS)]
    return Ctx(workload, optimizer, service, sessions)


def run(ctx: Ctx, tracer) -> Outcome:
    service, optimizer = ctx.service, ctx.optimizer
    sessions = ctx.sessions
    owner: Dict[int, tuple] = {}          # generated qid -> (session, ticket)
    submit_s: List[float] = []
    terminate_s: List[float] = []
    failed = 0
    synthetic_peak = 0
    cost_area = {"user": 0.0, "synthetic": 0.0}
    last_sample_ms = None

    with Stopwatch(tracer) as clock:
        for index, event in enumerate(ctx.workload.events):
            now = event.time_ms
            qid = event.query.qid
            if event.kind is EventKind.ARRIVE:
                sid = sessions[index % N_SESSIONS]
                t0 = perf_counter()
                with tracer.span("service.submit", "service", req=qid):
                    ticket = service.submit(sid, event.query, now_ms=now)
                submit_s.append(perf_counter() - t0)
                if ticket.status is TicketStatus.LIVE:
                    owner[qid] = (sid, ticket.ticket_id)
                else:
                    failed += 1
            elif qid in owner:
                sid, ticket_id = owner.pop(qid)
                t0 = perf_counter()
                with tracer.span("service.terminate", "service", req=qid):
                    service.terminate(sid, ticket_id, now_ms=now)
                terminate_s.append(perf_counter() - t0)
            with tracer.span("service.tick", "service"):
                service.tick(now_ms=now)
            if tracer.enabled:
                synthetic_peak = max(synthetic_peak,
                                     optimizer.synthetic_count())
                if index % COST_SAMPLE_EVERY == 0:
                    with tracer.span("bench.cost_sample", "bench"):
                        if last_sample_ms is not None:
                            dt = now - last_sample_ms
                            cost_area["user"] += user_cost * dt
                            cost_area["synthetic"] += synthetic_cost * dt
                        user_cost = optimizer.total_user_cost()
                        synthetic_cost = optimizer.total_synthetic_cost()
                        last_sample_ms = now

    problems: List[str] = []
    try:
        service.validate()
    except AssertionError as exc:
        problems.append(f"validate(): {exc}")
    stats = service.stats()
    record = {
        "submissions": stats.submissions_total,
        "admitted": stats.admitted_total,
        "registrations": stats.registrations,
        "injected_registrations": stats.injected_registrations,
        "absorbed_registrations": stats.absorbed_registrations,
        "cache_hits": stats.cache_hits,
        "terminations": stats.terminations,
        "live_synthetic_queries": stats.live_synthetic_queries,
        "network_operations": stats.network_operations,
        "absorbed_operations": stats.absorbed_operations,
    }
    digest = Digest()
    digest.add(sorted(record.items()))
    submit_ms = [s * 1000.0 for s in submit_s]
    detail = {"submit_samples": len(submit_s),
              "terminate_samples": len(terminate_s)}
    if tracer.enabled:
        detail["synthetic_peak"] = synthetic_peak
        detail["benefit_ratio"] = (
            1.0 - cost_area["synthetic"] / cost_area["user"]
            if cost_area["user"] > 0 else 0.0)
    return Outcome(
        wall_s=clock.wall_s, cpu_s=clock.cpu_s,
        attempted=len(submit_s) + len(terminate_s), failed=failed,
        digest=digest.hex(), record=record,
        values={
            "admissions_per_s": stats.admitted_total / clock.wall_s,
            "submit_p50_ms": percentile(submit_ms, 50),
            "submit_p99_ms": percentile(submit_ms, 99),
            "terminate_p50_ms": percentile(
                [s * 1000.0 for s in terminate_s], 50),
        },
        counts={
            "service.registrations": stats.registrations,
            "service.cache_hit_rate": stats.cache_hit_rate,
            "service.absorbed_admission_rate": stats.absorbed_admission_rate,
            "core.basestation.network_ops": stats.network_operations,
        },
        problems=problems, detail=detail)


def layer_metrics(ctx: Ctx, outcome: Outcome, tracer) -> Dict[str, float]:
    register = (tracer.durations_s("core.basestation.register")
                + tracer.durations_s("core.basestation.register_passthrough"))
    terminate = tracer.durations_s("core.basestation.terminate")
    register_ms = [s * 1000.0 for s in register]
    busy = {name: tracer.busy_s(f"service.{name}")
            for name in ("submit", "terminate", "tick")}
    return {
        "service.submit_busy_s": busy["submit"],
        "service.terminate_busy_s": busy["terminate"],
        "service.tick_busy_s": busy["tick"],
        "service.self_s": tracer.self_time_by_layer().get("service", 0.0),
        "core.basestation.register_busy_s": sum(register),
        "core.basestation.register_ms_p50": percentile(register_ms, 50),
        "core.basestation.register_ms_p99": percentile(register_ms, 99),
        "core.basestation.terminate_busy_s": sum(terminate),
        "core.basestation.terminate_ms_p50": percentile(
            [s * 1000.0 for s in terminate], 50),
        "core.basestation.synthetic_peak": outcome.detail["synthetic_peak"],
        "core.basestation.benefit_ratio": outcome.detail["benefit_ratio"],
    }


def teardown(ctx: Ctx) -> None:
    pass


def query_inputs(workload: Workload) -> list:
    return workload.queries     # arrive already parsed; only canonicalized
