"""``cluster_sim``: tenants over a 4-shard cluster, local and fanned-out."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List

from repro.cluster import ClusterCoordinator, FieldPartition
from repro.cluster.load import build_query_pool
from repro.harness import Deployment, DeploymentConfig, Strategy
from repro.service import QueryService
from repro.service.load import _perturb
from repro.service.service import TicketStatus

from .base import Outcome, Stopwatch, proxied, sim_rates, timed_into
from .scripted import CONNECT, HOUSEKEEP, Action, Clients, schedule
from .stats import Digest, item_key, percentile

NAME = "cluster_sim"
WHY = ("160 tenants, half region-local and half fanned out, over a 4-shard "
       "cluster on the 8x8 field: the deepest path (route, K services, K "
       "simulators, epoch-aligned merge); a result waits for K parts")

SIDE = 8
N_SHARDS = 4
N_CLIENTS = 160
DURATION_MS = 74_000.0
QUICK_SIDE = 4
QUICK_N_SHARDS = 2
QUICK_N_CLIENTS = 24
QUICK_DURATION_MS = 20_000.0
BATCH_WINDOW_MS = 250.0
STEP_MS = 512.0
DRAIN_MS = 4000.0
EARLY_TERMINATE_FRACTION = 0.1

BACKEND_METHODS = ("register", "register_passthrough", "terminate")
SERVICE_METHODS = ("open_session", "submit", "subscribe", "terminate",
                   "tick", "flush", "pump")


@dataclass
class Inputs:
    seed: int
    side: int
    duration_ms: float
    partition: FieldPartition
    texts: List[str]
    actions: List[Action]


@dataclass
class Ctx:
    inputs: Inputs
    deployments: List[Deployment]
    coordinator: ClusterCoordinator
    now: List[float]
    build_s: List[float]


def make_inputs(seed: int, quick: bool) -> Inputs:
    rng = random.Random(seed ^ 0xC105)
    n_clients = QUICK_N_CLIENTS if quick else N_CLIENTS
    duration = QUICK_DURATION_MS if quick else DURATION_MS
    side = QUICK_SIDE if quick else SIDE
    partition = FieldPartition(side, QUICK_N_SHARDS if quick else N_SHARDS,
                               quality_seed=seed)
    # The pool interleaves one global and one region-local question per
    # shard, so taking it round-robin gives half of each.
    pool = build_query_pool(partition)[:2 * partition.n_shards]
    texts = [_perturb(pool[i % len(pool)], rng) for i in range(n_clients)]
    return Inputs(seed, side, duration, partition, texts,
                  schedule(rng, n_clients, duration, STEP_MS,
                           EARLY_TERMINATE_FRACTION))


def setup(inputs: Inputs, tracer) -> Ctx:
    # Built by hand rather than through ClusterDeployment so that timing
    # proxies can be handed in through the public constructors.
    build_s: List[float] = []
    partition = inputs.partition
    deployments = []
    for region in partition.regions:
        with tracer.span("harness.deployment_build", "harness",
                         req=region.shard_id), timed_into(build_s):
            deployments.append(Deployment(
                Strategy.TTMQO,
                DeploymentConfig(side=inputs.side, seed=inputs.seed),
                topology=partition.topologies[region.shard_id]))
    now = [0.0]
    ttl_ms = inputs.duration_ms * 10.0
    backends = [proxied(d, tracer, "harness", BACKEND_METHODS,
                        prefix="harness.deployment") for d in deployments]
    services = [
        proxied(QueryService(backend, batch_window_ms=BATCH_WINDOW_MS,
                             default_ttl_ms=ttl_ms, clock=lambda: now[0]),
                tracer, "service", SERVICE_METHODS)
        for backend in backends]
    coordinator = ClusterCoordinator(
        backends, partition=partition, batch_window_ms=BATCH_WINDOW_MS,
        default_ttl_ms=ttl_ms, clock=lambda: now[0], services=services)
    return Ctx(inputs, deployments, coordinator, now, build_s)


def run(ctx: Ctx, tracer) -> Outcome:
    inputs, coordinator, now = ctx.inputs, ctx.coordinator, ctx.now
    clients = Clients(len(inputs.texts))
    scope: List[str] = [""] * len(inputs.texts)
    failed = 0

    def advance(t_end: float) -> None:
        # The lockstep ClusterDeployment.run_until performs, driver-owned.
        for shard_id, deployment in enumerate(ctx.deployments):
            with tracer.span("sim.run_until", "sim", req=shard_id):
                deployment.sim.run_until(t_end)
        now[0] = t_end
        with tracer.span("cluster.tick", "cluster"):
            coordinator.tick(now_ms=t_end)

    def housekeep(final: bool = False) -> None:
        with tracer.span("cluster.flush", "cluster"):
            coordinator.flush()
        with tracer.span("cluster.pump", "cluster"):
            coordinator.pump(now_ms=now[0], final=final)
        with tracer.span("bench.consume", "bench"):
            clients.consume(now[0])

    with Stopwatch(tracer) as clock:
        for when, _, kind, index in inputs.actions:
            advance(when)
            if kind == HOUSEKEEP:
                housekeep()
            elif kind == CONNECT:
                tracer.req = index
                with tracer.span("cluster.open_session", "cluster"):
                    sid = coordinator.open_session(f"tenant-{index:03d}")
                with tracer.span("cluster.submit", "cluster"):
                    ticket = coordinator.submit(sid, inputs.texts[index])
                with tracer.span("cluster.subscribe", "cluster"):
                    clients.subscriber[index] = coordinator.subscribe(
                        sid, ticket.ticket_id)
                tracer.req = None
                clients.session[index] = sid
                clients.ticket[index] = ticket.ticket_id
                clients.submitted_ms[index] = when
                clients.connected.append(index)
                scope[index] = ticket.scope
                if ticket.status not in (TicketStatus.PENDING,
                                         TicketStatus.LIVE):
                    failed += 1
            else:
                with tracer.span("cluster.terminate", "cluster", req=index):
                    coordinator.terminate(clients.session[index],
                                          clients.ticket[index])
                clients.terminated.add(index)
        advance(inputs.duration_ms + DRAIN_MS)
        housekeep(final=True)

    problems: List[str] = []
    try:
        coordinator.validate()
    except AssertionError as exc:
        problems.append(f"validate(): {exc}")
    orphans = coordinator.orphan_anchors()
    if orphans:
        problems.append(f"{len(orphans)} orphan anchors")
    unserved = clients.unserved()
    if unserved:
        problems.append(f"{len(unserved)} subscribed tenants got no data")
    digest = Digest()
    for index, got in enumerate(clients.received):
        digest.add(index, [item_key(item) for item in got])
    items = clients.items()
    ttfr = clients.ttfr_ms()
    stats = coordinator.stats()
    admitted = [s.admitted_total for s in stats.per_shard]
    traces = [d.sim.trace for d in ctx.deployments]
    virtual_s = (inputs.duration_ms + DRAIN_MS) / 1000.0
    counts = {
        "ttfr_virtual_ms_p50": percentile(ttfr, 50),
        "ttfr_virtual_ms_p90": percentile(ttfr, 90),
        "cluster.local_submissions": stats.local_submissions,
        "cluster.fanout_submissions": stats.fanout_submissions,
        "cluster.fanout_subqueries": stats.fanout_subqueries,
        "cluster.root_dedup_hits": stats.root_dedup_hits,
        "cluster.merged_rows": stats.merged_rows,
        "cluster.merged_aggregates": stats.merged_aggregates,
        "cluster.merge_duplicates_dropped": stats.merge_duplicates_dropped,
        "cluster.shard_skew": max(admitted) * len(admitted) / sum(admitted),
        "service.registrations": stats.registrations,
        "core.basestation.network_ops": sum(
            s.network_operations for s in stats.per_shard),
        "sim.frames": sum(t.total_transmissions() for t in traces),
        "sim.collisions": sum(t.collisions for t in traces),
        "sim.retransmissions": sum(t.retransmissions for t in traces),
        "sim.acquisitions": sum(d.total_acquisitions()
                                for d in ctx.deployments),
    }
    record = {"items": items, "digest": digest.hex(),
              "tenants_served": sum(1 for got in clients.received if got),
              "local": scope.count("local"), "fanout": scope.count("fanout"),
              "frames": counts["sim.frames"],
              "merged_rows": stats.merged_rows,
              "merged_aggregates": stats.merged_aggregates}
    return Outcome(
        wall_s=clock.wall_s, cpu_s=clock.cpu_s,
        attempted=len(inputs.texts) + len(clients.terminated),
        failed=failed + len(unserved),
        digest=digest.hex(), record=record,
        values={"sim_speed_x": virtual_s / clock.wall_s,
                "rows_delivered_per_s": items / clock.wall_s},
        counts=counts, problems=problems,
        detail={"items": items, "ttfr_samples": len(ttfr),
                "virtual_s": virtual_s})


def layer_metrics(ctx: Ctx, outcome: Outcome, tracer) -> Dict[str, float]:
    pump_ms = [s * 1000.0 for s in tracer.durations_s("service.pump")]
    self_s = tracer.self_time_by_layer()
    return {
        "harness.deployment_build_s": sum(ctx.build_s),
        "harness.deployment_register_busy_s": (
            tracer.busy_s("harness.deployment.register")
            + tracer.busy_s("harness.deployment.register_passthrough")),
        "cluster.submit_busy_s": tracer.busy_s("cluster.submit"),
        "cluster.flush_busy_s": tracer.busy_s("cluster.flush"),
        "cluster.pump_busy_s": tracer.busy_s("cluster.pump"),
        "cluster.tick_busy_s": tracer.busy_s("cluster.tick"),
        "cluster.self_s": self_s.get("cluster", 0.0),
        "service.submit_busy_s": tracer.busy_s("service.submit"),
        "service.terminate_busy_s": tracer.busy_s("service.terminate"),
        "service.tick_busy_s": tracer.busy_s("service.tick"),
        "service.flush_busy_s": tracer.busy_s("service.flush"),
        "service.pump_busy_s": sum(pump_ms) / 1000.0,
        "service.pump_calls": len(pump_ms),
        "service.pump_ms_p50": percentile(pump_ms, 50),
        "service.pump_ms_max": max(pump_ms),
        "service.self_s": self_s.get("service", 0.0),
        **sim_rates(outcome.counts["sim.frames"],
                    tracer.busy_s("sim.run_until")),
    }


def teardown(ctx: Ctx) -> None:
    pass


def query_inputs(inputs: Inputs) -> list:
    return inputs.texts
