"""``serve_sim``: many subscribers over one simulated TTMQO deployment."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List

from repro.harness import Deployment, DeploymentConfig, Strategy
from repro.service import QueryService
from repro.service.load import _QUERY_POOL, _perturb
from repro.service.service import TicketStatus

from .base import Outcome, Stopwatch, proxied, sim_rates, timed_into
from .scripted import CONNECT, HOUSEKEEP, Action, Clients, schedule
from .stats import Digest, item_key, percentile

NAME = "serve_sim"
WHY = ("120 subscribers over 8 perturbed questions on one 64-node "
       "packet-level TTMQO deployment: the read side (pump, ResultMapper, "
       "subscriber queues) does most of the work and admission almost none")

SIDE = 8
N_CLIENTS = 120
DURATION_MS = 64_000.0
QUICK_SIDE = 4
QUICK_N_CLIENTS = 24
QUICK_DURATION_MS = 20_000.0
BATCH_WINDOW_MS = 500.0
#: The driver ticks and pumps once per smallest epoch of the pool.
STEP_MS = 2048.0
DRAIN_MS = 4000.0
EARLY_TERMINATE_FRACTION = 0.15

BACKEND_METHODS = ("register", "register_passthrough", "terminate")


@dataclass
class Inputs:
    seed: int
    side: int
    duration_ms: float
    texts: List[str]
    actions: List[Action]


@dataclass
class Ctx:
    inputs: Inputs
    deployment: Deployment
    service: QueryService
    build_s: List[float]


def make_inputs(seed: int, quick: bool) -> Inputs:
    rng = random.Random(seed ^ 0x5E21)
    n_clients = QUICK_N_CLIENTS if quick else N_CLIENTS
    duration = QUICK_DURATION_MS if quick else DURATION_MS
    texts = [_perturb(_QUERY_POOL[i % len(_QUERY_POOL)], rng)
             for i in range(n_clients)]
    return Inputs(seed, QUICK_SIDE if quick else SIDE, duration, texts,
                  schedule(rng, n_clients, duration, STEP_MS,
                           EARLY_TERMINATE_FRACTION))


def setup(inputs: Inputs, tracer) -> Ctx:
    build_s: List[float] = []
    with tracer.span("harness.deployment_build", "harness"), \
            timed_into(build_s):
        deployment = Deployment(
            Strategy.TTMQO, DeploymentConfig(side=inputs.side,
                                             seed=inputs.seed))
    sim = deployment.sim
    backend = proxied(deployment, tracer, "harness", BACKEND_METHODS,
                      prefix="harness.deployment")
    service = QueryService(backend, batch_window_ms=BATCH_WINDOW_MS,
                           default_ttl_ms=inputs.duration_ms * 10.0,
                           clock=lambda: sim.now)
    return Ctx(inputs, deployment, service, build_s)


def run(ctx: Ctx, tracer) -> Outcome:
    inputs, service, sim = ctx.inputs, ctx.service, ctx.deployment.sim
    clients = Clients(len(inputs.texts))
    failed = 0
    pump_s: List[float] = []

    def housekeep() -> None:
        with tracer.span("service.tick", "service"):
            service.tick()
        with tracer.span("service.pump", "service"), timed_into(pump_s):
            service.pump()
        with tracer.span("bench.consume", "bench"):
            clients.consume(sim.now)

    with Stopwatch(tracer) as clock:
        for when, _, kind, index in inputs.actions:
            with tracer.span("sim.run_until", "sim"):
                sim.run_until(when)
            if kind == HOUSEKEEP:
                housekeep()
            elif kind == CONNECT:
                tracer.req = index
                with tracer.span("service.open_session", "service"):
                    sid = service.open_session(f"client-{index:03d}")
                with tracer.span("service.submit", "service"):
                    ticket = service.submit(sid, inputs.texts[index])
                with tracer.span("service.subscribe", "service"):
                    clients.subscriber[index] = service.subscribe(
                        sid, ticket.ticket_id)
                tracer.req = None
                clients.session[index] = sid
                clients.ticket[index] = ticket.ticket_id
                clients.submitted_ms[index] = when
                clients.connected.append(index)
                if ticket.status not in (TicketStatus.PENDING,
                                         TicketStatus.LIVE):
                    failed += 1
            else:
                with tracer.span("service.terminate", "service", req=index):
                    service.terminate(clients.session[index],
                                      clients.ticket[index])
                clients.terminated.add(index)
        with tracer.span("sim.run_until", "sim"):
            sim.run_until(inputs.duration_ms + DRAIN_MS)
        with tracer.span("service.flush", "service"):
            service.flush()
        housekeep()

    problems: List[str] = []
    try:
        service.validate()
    except AssertionError as exc:
        problems.append(f"validate(): {exc}")
    unserved = clients.unserved()
    if unserved:
        problems.append(f"{len(unserved)} subscribed clients got no data")
    digest = Digest()
    for index, got in enumerate(clients.received):
        digest.add(index, [item_key(item) for item in got])
    items = clients.items()
    ttfr = clients.ttfr_ms()
    stats = service.stats()
    trace = sim.trace
    virtual_s = (inputs.duration_ms + DRAIN_MS) / 1000.0
    counts = {
        "ttfr_virtual_ms_p50": percentile(ttfr, 50),
        "ttfr_virtual_ms_p90": percentile(ttfr, 90),
        "service.pump_calls": len(pump_s),
        "service.registrations": stats.registrations,
        "service.cache_hit_rate": stats.cache_hit_rate,
        "service.absorbed_admission_rate": stats.absorbed_admission_rate,
        "service.shed_total": service.resilience_stats().shed_total,
        "core.basestation.network_ops": stats.network_operations,
        "sim.frames": trace.total_transmissions(),
        "sim.collisions": trace.collisions,
        "sim.retransmissions": trace.retransmissions,
        "sim.acquisitions": ctx.deployment.total_acquisitions(),
    }
    record = {"items": items, "digest": digest.hex(),
              "clients_served": sum(1 for got in clients.received if got),
              "frames": counts["sim.frames"],
              "registrations": stats.registrations,
              "cache_hits": stats.cache_hits}
    pump_ms = [s * 1000.0 for s in pump_s]
    return Outcome(
        wall_s=clock.wall_s, cpu_s=clock.cpu_s,
        attempted=len(inputs.texts) + len(clients.terminated),
        failed=failed + len(unserved),
        digest=digest.hex(), record=record,
        values={"sim_speed_x": virtual_s / clock.wall_s,
                "rows_delivered_per_s": items / clock.wall_s},
        counts=counts, problems=problems,
        detail={"items": items, "ttfr_samples": len(ttfr),
                "virtual_s": virtual_s,
                "pump_ms_p50": percentile(pump_ms, 50),
                "pump_ms_max": max(pump_ms),
                "pump_busy_s": sum(pump_s)})


def layer_metrics(ctx: Ctx, outcome: Outcome, tracer) -> Dict[str, float]:
    return {
        "harness.deployment_build_s": sum(ctx.build_s),
        "harness.deployment_register_busy_s": (
            tracer.busy_s("harness.deployment.register")
            + tracer.busy_s("harness.deployment.register_passthrough")),
        "service.submit_busy_s": tracer.busy_s("service.submit"),
        "service.terminate_busy_s": tracer.busy_s("service.terminate"),
        "service.tick_busy_s": tracer.busy_s("service.tick"),
        "service.flush_busy_s": tracer.busy_s("service.flush"),
        "service.pump_busy_s": outcome.detail["pump_busy_s"],
        "service.pump_ms_p50": outcome.detail["pump_ms_p50"],
        "service.pump_ms_max": outcome.detail["pump_ms_max"],
        "service.self_s": tracer.self_time_by_layer().get("service", 0.0),
        **sim_rates(outcome.counts["sim.frames"],
                    tracer.busy_s("sim.run_until")),
    }


def teardown(ctx: Ctx) -> None:
    pass


def query_inputs(inputs: Inputs) -> list:
    return inputs.texts
