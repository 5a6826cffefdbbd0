"""Extension: cost-weighted vs. priority-only shedding under overload.

Priority-only shedding is blind to *what* it keeps: when the admission
backlog fills, whoever arrives next is dropped, so a cheap RELIABLE
probe dies behind a monster BEST_EFFORT scan that got there first.  The
planner prices every submission in radio-seconds per epoch, and
``OverloadConfig(cost_weighted_shedding=True)`` spends those prices —
evicting the most expensive pending BEST_EFFORT admission instead of
shedding a cheaper or RELIABLE newcomer.

This benchmark replays the same Section 4.3 dynamic workload (Poisson
arrivals, fig4 query model) with the same seeded QoS assignment through
both shedders and compares what survives: the priced configuration must
complete strictly more RELIABLE (high-priority) queries than the
priority-only baseline under the identical overload burst, and the
tickets it does shed must be pricier on average than the ones it keeps.
Pure tier-1 backends keep the measurement about admission — no radio
simulation in the loop.

Emits ``BENCH_planner.json`` next to this file.  Set
``REPRO_PLANNER_SMOKE=1`` for the CI-sized variant.
"""

import json
import os
import random
from pathlib import Path

from repro.core.basestation import BaseStationOptimizer
from repro.core.qos import QoSClass
from repro.harness import print_table
from repro.harness.tier1_sim import default_cost_model
from repro.obs import scoped
from repro.queries import fresh_qids
from repro.service import (
    OptimizerBackend,
    OverloadConfig,
    QueryService,
    TicketStatus,
)
from repro.workloads import dynamic_workload, fig4_query_model
from repro.workloads.spec import EventKind

from _util import run_once

SMOKE = os.environ.get("REPRO_PLANNER_SMOKE", "") == "1"

N_NODES = 64
SEED = 31
RELIABLE_FRACTION = 0.3
#: Submissions pool inside one batch window; with 40 s mean
#: interarrival a 400 s window pools ~10 arrivals, so thresholds this
#: small overflow routinely and the RELIABLE threshold actually binds.
BATCH_WINDOW_MS = 400_000.0
SHED_BEST_EFFORT = 2
SHED_RELIABLE = 5

if SMOKE:
    N_QUERIES, CONCURRENCY = 150, 40
else:
    N_QUERIES, CONCURRENCY = 400, 80

BENCH_PATH = Path(__file__).resolve().parent / "BENCH_planner.json"


def _workload():
    return dynamic_workload(fig4_query_model(), n_nodes=N_NODES,
                            n_queries=N_QUERIES, concurrency=CONCURRENCY,
                            seed=SEED)


def _qos_assignment(n):
    """The same seeded QoS stream for both configurations."""
    rng = random.Random(SEED ^ 0xC057)
    return [QoSClass.RELIABLE if rng.random() < RELIABLE_FRACTION
            else QoSClass.BEST_EFFORT for _ in range(n)]


def _replay(workload, qos_stream, cost_weighted):
    overload = OverloadConfig(
        shed_backlog_best_effort=SHED_BEST_EFFORT,
        shed_backlog_reliable=SHED_RELIABLE,
        cost_weighted_shedding=cost_weighted)
    with scoped():
        optimizer = BaseStationOptimizer(default_cost_model(N_NODES, 5))
        service = QueryService(OptimizerBackend(optimizer),
                               batch_window_ms=BATCH_WINDOW_MS,
                               overload=overload)
        sid = service.open_session("burst", ttl_ms=10 * workload.duration_ms,
                                   now_ms=0.0)
        tickets = {}
        arrivals = 0
        for event in workload.events:
            now = event.time_ms
            service.tick(now_ms=now)
            if event.kind is EventKind.ARRIVE:
                qos = qos_stream[arrivals]
                arrivals += 1
                ticket = service.submit(sid, event.query, now_ms=now,
                                        qos=qos)
                # The submitted ticket: a retired one's tombstone in
                # service.ticket() no longer carries its query.
                tickets[event.query.qid] = (ticket, qos)
            else:
                ticket, _ = tickets[event.query.qid]
                if ticket.status in (TicketStatus.PENDING, TicketStatus.LIVE):
                    service.terminate(sid, ticket.ticket_id, now_ms=now)
        service.tick(now_ms=workload.duration_ms + BATCH_WINDOW_MS)
        service.validate()

        completed = {QoSClass.BEST_EFFORT: 0, QoSClass.RELIABLE: 0}
        shed = {QoSClass.BEST_EFFORT: 0, QoSClass.RELIABLE: 0}
        shed_prices, kept_prices = [], []
        for ticket, qos in tickets.values():
            price = service.explain(ticket.query).price.radio_s_per_epoch
            if ticket.status is TicketStatus.SHED:
                shed[qos] += 1
                if qos is QoSClass.BEST_EFFORT:
                    shed_prices.append(price)
            else:
                completed[qos] += 1
                if qos is QoSClass.BEST_EFFORT:
                    kept_prices.append(price)
        res = service.resilience_stats()
        planner = service.planner_stats()
        total_shed = shed[QoSClass.BEST_EFFORT] + shed[QoSClass.RELIABLE]
        # The books must balance before any comparison means anything.
        assert total_shed == (res.shed_best_effort + res.shed_reliable
                              + planner.quota_rejections)
        assert planner.cost_sheds <= res.shed_best_effort
        return {
            "cost_weighted": cost_weighted,
            "arrivals": arrivals,
            "completed_reliable": completed[QoSClass.RELIABLE],
            "completed_best_effort": completed[QoSClass.BEST_EFFORT],
            "shed_reliable": shed[QoSClass.RELIABLE],
            "shed_best_effort": shed[QoSClass.BEST_EFFORT],
            "cost_evictions": planner.cost_sheds,
            "mean_price_shed_best_effort": (
                sum(shed_prices) / len(shed_prices) if shed_prices else 0.0),
            "mean_price_kept_best_effort": (
                sum(kept_prices) / len(kept_prices) if kept_prices else 0.0),
        }


def _experiment():
    with fresh_qids():
        workload = _workload()
        n_arrivals = sum(1 for e in workload.events
                         if e.kind is EventKind.ARRIVE)
        qos_stream = _qos_assignment(n_arrivals)
        priority_only = _replay(workload, qos_stream, cost_weighted=False)
        priced = _replay(workload, qos_stream, cost_weighted=True)
    return {
        "mode": "smoke" if SMOKE else "full",
        "workload": {
            "n_queries": N_QUERIES,
            "target_concurrency": CONCURRENCY,
            "reliable_fraction": RELIABLE_FRACTION,
            "seed": SEED,
            "shed_backlog_best_effort": SHED_BEST_EFFORT,
            "shed_backlog_reliable": SHED_RELIABLE,
        },
        "priority_only": priority_only,
        "cost_weighted": priced,
    }


def test_ext_planner(benchmark):
    result = run_once(benchmark, _experiment)

    BENCH_PATH.write_text(json.dumps(result, indent=2, sort_keys=True))

    rows = []
    for label in ("priority_only", "cost_weighted"):
        entry = result[label]
        rows.append([
            label,
            entry["completed_reliable"], entry["shed_reliable"],
            entry["completed_best_effort"], entry["shed_best_effort"],
            entry["cost_evictions"],
            f"{entry['mean_price_shed_best_effort']:.3f}",
            f"{entry['mean_price_kept_best_effort']:.3f}",
        ])
    print_table(
        ["shedder", "REL done", "REL shed", "BE done", "BE shed",
         "evictions", "mean price shed", "mean price kept"],
        rows,
        title=f"cost-weighted vs priority-only shedding, fig4 dynamic "
              f"workload (concurrency {CONCURRENCY}) -> {BENCH_PATH.name}",
    )

    baseline, priced = result["priority_only"], result["cost_weighted"]
    # The burst must actually overload both configurations.
    assert baseline["shed_reliable"] + baseline["shed_best_effort"] > 0
    assert priced["cost_evictions"] > 0
    # The headline claim: pricing the backlog preserves strictly more
    # high-priority completions under the identical seeded overload.
    assert priced["completed_reliable"] > baseline["completed_reliable"], (
        f"cost-weighted shedding completed {priced['completed_reliable']} "
        f"RELIABLE queries vs priority-only's "
        f"{baseline['completed_reliable']} — pricing bought nothing")
    # And what it sheds is the expensive tail, not whoever came last.
    assert priced["mean_price_shed_best_effort"] > \
        priced["mean_price_kept_best_effort"]
