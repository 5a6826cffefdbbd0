"""Extension: scalability with network size, hotspots, and lifetime.

The paper evaluates 16 and 64 nodes; this benchmark extends the sweep and
adds two adoption-relevant metrics the paper's transmission-time numbers
imply but never show:

* the **hotspot ratio** — how much more a level-1 relay transmits than the
  average node (the energy-hole that kills tree networks first);
* the **estimated network lifetime** — days until the busiest node drains
  a battery, extrapolated from the measured duty cycle.

TTMQO's shared frames shrink exactly the relayed traffic that concentrates
near the sink, so its lifetime advantage grows with network size.
"""

from repro.harness import (
    DeploymentConfig,
    Strategy,
    busiest_nodes,
    hotspot_ratio,
    lifetime_estimate_days,
    print_table,
    run_workload_live,
)
from repro.queries import parse_query
from repro.sim import EnergyModel
from repro.workloads import Workload

#: Low-power-listening energy model (B-MAC-style duty-cycled idle radio);
#: with an always-on 24 mW listen the lifetime is idle-dominated and every
#: strategy looks the same, which hides exactly the effect measured here.
LPL = EnergyModel(tx_mw=60.0, listen_mw=6.0, sleep_mw=0.03)

from _util import run_once

SIDES = (4, 6, 8)
DURATION_MS = 70_000.0
SEED = 9


def _queries():
    return [
        parse_query("SELECT light FROM sensors WHERE light > 200 "
                    "EPOCH DURATION 4096"),
        parse_query("SELECT light FROM sensors WHERE light > 300 "
                    "EPOCH DURATION 8192"),
        parse_query("SELECT light, temp FROM sensors WHERE light > 250 "
                    "EPOCH DURATION 8192"),
        parse_query("SELECT MAX(light) FROM sensors EPOCH DURATION 8192"),
    ]


def _sweep():
    rows = []
    for side in SIDES:
        workload = Workload.static(_queries(), duration_ms=DURATION_MS)
        config = DeploymentConfig(side=side, seed=SEED)
        entry = {"nodes": side * side}
        for strategy in (Strategy.BASELINE, Strategy.TTMQO):
            result = run_workload_live(strategy, workload, config)
            sim = result.deployment.sim
            (_, bottleneck_tx), = busiest_nodes(sim.trace, sim.topology, 1)
            entry[strategy] = {
                "avg_tx": result.average_transmission_time,
                "hotspot": hotspot_ratio(sim.trace, sim.topology),
                "bottleneck_tx": bottleneck_tx,
                "lifetime": lifetime_estimate_days(sim.trace, sim.topology,
                                                   model=LPL),
            }
        rows.append(entry)
    return rows


def test_ext_scalability(benchmark):
    rows = run_once(benchmark, _sweep)
    print_table(
        ["nodes", "baseline avg tx", "TTMQO avg tx",
         "baseline hotspot", "TTMQO hotspot",
         "baseline peak tx (ms)", "TTMQO peak tx (ms)",
         "baseline life (d)", "TTMQO life (d)"],
        [[
            e["nodes"],
            f"{e[Strategy.BASELINE]['avg_tx']:.5f}",
            f"{e[Strategy.TTMQO]['avg_tx']:.5f}",
            f"{e[Strategy.BASELINE]['hotspot']:.2f}x",
            f"{e[Strategy.TTMQO]['hotspot']:.2f}x",
            f"{e[Strategy.BASELINE]['bottleneck_tx']:.0f}",
            f"{e[Strategy.TTMQO]['bottleneck_tx']:.0f}",
            f"{e[Strategy.BASELINE]['lifetime']:.0f}",
            f"{e[Strategy.TTMQO]['lifetime']:.0f}",
        ] for e in rows],
        title="Extension — scalability, sink hotspots and lifetime (LPL "
              "energy model)",
    )
    for entry in rows:
        base = entry[Strategy.BASELINE]
        ttmqo = entry[Strategy.TTMQO]
        assert ttmqo["avg_tx"] < base["avg_tx"]
        # the bottleneck relay — the node that dies first — transmits less
        assert ttmqo["bottleneck_tx"] < base["bottleneck_tx"]
        assert ttmqo["lifetime"] >= base["lifetime"] * 0.98
        # the funnel exists under both strategies
        assert base["hotspot"] > 1.0
    # load grows with size under both strategies (the funnel deepens)
    for strategy in (Strategy.BASELINE, Strategy.TTMQO):
        series = [e[strategy]["avg_tx"] for e in rows]
        assert all(b > a for a, b in zip(series, series[1:]))
