"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run``     — execute ad-hoc queries under a chosen strategy and print
  the network metrics, the synthetic query set, and sample answers;
* ``compare`` — run one of the Figure 3 workloads (A/B/C) under all four
  strategies and print the comparison table;
* ``fig``     — regenerate a paper figure's table (fig3, fig4a, fig4b,
  fig4c, fig5);
* ``sweep``   — fan the Figure 3 (workload x size x strategy) grid across
  worker processes with deterministic result caching (``--profile`` runs
  the grid serially under cProfile and prints the hottest functions);
* ``explain`` — price queries in radio-seconds and joules before
  admission, on one base station or across a sharded cluster;
* ``obs``     — run one experiment cell in an isolated metrics registry
  and export every metric (text, JSON, or Prometheus exposition format;
  the names are the telemetry contract of ``docs/observability.md``);
* ``gateway`` — serve the query service over TCP, optionally
  replicating its WAL to a warm standby;
* ``topo``    — render a deployment's topology as ASCII.

Examples::

    python -m repro run --strategy ttmqo --side 4 --seed 7 \\
        "SELECT light FROM sensors WHERE light > 300 EPOCH DURATION 4096" \\
        "SELECT MAX(light) FROM sensors EPOCH DURATION 8192"
    python -m repro compare --workload C --side 8
    python -m repro fig fig4a
    python -m repro sweep --workers 4 --sides 4 8
    python -m repro obs --workload A --strategy ttmqo --format json
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .core.basestation import ResultMapper
from .harness import (
    DeploymentConfig,
    Strategy,
    print_table,
    run_workload_live,
)
from .harness.experiments import (
    STRATEGY_ORDER,
    fig3_grid,
    fig3_results,
    fig3_rows,
    fig4a_series,
    fig4b_series,
    fig4c_table,
    fig5_table,
)
from .queries import ParseError, parse_query
from .workloads import Workload

_STRATEGY_NAMES = {
    "baseline": Strategy.BASELINE,
    "bs": Strategy.BS_ONLY,
    "innet": Strategy.INNET_ONLY,
    "ttmqo": Strategy.TTMQO,
}


def _strategy(name: str) -> Strategy:
    """argparse type: resolve a strategy name, listing choices on error."""
    try:
        return _STRATEGY_NAMES[name]
    except KeyError:
        raise argparse.ArgumentTypeError(
            f"unknown strategy {name!r}; valid choices: "
            f"{', '.join(sorted(_STRATEGY_NAMES))}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Two-Tier Multiple Query Optimization (ICDCS 2007) "
                    "reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run ad-hoc queries on the simulator")
    run_p.add_argument("queries", nargs="+",
                       help="TinyDB-dialect query strings")
    run_p.add_argument("--strategy", type=_strategy, default=Strategy.TTMQO,
                       metavar="{" + ",".join(sorted(_STRATEGY_NAMES)) + "}")
    run_p.add_argument("--side", type=int, default=4,
                       help="grid side (nodes = side^2)")
    run_p.add_argument("--duration", type=float, default=60.0,
                       help="simulated seconds")
    run_p.add_argument("--seed", type=int, default=0,
                       help="deployment/world seed for reproducible runs")
    run_p.add_argument("--world", choices=["uniform", "correlated"],
                       default="uniform")

    cmp_p = sub.add_parser("compare",
                           help="run a Figure 3 workload under all strategies")
    cmp_p.add_argument("--workload", choices=["A", "B", "C"], default="A")
    cmp_p.add_argument("--side", type=int, default=4)
    cmp_p.add_argument("--duration", type=float, default=90.0)
    cmp_p.add_argument("--seed", type=int, default=11)

    fig_p = sub.add_parser("fig", help="regenerate a paper figure's table")
    fig_p.add_argument("name",
                       choices=["fig3", "fig4a", "fig4b", "fig4c", "fig5"])
    fig_p.add_argument("--side", type=int, default=4,
                       help="grid side for fig3/fig5")

    sweep_p = sub.add_parser(
        "sweep",
        help="fan the Figure 3 grid across worker processes with caching")
    sweep_p.add_argument("--workloads", nargs="+", choices=["A", "B", "C"],
                         default=["A", "B", "C"],
                         help="static workloads to sweep")
    sweep_p.add_argument("--sides", nargs="+", type=int, default=[4, 8],
                         help="grid sides (nodes = side^2)")
    sweep_p.add_argument("--duration", type=float, default=90.0,
                         help="simulated seconds per cell")
    sweep_p.add_argument("--seed", type=int, default=11)
    sweep_p.add_argument("--workers", type=int, default=None,
                         help="worker processes (default: auto-size to "
                              "min(cells, usable cores); 0 = serial "
                              "in-process)")
    sweep_p.add_argument("--cache-dir", default=".repro-sweep-cache",
                         help="on-disk result cache directory")
    sweep_p.add_argument("--no-cache", action="store_true",
                         help="always re-simulate, never read/write cache")
    sweep_p.add_argument("--quiet", action="store_true",
                         help="suppress per-cell progress lines")
    sweep_p.add_argument("--profile", action="store_true",
                         help="run the grid under cProfile and print the "
                              "hottest functions (forces serial, uncached "
                              "execution so the simulations themselves are "
                              "what gets profiled)")

    explain_p = sub.add_parser(
        "explain",
        help="price queries in radio-seconds and joules before admission")
    explain_p.add_argument("queries", nargs="+",
                           help="TinyDB-dialect query strings, priced in "
                                "order (each is admitted after its EXPLAIN "
                                "so later ones see the sharing deltas)")
    explain_p.add_argument("--side", type=int, default=4,
                           help="grid side (nodes = side^2)")
    explain_p.add_argument("--depth", type=int, default=3,
                           help="routing-tree depth of the cost profile")
    explain_p.add_argument("--shards", type=int, default=0,
                           help="price across a row-banded cluster of this "
                                "many shards (0 = one base station)")
    explain_p.add_argument("--no-admit", action="store_true",
                           help="only price; don't admit between EXPLAINs")
    explain_p.add_argument("--format", choices=["text", "json"],
                           default="text", help="output format")

    obs_p = sub.add_parser(
        "obs",
        help="run one experiment cell and export its metrics")
    obs_p.add_argument("--workload", choices=["A", "B", "C"], default="A")
    obs_p.add_argument("--strategy", type=_strategy, default=Strategy.TTMQO,
                       metavar="{" + ",".join(sorted(_STRATEGY_NAMES)) + "}")
    obs_p.add_argument("--side", type=int, default=4,
                       help="grid side (nodes = side^2)")
    obs_p.add_argument("--duration", type=float, default=90.0,
                       help="simulated seconds")
    obs_p.add_argument("--seed", type=int, default=11)
    obs_p.add_argument("--format", choices=["text", "json", "prom"],
                       default="text", help="export format")
    obs_p.add_argument("--spans", type=int, default=0, metavar="N",
                       help="also export the last N spans (json/text)")

    gw_p = sub.add_parser(
        "gateway",
        help="serve the query service over TCP (length-prefixed JSON), "
             "optionally replicating its WAL to a warm standby")
    gw_p.add_argument("--role", choices=["primary", "standby"],
                      default="primary",
                      help="primary serves clients; standby follows a "
                           "primary's WAL stream into --state-dir")
    gw_p.add_argument("--host", default="127.0.0.1")
    gw_p.add_argument("--port", type=int, default=0,
                      help="listen port (0 = ephemeral, printed at start)")
    gw_p.add_argument("--state-dir", default=None,
                      help="durability directory (required for standby; "
                           "enables the WAL on a primary)")
    gw_p.add_argument("--replicate-to", default=None, metavar="HOST:PORT",
                      help="ship WAL frames and snapshots to this standby")
    gw_p.add_argument("--sync", action="store_true",
                      help="semi-synchronous submits: withhold each submit "
                           "reply until the standby acked its WAL record")
    gw_p.add_argument("--side", type=int, default=4,
                      help="grid side of the admission cost profile")
    topo_p = sub.add_parser("topo", help="render a deployment as ASCII")
    topo_p.add_argument("--kind", choices=["grid", "random"], default="grid")
    topo_p.add_argument("--side", type=int, default=8,
                        help="grid side (grid kind)")
    topo_p.add_argument("--nodes", type=int, default=36,
                        help="node count (random kind)")
    topo_p.add_argument("--area", type=float, default=150.0,
                        help="field size in feet (random kind)")
    topo_p.add_argument("--seed", type=int, default=0)

    return parser


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------
def _cmd_run(args: argparse.Namespace) -> int:
    try:
        queries = [parse_query(text) for text in args.queries]
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    strategy = args.strategy
    workload = Workload.static(queries, duration_ms=args.duration * 1000.0)
    config = DeploymentConfig(side=args.side, seed=args.seed, world=args.world)
    live = run_workload_live(strategy, workload, config)
    result = live.result
    deployment = live.deployment

    print(f"strategy            : {strategy.value}")
    print(f"network             : {args.side * args.side} nodes "
          f"({args.world} world, seed {args.seed})")
    print(f"avg transmission    : {result.average_transmission_time:.5f}")
    print(f"frames              : {result.total_frames} total, "
          f"{result.result_frames} results, {result.retransmissions} retx")
    print(f"sensor acquisitions : {result.acquisitions}")

    if deployment.optimizer is not None:
        print(f"\n{len(queries)} user queries -> "
              f"{deployment.optimizer.synthetic_count()} synthetic:")
        for synthetic in deployment.optimizer.synthetic_queries():
            print(f"  [{synthetic.qid}] {synthetic}")
        mapper = ResultMapper(deployment.results)

    for user in queries:
        network_query = deployment.network_query_for(user.qid)
        print(f"\n== {user} ==")
        if user.is_acquisition:
            if deployment.optimizer is not None:
                rows = mapper.acquisition_rows(user, network_query)
                pairs = [(r.epoch_time, r.origin, r.values) for r in rows]
            else:
                pairs = [(r.epoch_time, r.origin, r.values)
                         for r in deployment.results.rows(user.qid)]
            print(f"{len(pairs)} rows"
                  + (f"; last: t={pairs[-1][0]:.0f} node {pairs[-1][1]} "
                     f"{pairs[-1][2]}" if pairs else ""))
        else:
            if deployment.optimizer is not None:
                answers = [(a.epoch_time, a.values)
                           for a in mapper.aggregation_results(user,
                                                               network_query)]
            else:
                answers = [
                    (t, {agg: deployment.results.aggregate(user.qid, t, agg)
                         for agg in user.aggregates})
                    for t in deployment.results.aggregate_epochs(user.qid)
                ]
            for t, values in answers[-3:]:
                rendered = ", ".join(
                    f"{agg}={v:.2f}" if v is not None else f"{agg}=(none)"
                    for agg, v in values.items())
                print(f"  t={t:.0f}  {rendered}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    results = fig3_results(args.workload, args.side,
                           duration_ms=args.duration * 1000.0, seed=args.seed)
    print_table(
        ["strategy", "avg tx time", "frames", "result frames", "savings"],
        fig3_rows(results),
        title=f"WORKLOAD_{args.workload}, {args.side * args.side} nodes, "
              f"{args.duration:.0f}s simulated",
    )
    return 0


def _cmd_fig(args: argparse.Namespace) -> int:
    if args.name == "fig3":
        for workload_name in ("A", "B", "C"):
            results = fig3_results(workload_name, args.side)
            print_table(
                ["strategy", "avg tx time", "frames", "result frames",
                 "savings"],
                fig3_rows(results),
                title=f"Figure 3 — WORKLOAD_{workload_name}, "
                      f"{args.side * args.side} nodes",
            )
    elif args.name == "fig4a":
        series = fig4a_series()
        print_table(
            ["concurrent queries", "benefit ratio", "avg synthetic queries"],
            [[c, f"{r:.3f}", f"{s:.2f}"] for c, r, s in series],
            title="Figure 4(a)")
    elif args.name == "fig4b":
        series = fig4b_series()
        print_table(
            ["alpha", "benefit ratio", "network operations"],
            [[a, f"{r:.4f}", f"{o:.0f}"] for a, r, o in series],
            title="Figure 4(b)")
    elif args.name == "fig4c":
        concurrencies = (8, 16, 24, 32, 40, 48)
        alphas = (0.2, 0.6, 1.0)
        table = fig4c_table(concurrencies, alphas)
        print_table(
            ["concurrent queries"] + [f"alpha={a}" for a in alphas],
            [[c] + [f"{table[(c, a)]:.2f}" for a in alphas]
             for c in concurrencies],
            title="Figure 4(c)")
    elif args.name == "fig5":
        selectivities = (0.2, 0.4, 0.6, 0.8, 1.0)
        compositions = ((0.0, "100% acquisition"), (0.5, "50/50 mix"),
                        (1.0, "100% aggregation"))
        table = fig5_table(selectivities, tuple(f for f, _ in compositions),
                           side=args.side)
        print_table(
            ["composition"] + [f"sel={s}" for s in selectivities],
            [[label] + [f"{table[(f, s)]:.1f}%" for s in selectivities]
             for f, label in compositions],
            title="Figure 5")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .harness import run_sweep

    cells = fig3_grid(tuple(args.workloads), tuple(args.sides),
                      duration_ms=args.duration * 1000.0, seed=args.seed)
    if args.profile:
        # Worker processes would each need their own profiler and a cache
        # hit profiles nothing, so profiling implies serial + no cache.
        args.workers = 0
        args.no_cache = True
    cache_dir = None if args.no_cache else args.cache_dir

    def _progress(cell, telemetry):
        if args.quiet:
            return
        done = telemetry.cache_hits + telemetry.cache_misses
        source = "cache" if cell.cached else f"{cell.duration_s:6.2f}s"
        print(f"[{done:3}/{telemetry.total_cells}] "
              f"{cell.spec.workload.description:<16} "
              f"{cell.spec.strategy.value:<18} {source}")

    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
        report = run_sweep(cells, workers=args.workers, cache_dir=cache_dir,
                           progress=_progress)
        profiler.disable()
    else:
        profiler = None
        report = run_sweep(cells, workers=args.workers, cache_dir=cache_dir,
                           progress=_progress)

    # One Figure 3 table per (workload, side) group, in grid order.
    per_group = len(STRATEGY_ORDER)
    for start in range(0, len(report.cells), per_group):
        group = report.cells[start:start + per_group]
        results = {cell.spec.strategy: cell.result for cell in group}
        print_table(
            ["strategy", "avg tx time", "frames", "result frames", "savings"],
            fig3_rows(results),
            title=group[0].spec.workload.description,
        )

    t = report.telemetry
    print(f"\nsweep               : {t.total_cells} cells, "
          f"{t.cache_hits} cache hits, {t.cache_misses} simulated")
    print(f"wall clock          : {t.wall_s:.2f}s over {t.workers} workers "
          f"({100.0 * t.utilization:.0f}% busy)")
    if t.cell_seconds:
        print(f"cell duration       : p50 {t.cell_p50_s:.2f}s, "
              f"p95 {t.cell_p95_s:.2f}s")
    if cache_dir is not None:
        print(f"cache               : {cache_dir} "
              f"(delete to force re-simulation)")
    if profiler is not None:
        import pstats

        print("\nhottest functions (by total time, excluding callees):")
        stats = pstats.Stats(profiler, stream=sys.stdout)
        stats.sort_stats("tottime").print_stats(20)
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    import json

    from .core.basestation import BaseStationOptimizer
    from .harness.tier1_sim import default_cost_model
    from .obs import scoped
    from .service import OptimizerBackend, QueryService

    n_nodes = args.side * args.side
    with scoped():
        if args.shards > 0:
            from .cluster import ClusterCoordinator, FieldPartition

            partition = FieldPartition(args.side, args.shards)
            backends = [
                OptimizerBackend(BaseStationOptimizer(default_cost_model(
                    len(region.sensor_ids), args.depth)))
                for region in partition.regions]
            front = ClusterCoordinator(backends, partition=partition)
        else:
            front = QueryService(OptimizerBackend(BaseStationOptimizer(
                default_cost_model(n_nodes, args.depth))))
        sid = front.open_session("cli", now_ms=0.0)
        reports = []
        for index, text in enumerate(args.queries):
            try:
                report = front.explain(text, session_id=sid,
                                       now_ms=float(index))
            except ParseError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            reports.append(report)
            if not args.no_admit:
                front.submit(sid, text, now_ms=float(index) + 0.5)
        if args.format == "json":
            print(json.dumps([r.to_dict() for r in reports], indent=1,
                             sort_keys=True))
            return 0
        for report in reports:
            print(f"EXPLAIN {report.text}")
            if args.shards > 0:
                print(f"  scope {report.scope} targets "
                      f"{list(report.targets)} pruned {list(report.pruned)}"
                      f"{' (root dedup hit)' if report.root_dedup_hit else ''}")
                for shard in report.shards:
                    r = shard.report
                    print(f"  {shard.name}: {r.action} "
                          f"{r.price.radio_s_per_epoch:.4f} radio-s/epoch "
                          f"{r.price.joules_per_epoch * 1000:.3f} mJ/epoch")
                print(f"  total {report.total_radio_s_per_epoch:.4f} "
                      f"radio-s/epoch ({report.cheapest_shard} cheapest, "
                      f"{report.priciest_shard} priciest)")
            else:
                print(f"  plan {report.action}"
                      f"{' (cache hit)' if report.cache_hit else ''}: "
                      f"synthetic {report.synthetic_before} -> "
                      f"{report.synthetic_after}, aborts {report.aborts}")
                print(f"  price {report.price.radio_s_per_epoch:.4f} "
                      f"radio-s/epoch "
                      f"{report.price.joules_per_epoch * 1000:.3f} mJ/epoch "
                      f"(sel {report.price.selectivity:.3f}, "
                      f"{report.price.transmissions_per_epoch:.1f} tx/epoch)")
                print(f"  sharing: standalone "
                      f"{report.standalone_radio_s_per_epoch:.4f} vs "
                      f"marginal {report.marginal_radio_s_per_epoch:.4f} "
                      f"radio-s/epoch (saves "
                      f"{report.sharing_saving_radio_s_per_epoch:.4f})")
                verdict = report.would_shed or "admit"
                print(f"  admission: {verdict} (quota spent "
                      f"{report.quota_spent_radio_s:.4f}"
                      + (f" of {report.quota_budget:.4f}"
                         if report.quota_budget is not None else "")
                      + ")")
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    from .harness.experiments import fig3_cells
    from .obs import render_json, render_prometheus, render_text, scoped
    from .queries.ast import fresh_qids

    spec = fig3_cells(args.workload, args.side,
                      duration_ms=args.duration * 1000.0, seed=args.seed,
                      strategies=(args.strategy,))[0]
    with scoped() as registry:
        # Same calls as CellSpec.run(), kept live so the span buffer on
        # the simulation's obs bundle is still reachable afterwards.
        with fresh_qids():
            workload = spec.workload.build()
            live = run_workload_live(spec.strategy, workload,
                                     spec.resolved_config(), spec.drain_ms)
        snapshot = registry.snapshot()
    spans = live.deployment.sim.obs.tracer.snapshot(limit=args.spans) \
        if args.spans > 0 else None
    if args.format == "json":
        print(render_json(snapshot, spans=spans))
    elif args.format == "prom":
        print(render_prometheus(snapshot), end="")
    else:
        print(f"# {spec.workload.description} {spec.strategy.value} "
              f"seed {spec.resolved_seed()}")
        print(render_text(snapshot))
        for span in spans or ():
            labels = ",".join(f"{k}={v}"
                              for k, v in sorted(span["labels"].items()))
            print(f"span {span['name']}{{{labels}}} "
                  f"{span['start_ms']:.3f}..{span['end_ms']:.3f} "
                  f"{span['status']}")
    return 0


def _cmd_topo(args: argparse.Namespace) -> int:
    from .harness.reporting import render_topology
    from .sim import Topology

    if args.kind == "grid":
        topology = Topology.grid(args.side, quality_seed=args.seed)
    else:
        topology = Topology.random(args.nodes, args.area, seed=args.seed)
    print(render_topology(topology))
    return 0


def _sleep_until_interrupted() -> None:
    import time

    try:
        while True:
            time.sleep(1.0)
    except KeyboardInterrupt:
        pass


def _cmd_gateway(args: argparse.Namespace) -> int:
    from .gateway import GatewayServer
    from .harness.tier1_sim import default_cost_model
    from .core.basestation import BaseStationOptimizer
    from .service import (DurabilityConfig, OptimizerBackend,
                          PrimaryReplicator, QueryService, ReplicationConfig,
                          StandbyServer)

    if args.role == "standby":
        if args.state_dir is None:
            print("error: --role standby requires --state-dir",
                  file=sys.stderr)
            return 2
        standby = StandbyServer(args.state_dir, host=args.host,
                                port=args.port)
        host, port = standby.address
        print(f"standby following on {host}:{port} -> {args.state_dir}")
        print("promote with: QueryService.recover(backend, state_dir) "
              "after stopping this process")
        try:
            _sleep_until_interrupted()
        finally:
            standby.stop()
        print(f"standby stopped at applied_seq={standby.applied_seq}")
        return 0

    backend = OptimizerBackend(
        BaseStationOptimizer(default_cost_model(args.side * args.side, 3),
                             alpha=0.6))
    durability = (DurabilityConfig(directory=args.state_dir,
                                   snapshot_every_ops=64)
                  if args.state_dir is not None else None)
    service = QueryService(backend, batch_window_ms=0.0,
                           durability=durability)
    replicator = None
    if args.replicate_to is not None:
        if durability is None:
            print("error: --replicate-to requires --state-dir (the WAL "
                  "is what gets replicated)", file=sys.stderr)
            return 2
        host, _, port = args.replicate_to.rpartition(":")
        replicator = PrimaryReplicator(ReplicationConfig(
            host=host or "127.0.0.1", port=int(port), sync=args.sync))
        service.attach_replicator(replicator)
    gateway = GatewayServer(service, host=args.host, port=args.port,
                            replicator=replicator).start()
    host, port = gateway.address
    mode = ("semi-sync replication" if replicator is not None and args.sync
            else "async replication" if replicator is not None
            else "standalone")
    print(f"gateway listening on {host}:{port} ({mode})")

    try:
        _sleep_until_interrupted()
    finally:
        gateway.stop()
        if replicator is not None:
            replicator.stop()
        if durability is not None:
            service.shutdown()
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "fig":
        return _cmd_fig(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "explain":
        return _cmd_explain(args)
    if args.command == "obs":
        return _cmd_obs(args)
    if args.command == "gateway":
        return _cmd_gateway(args)
    if args.command == "topo":
        return _cmd_topo(args)
    return 2  # pragma: no cover - argparse enforces the choices
