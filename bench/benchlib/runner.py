"""Runs one workload in this process and reduces it to named metrics."""

from __future__ import annotations

import cProfile
import gc
import json
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from repro.obs import scoped
from repro.queries import fresh_qids
from repro.queries.canonical import canonicalize
from repro.queries.parser import parse_query

from .base import GOLDEN_DIR, NO_TRACE, OUT_DIR, REGION, Outcome
from .catalog import BY_NAME, WORKLOADS
from .stats import peak_rss_mb, percentile
from .trace import Tracer, profile_self_s

#: A repetition is sized to about this long; a run makes seconds / this.
NOMINAL_REP_S = 3.0
MIN_REPS = 3
#: Workloads the traced run also profiles (the interior of ``run_until``
#: cannot be interposed from outside).
PROFILED = ("sim_fig3", "serve_sim", "cluster_sim")
#: One pass of the open-loop ladder fills a whole run; its set-up is
#: repeated on its own until there are as many samples of it as the
#: other workloads' five repetitions give.
SINGLE_PASS = ("gateway_durable",)
SETUP_SAMPLES = 5


@dataclass
class Rep:
    setup_s: float
    outcome: Outcome
    layers: Dict[str, float]


def repetition(workload, seed: int, quick: bool, tracer=NO_TRACE,
               setup_only: bool = False,
               profiler: Optional[cProfile.Profile] = None) -> Rep:
    """Inputs, set-up, timed region, teardown, in a clean qid/metrics scope."""
    gc.collect()
    with fresh_qids(), scoped():
        t0 = time.perf_counter()
        inputs = workload.make_inputs(seed, quick)
        ctx = workload.setup(inputs, tracer)
        setup_s = time.perf_counter() - t0
        try:
            if setup_only:
                return Rep(setup_s, None, {})
            gc.collect()
            if profiler is not None:
                profiler.enable()
            try:
                outcome = workload.run(ctx, tracer)
            finally:
                if profiler is not None:
                    profiler.disable()
            layers = {}
            if tracer.enabled:
                layers = workload.layer_metrics(ctx, outcome, tracer)
                layers.update(_queries_layer(workload.query_inputs(inputs)))
        finally:
            workload.teardown(ctx)
    return Rep(setup_s, outcome, layers)


def _queries_layer(submitted) -> Dict[str, float]:
    """Time parse and canonicalize on what the program was given to admit.

    The service calls both by name, so neither can be proxied; the driver
    calls them itself on the workload's own inputs (texts, or queries that
    arrive already parsed), after the timed region.
    """
    if not submitted:
        return {}
    parse_us, canonicalize_us = [], []
    for item in submitted:
        query = item
        if isinstance(item, str):
            t0 = time.perf_counter_ns()
            query = parse_query(item)
            parse_us.append((time.perf_counter_ns() - t0) / 1e3)
        t0 = time.perf_counter_ns()
        canonicalize(query, qid=0)
        canonicalize_us.append((time.perf_counter_ns() - t0) / 1e3)
    return {"queries.parse_us_p50": percentile(parse_us, 50),
            "queries.canonicalize_us_p50": percentile(canonicalize_us, 50),
            "queries.calls": len(submitted)}


# ----------------------------------------------------------------------
# Golden records
# ----------------------------------------------------------------------
def golden_path(name: str, seed: int, quick: bool) -> Path:
    return GOLDEN_DIR / f"{name}-seed{seed}{'-quick' if quick else ''}.json"


def check_golden(name: str, seed: int, quick: bool,
                 outcome: Outcome) -> List[str]:
    """Differences between this run's record and the stored one."""
    path = golden_path(name, seed, quick)
    if not path.exists():
        return []
    golden = json.loads(path.read_text(encoding="utf-8"))["record"]
    # Compare as JSON: what was stored went through it too.
    record = json.loads(json.dumps(outcome.record))
    return [f"golden {path.name}: {key}: expected {golden.get(key)!r}, "
            f"got {record.get(key)!r}"
            for key in sorted(set(golden) | set(record))
            if golden.get(key) != record.get(key)]


def write_golden(name: str, seed: int, quick: bool, outcome: Outcome) -> Path:
    path = golden_path(name, seed, quick)
    GOLDEN_DIR.mkdir(exist_ok=True)
    path.write_text(json.dumps(
        {"workload": name, "seed": seed, "quick": quick,
         "record": outcome.record},
        indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
@dataclass
class RunResult:
    """What one ``--workload W --trace T`` run found."""

    workload: str
    seed: int
    traced: bool
    metrics: Dict[str, float]
    attempted: int
    failed: int
    problems: List[str]
    detail: Dict[str, object]
    first: Optional[Outcome] = None

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def _n_reps(name: str, seconds: float, quick: bool) -> int:
    if quick or name in SINGLE_PASS:
        return 1
    return max(MIN_REPS, round(seconds / NOMINAL_REP_S))


def _tally(name: str, seed: int, quick: bool, outcomes: List[Outcome],
           golden: bool = True):
    """``(attempted, failed, problems)`` over a run's repetitions.

    A repetition of a seed must reproduce the others' outputs exactly, and
    the golden record where there is one; each field that differs from the
    golden record counts as one failed operation.
    """
    problems = [p for outcome in outcomes for p in outcome.problems]
    digests = {outcome.digest for outcome in outcomes}
    if len(digests) > 1:
        problems.append(f"{len(digests)} different output digests across "
                        f"{len(outcomes)} repetitions of seed {seed}")
    differing = check_golden(name, seed, quick, outcomes[0]) if golden else []
    attempted = sum(o.attempted for o in outcomes)
    failed = min(attempted, sum(o.failed for o in outcomes) + len(differing))
    return attempted, failed, problems + differing


def _best(name: str, samples: List[float]) -> float:
    """The best of the run's repetitions, in the metric's own direction.

    Interference on a shared box only ever adds time, so the fastest
    repetition is the steadiest estimate of what the code costs
    (docs/performance.md prescribes the same); the README gives the spreads
    measured for the minimum and for the median.
    """
    return min(samples) if BY_NAME[name].better == "lower" else max(samples)


def run_untraced(name: str, seed: int, seconds: float, quick: bool,
                 golden: bool = True) -> RunResult:
    """Repetitions with tracing off: set-up as a median, the rest as the
    best repetition."""
    workload = WORKLOADS[name]
    reps = [repetition(workload, seed, quick)
            for _ in range(_n_reps(name, seconds, quick))]
    setups = [rep.setup_s for rep in reps]
    while not quick and len(setups) < SETUP_SAMPLES:
        setups.append(repetition(workload, seed, quick,
                                 setup_only=True).setup_s)
    outcomes = [rep.outcome for rep in reps]
    attempted, failed, problems = _tally(name, seed, quick, outcomes, golden)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": _best("wall_s", [o.wall_s for o in outcomes]),
        "cpu_s": _best("cpu_s", [o.cpu_s for o in outcomes]),
        "peak_rss_mb": peak_rss_mb(),
        "failed_share": failed / attempted,
    }
    for key in outcomes[0].values:
        metrics[key] = _best(key, [o.values[key] for o in outcomes])
    metrics.update(outcomes[0].counts)
    detail = dict(outcomes[0].detail)
    detail.update(reps=len(reps), setup_samples=len(setups),
                  wall_s_all=[o.wall_s for o in outcomes],
                  wall_s_median=statistics.median(o.wall_s for o in outcomes),
                  digest=outcomes[0].digest)
    return RunResult(name, seed, False, metrics, attempted, failed, problems,
                     detail, outcomes[0])


def run_traced(name: str, seed: int, quick: bool) -> RunResult:
    """One repetition untraced, one traced, and for the simulator workloads
    one under cProfile: the per-layer metrics and the tracing overhead."""
    workload = WORKLOADS[name]
    plain = repetition(workload, seed, quick)
    tracer = Tracer()
    traced = repetition(workload, seed, quick, tracer)
    outcomes = [plain.outcome, traced.outcome]

    metrics: Dict[str, float] = {}
    metrics["cpu_s"] = plain.outcome.cpu_s     # these: with tracing off
    metrics.update(plain.outcome.values)
    metrics.update(plain.outcome.counts)
    metrics.update(traced.layers)
    # The open loop's wall is its schedule; its cost shows in CPU time.
    basis = "cpu_s" if name in SINGLE_PASS else "wall_s"
    metrics["trace_overhead_x"] = (getattr(traced.outcome, basis)
                                   / getattr(plain.outcome, basis))
    if name not in SINGLE_PASS:     # its spans are on the server's thread
        metrics["trace_coverage"] = tracer.coverage(REGION)
    self_s = tracer.self_time_by_layer()
    detail = {"span_self_s": self_s, "spans": len(tracer.spans),
              # "bench" is the driver itself, not a layer of the program.
              "largest_self_layer": max((k for k in self_s if k != "bench"),
                                        key=self_s.get),
              "traced_wall_s": traced.outcome.wall_s,
              "untraced_wall_s": plain.outcome.wall_s}

    if name in PROFILED:
        profiler = cProfile.Profile()
        outcomes.append(repetition(workload, seed, quick,
                                   profiler=profiler).outcome)
        totals = profile_self_s(profiler)
        for layer, seconds in totals.items():
            # service.self_s and cluster.self_s are the span-based figures.
            key = (f"{layer}.prof_self_s"
                   if layer in ("service", "cluster", "harness", "other")
                   else f"{layer}.self_s")
            if key in BY_NAME:
                metrics[key] = seconds
        detail["profile_self_s"] = totals
        detail["largest_profile_layer"] = max(
            (k for k in totals if k != "other"), key=totals.get)

    attempted, failed, problems = _tally(name, seed, quick, outcomes)
    metrics["failed_share"] = failed / attempted
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"trace-{name}.jsonl")
    return RunResult(name, seed, True, metrics, attempted, failed, problems,
                     detail, plain.outcome)
