#!/usr/bin/env python3
"""One benchmark for the whole stack.

    python3 bench/run.py                       every workload, both passes
    python3 bench/run.py --workload W          one workload, both passes
    python3 bench/run.py --quick               small sizes, a smoke test
    python3 bench/run.py --agree               run twice, compare (A/A)
    python3 bench/run.py --update-golden       rewrite the golden records

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

The last form measures in this process and prints one JSON object as its
last line: with ``--trace 0`` the end-to-end metrics ``BENCHMARK.json``
declares, with ``--trace 1`` the per-layer ones.  Every other form runs
that one in a fresh child process per workload and pass, prints every
metric by name with its unit, and writes ``bench/out/result.json``.
See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _import_program() -> None:
    """Put the program's source on the path, or stop: nothing to measure."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        sys.exit(f"bench/run.py: {src / 'repro'} is not here; the benchmark "
                 f"measures the program in this checkout and has none")
    sys.path.insert(0, str(src))


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, help="workload seed")
    parser.add_argument("--seconds", type=float,
                        help="how long one run measures")
    parser.add_argument("--trace", choices=["0", "1", "both"], default="both",
                        help="0: end-to-end metrics, tracing off; "
                             "1: per-layer metrics from a traced run")
    parser.add_argument("--traced", action="store_const", const="both",
                        dest="trace", help="same as --trace both")
    parser.add_argument("--quick", action="store_true",
                        help="small sizes: a smoke test, not a measurement")
    parser.add_argument("--agree", action="store_true",
                        help="run the suite twice and compare every "
                             "end-to-end metric with its bound")
    parser.add_argument("--update-golden", action="store_true",
                        help="store this run's outputs as the golden records")
    parser.add_argument("--detail", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# Measuring, in this process
# ----------------------------------------------------------------------
def measure(args) -> int:
    from benchlib import catalog, runner

    if args.workload not in catalog.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; "
                 f"choices: {', '.join(catalog.WORKLOADS)}")
    if args.trace == "1":
        result = runner.run_traced(args.workload, args.seed, args.quick)
        declared = catalog.CONTRACT_PER_LAYER
    else:
        # The records being replaced are not what this run is held to.
        result = runner.run_untraced(args.workload, args.seed, args.seconds,
                                     args.quick,
                                     golden=not args.update_golden)
        declared = catalog.CONTRACT_E2E
    if args.update_golden:
        path = runner.write_golden(args.workload, args.seed, args.quick,
                                   result.first)
        print(f"wrote {path.relative_to(ROOT)}")
    for problem in result.problems:
        print(f"INCORRECT {args.workload}: {problem}", file=sys.stderr)
    if args.detail:
        Path(args.detail).write_text(json.dumps({
            "workload": result.workload, "seed": result.seed,
            "traced": result.traced, "correct": result.correct,
            "attempted": result.attempted, "failed": result.failed,
            "problems": result.problems, "metrics": result.metrics,
            "detail": result.detail}, indent=1, sort_keys=True),
            encoding="utf-8")
    # A layer the workload never enters did no work there: 0.
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": result.metrics.get(name, 0),
                           "unit": catalog.BY_NAME[name].unit}
                    for name in declared}}))
    return 0 if result.correct else 1


# ----------------------------------------------------------------------
# The suite: one child per workload and pass
# ----------------------------------------------------------------------
def _child(workload: str, trace: str, args, tag: str = "") -> dict:
    from benchlib.base import OUT_DIR

    OUT_DIR.mkdir(exist_ok=True)
    detail = OUT_DIR / f"part-{workload}-{trace}{tag}.json"
    detail.unlink(missing_ok=True)
    command = [sys.executable, str(BENCH_DIR / "run.py"),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", trace,
               "--detail", str(detail)]
    if args.quick:
        command.append("--quick")
    if args.update_golden and trace == "0":
        command.append("--update-golden")
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    sys.stderr.write(done.stderr)
    if not detail.exists():
        sys.stdout.write(done.stdout)
        sys.exit(f"{workload} --trace {trace} exited {done.returncode} "
                 f"without a result")
    part = json.loads(detail.read_text(encoding="utf-8"))
    part["exit_code"] = done.returncode
    detail.unlink()
    return part


def _print_table(title: str, rows) -> None:
    print(f"\n{title}")
    for name, value, unit, note in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<42} {shown:>14} {unit:<6} {note}")


def _report(workload: str, parts: dict) -> None:
    from benchlib import catalog

    e2e, layer = parts.get("0"), parts.get("1")
    if e2e is not None:
        rows = [(m.name, e2e["metrics"][m.name], m.unit,
                 f"{m.better} is better, bound {m.bound:g}")
                for m in catalog.E2E
                if workload in m.workloads and m.name in e2e["metrics"]]
        _print_table(f"{workload}: end-to-end (seed {e2e['seed']}, best of "
                     f"{e2e['detail']['reps']} repetitions, tracing off, "
                     f"{e2e['attempted']} operations, {e2e['failed']} failed)",
                     rows)
        for key in ("submit_samples", "ttfr_samples", "p99_supported"):
            if key in e2e["detail"]:
                print(f"  ({key}: {e2e['detail'][key]})")
        for row in e2e["detail"].get("rates", []):
            print("  rate {rate}/s: sent {sent}, answered {answered}, failed "
                  "{failed}, p50 {p50_ms:.3f} ms, p99 {p99_ms:.3f} ms, "
                  "generator lag p99 {lag_ms_p99:.3f} ms, backlog mid/end "
                  "{backlog_mid}/{backlog_end}, ok {ok}".format(**row))
    if layer is not None:
        counts = e2e["metrics"] if e2e is not None else {}
        rows = [(m.name, layer["metrics"].get(m.name, counts.get(m.name)),
                 m.unit, "")
                for m in catalog.LAYERS
                if m.name in layer["metrics"] or m.name in counts]
        _print_table(f"{workload}: per-layer (one traced repetition)", rows)
        detail = layer["detail"]
        print(f"  largest span self time: {detail['largest_self_layer']} "
              f"({detail['span_self_s'][detail['largest_self_layer']]:.3f} s "
              f"of {detail['traced_wall_s']:.3f} s traced)")
        if "largest_profile_layer" in detail:
            top = detail["largest_profile_layer"]
            print(f"  largest profiled self time: {top} "
                  f"({detail['profile_self_s'][top]:.3f} s)")


def suite(args, tag: str = "", report: bool = True) -> dict:
    """Run the chosen workloads and passes; returns what they measured."""
    from benchlib import catalog, stats

    names = [args.workload] if args.workload else list(catalog.WORKLOADS)
    passes = ["0", "1"] if args.trace == "both" else [args.trace]
    host = stats.host_block()
    host["loadavg_before"] = stats.loadavg()
    workloads = {}
    for name in names:
        parts = {trace: _child(name, trace, args, tag) for trace in passes}
        workloads[name] = parts
        if report:
            _report(name, parts)
    host["loadavg_after"] = stats.loadavg()
    loads = host["loadavg_before"][:1] + host["loadavg_after"][:1]
    # Anything else running on the box competes for its cores; and
    # repetitions of the same work that disagree say the box is unsteady
    # whatever its load average reads.
    uneven = [name for name, parts in workloads.items() if "0" in parts
              and max(parts["0"]["detail"]["wall_s_all"])
              > 1.25 * min(parts["0"]["detail"]["wall_s_all"])]
    host["uneven_repetitions"] = uneven
    host["noisy"] = bool(uneven) or any(load > host["usable_cores"]
                                        for load in loads)
    if host["noisy"]:
        print(f"\nNOISY: load average {loads} on {host['usable_cores']} "
              f"usable cores; repetitions more than 25% apart on: "
              f"{', '.join(uneven) or 'none'}")
    return {"host": host, "seed": args.seed, "seconds": args.seconds,
            "quick": args.quick, "workloads": workloads}


def _all_correct(result: dict) -> bool:
    return all(part["correct"] and part["exit_code"] == 0
               for parts in result["workloads"].values()
               for part in parts.values())


def run_suite(args) -> int:
    from benchlib.base import OUT_DIR

    result = suite(args)
    (OUT_DIR / "result.json").write_text(
        json.dumps(result, indent=1, sort_keys=True), encoding="utf-8")
    print(f"\nwrote {(OUT_DIR / 'result.json').relative_to(ROOT)}")
    if not _all_correct(result):
        print("FAILED: at least one correctness check did not hold")
        return 1
    return 0


def agree(args) -> int:
    """A/A: the same tree measured twice must agree within its own bounds."""
    from benchlib import catalog
    from benchlib.base import OUT_DIR

    args.trace = "0"
    first = suite(args, tag="-a", report=False)
    second = suite(args, tag="-b", report=False)
    rows, excess = [], 0
    for name in first["workloads"]:
        one = first["workloads"][name]["0"]["metrics"]
        two = second["workloads"][name]["0"]["metrics"]
        for metric in catalog.E2E:
            if name not in metric.workloads or metric.name not in one:
                continue
            a, b = one[metric.name], two[metric.name]
            spread = abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0
            over = spread > metric.bound
            excess += over
            rows.append({"workload": name, "metric": metric.name,
                         "first": a, "second": b, "spread": spread,
                         "bound": metric.bound, "over": over})
            print(f"{name:<16} {metric.name:<22} {a:>14.6g} {b:>14.6g} "
                  f"{metric.unit:<6} spread {spread:7.4f}  bound "
                  f"{metric.bound:<5g}{'  OVER' if over else ''}")
    (OUT_DIR / "spread.json").write_text(json.dumps(
        {"hosts": [first["host"], second["host"]], "rows": rows},
        indent=1, sort_keys=True), encoding="utf-8")
    print(f"\nwrote {(OUT_DIR / 'spread.json').relative_to(ROOT)}")
    correct = _all_correct(first) and _all_correct(second)
    if excess or not correct:
        print(f"FAILED: {excess} metrics differ by more than their bound"
              + ("" if correct else "; a correctness check did not hold"))
        return 1
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    _import_program()
    sys.path.insert(0, str(BENCH_DIR))
    from benchlib import catalog

    if args.seed is None:
        args.seed = catalog.DEFAULT_SEED
    if args.seconds is None:
        args.seconds = float(catalog.RUN_SECONDS)
    if args.agree:
        return agree(args)
    if args.workload and args.trace in ("0", "1"):
        return measure(args)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
