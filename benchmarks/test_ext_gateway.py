"""Extension: socket gateway throughput and kill/promote durability.

Two measurements over **real TCP** (no in-process shortcuts):

* **socket load** — `socket_load` drives threaded clients through
  `GatewayClient` against a `GatewayServer`; the recorded quantity is
  end-to-end submit latency (connect → reply frame), p50/p90/p99.
* **kill + promote** — the replicated primary runs in a child process
  (`python -m tests.chaos.driver gateway`), a parent-side client submits with
  semi-sync replication until a SIGKILL lands, then the warm standby is
  promoted and the acceptance bar from the issue is asserted: **zero
  acknowledged admissions lost**.

Both record into ``BENCH_gateway.json``.  ``REPRO_GATEWAY_SMOKE=1``
shrinks the load for CI (the ``gateway-smoke`` job), which still writes
and uploads the benchmark file.
"""

import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.core.basestation import BaseStationOptimizer
from repro.gateway import (
    GatewayClient,
    GatewayError,
    GatewayServer,
    ProtocolError,
)
from repro.harness import print_table
from repro.harness.tier1_sim import default_cost_model
from repro.queries.ast import fresh_qids
from repro.service import OptimizerBackend, QueryService, StandbyServer
from repro.service.load import _QUERY_POOL, _perturb

from _util import run_once

BENCH_PATH = Path(__file__).resolve().parent / "BENCH_gateway.json"
REPO_ROOT = Path(__file__).resolve().parents[1]


def _smoke() -> bool:
    return os.environ.get("REPRO_GATEWAY_SMOKE") == "1"


def _record(section: str, payload: dict) -> None:
    """Merge one section into BENCH_gateway.json (tests run separately)."""
    record = {}
    if BENCH_PATH.exists():
        record = json.loads(BENCH_PATH.read_text(encoding="utf-8"))
    record[section] = payload
    record["grid"] = "smoke" if _smoke() else "full"
    BENCH_PATH.write_text(json.dumps(record, indent=2, sort_keys=True)
                          + "\n", encoding="utf-8")


def make_backend(side: int = 4):
    return OptimizerBackend(
        BaseStationOptimizer(default_cost_model(side * side, 3), alpha=0.6))


def _percentile(sorted_values, q):
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1,
                             max(0, int(round(q * (len(sorted_values) - 1)))))]


def socket_load(host, port, *, n_clients, submits_per_client, n_unique,
                seed):
    """Drive ``n_clients`` concurrent TCP clients against one gateway.

    Each client thread opens its own connection and session, submits a
    run of textually perturbed duplicate queries drawn from the first
    ``n_unique`` questions of the pool (so canonicalization and the dedup
    cache stay on the hot path), terminates about a quarter of its
    admitted tickets, and records one wall-clock latency per answered
    submit.  Returns the run's counts and latency percentiles (ms).
    """
    totals = {"clients": n_clients, "submits_per_client": submits_per_client,
              "requests": 0, "admitted": 0, "cache_hits": 0, "shed": 0,
              "errors": 0, "terminated": 0}
    latencies = []
    lock = threading.Lock()
    failures = []

    def client_thread(index):
        rng = random.Random(seed * 7919 + index)
        local = dict.fromkeys(("requests", "admitted", "cache_hits", "shed",
                               "errors", "terminated"), 0)
        timings = []
        try:
            with GatewayClient(host, port, timeout_s=60.0) as client:
                session = client.open(f"load-{index:03d}")
                open_tickets = []
                for step in range(submits_per_client):
                    text = _perturb(
                        _QUERY_POOL[(index + step) % n_unique], rng)
                    started = time.perf_counter()
                    try:
                        reply = client.submit(session, text)
                    except GatewayError:
                        local["errors"] += 1
                        continue
                    finally:
                        local["requests"] += 1
                    timings.append((time.perf_counter() - started) * 1000.0)
                    if reply.get("status") == "shed":
                        local["shed"] += 1
                        continue
                    if reply.get("status") in ("live", "pending"):
                        local["admitted"] += 1
                        if reply.get("cache_hit"):
                            local["cache_hits"] += 1
                        open_tickets.append(int(reply["ticket"]))
                        if rng.random() < 0.25:
                            try:
                                client.terminate(session,
                                                 open_tickets.pop(0))
                                local["terminated"] += 1
                            except GatewayError:
                                local["errors"] += 1
                try:
                    client.close_session(session)
                except GatewayError:
                    local["errors"] += 1
        except Exception as exc:  # surfaced to the caller below
            with lock:
                failures.append(exc)
        with lock:
            for key, value in local.items():
                totals[key] += value
            latencies.extend(timings)

    started = time.perf_counter()
    threads = [threading.Thread(target=client_thread, args=(index,),
                                name=f"gateway-load-{index}", daemon=True)
               for index in range(n_clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
        assert not thread.is_alive(), f"{thread.name} still running"
    totals["duration_s"] = time.perf_counter() - started
    if failures:
        raise failures[0]
    totals["submits_per_s"] = totals["requests"] / totals["duration_s"]
    latencies.sort()
    totals["latency_ms"] = {
        "p50": _percentile(latencies, 0.50),
        "p90": _percentile(latencies, 0.90),
        "p99": _percentile(latencies, 0.99),
        "max": latencies[-1] if latencies else 0.0,
    }
    return totals


def test_ext_gateway_socket_load(benchmark):
    smoke = _smoke()
    n_clients = 4 if smoke else 12
    submits = 10 if smoke else 40
    with fresh_qids():
        service = QueryService(make_backend(), batch_window_ms=0.0)
        gateway = GatewayServer(service)
        gateway.start()
        host, port = gateway.address
        try:
            report = run_once(
                benchmark, socket_load, host, port,
                n_clients=n_clients, submits_per_client=submits,
                n_unique=6, seed=7)
        finally:
            gateway.stop()
            service.shutdown()

    latency = report["latency_ms"]
    print_table(
        ["clients", "submits", "admitted", "hits", "shed", "subs/s",
         "p50 ms", "p90 ms", "p99 ms"],
        [[report["clients"], report["requests"], report["admitted"],
          report["cache_hits"], report["shed"],
          f"{report['submits_per_s']:.0f}", f"{latency['p50']:.2f}",
          f"{latency['p90']:.2f}", f"{latency['p99']:.2f}"]],
        title="Extension — gateway socket load over real TCP "
              f"({'smoke' if smoke else 'full'})",
    )

    assert report["errors"] == 0
    assert report["requests"] == n_clients * submits
    assert report["admitted"] + report["shed"] == report["requests"]
    assert report["cache_hits"] <= report["admitted"]
    # The dedup regime survives the socket hop: few uniques, many hits.
    assert report["cache_hits"] > 0
    assert latency["p99"] > 0.0
    _record("socket_load", report)


def _spawn_primary(state_dir, standby_port):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + \
        env.get("PYTHONPATH", "")
    child = subprocess.Popen(
        [sys.executable, "-m", "tests.chaos.driver", "gateway",
         str(state_dir), str(standby_port)],
        cwd=REPO_ROOT, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True)
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        line = child.stdout.readline()
        if line.startswith("PORT "):
            return child, int(line.split()[1])
        if child.poll() is not None:
            break
    child.kill()
    raise RuntimeError("primary child failed to start")


def test_ext_gateway_kill_promote(benchmark, tmp_path):
    smoke = _smoke()
    n_before_kill = 8 if smoke else 24
    n_after = 8 if smoke else 16

    def run_chaos():
        standby = StandbyServer(tmp_path / "standby")
        child, port = _spawn_primary(tmp_path / "primary",
                                     standby.address[1])
        acked = []
        try:
            with GatewayClient("127.0.0.1", port, timeout_s=60.0) as client:
                session = client.open("bench-parent")
                for step in range(n_before_kill + n_after):
                    if step == n_before_kill:
                        child.send_signal(signal.SIGKILL)
                    try:
                        reply = client.submit(
                            session, _QUERY_POOL[step % len(_QUERY_POOL)])
                    except (ProtocolError, ConnectionError, OSError):
                        break
                    assert reply.get("replicated") is True
                    acked.append((reply["ticket"], reply["status"]))
        finally:
            child.kill()
            child.wait(timeout=30)
        with fresh_qids():
            promoted = standby.promote(make_backend())
            try:
                live = {t.ticket_id for t in promoted.live_tickets()}
                lost = [tid for tid, status in acked
                        if status == "live" and tid not in live]
                recovery = promoted.last_recovery
            finally:
                promoted.shutdown()
        return {"acked": len(acked), "acked_live": sum(
                    1 for _, s in acked if s == "live"),
                "lost_acknowledged": len(lost),
                "replayed_ops": recovery.replayed_ops,
                "replay_errors": recovery.replay_errors,
                "stale_ops": recovery.stale_ops}

    result = run_once(benchmark, run_chaos)

    print_table(
        ["acked", "acked live", "lost", "replayed", "stale",
         "replay errs"],
        [[result["acked"], result["acked_live"],
          result["lost_acknowledged"], result["replayed_ops"],
          result["stale_ops"], result["replay_errors"]]],
        title="Extension — SIGKILL primary mid-load, promote warm standby "
              f"({'smoke' if smoke else 'full'})",
    )

    # The acceptance bar: zero acknowledged admissions lost.
    assert result["acked"] >= n_before_kill
    assert result["lost_acknowledged"] == 0
    assert result["replay_errors"] == 0
    _record("kill_promote", result)
