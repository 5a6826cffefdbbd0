"""Extension: socket gateway throughput and kill/promote durability.

Two measurements over **real TCP** (no in-process shortcuts):

* **socket load** — `run_socket_load` drives threaded clients through
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
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.core.basestation import BaseStationOptimizer
from repro.gateway import (
    GatewayClient,
    GatewayServer,
    ProtocolError,
    run_socket_load,
)
from repro.harness import print_table
from repro.harness.tier1_sim import default_cost_model
from repro.queries.ast import fresh_qids
from repro.service import OptimizerBackend, QueryService, StandbyServer
from repro.service.load import _QUERY_POOL

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
                benchmark, run_socket_load, host, port,
                n_clients=n_clients, submits_per_client=submits,
                n_unique=6, seed=7)
        finally:
            gateway.stop()
            service.shutdown()

    print_table(
        ["clients", "submits", "admitted", "hits", "shed", "subs/s",
         "p50 ms", "p90 ms", "p99 ms"],
        [[report.clients, report.requests, report.admitted,
          report.cache_hits, report.shed, f"{report.submits_per_s:.0f}",
          f"{report.percentile_ms(0.50):.2f}",
          f"{report.percentile_ms(0.90):.2f}",
          f"{report.percentile_ms(0.99):.2f}"]],
        title="Extension — gateway socket load over real TCP "
              f"({'smoke' if smoke else 'full'})",
    )

    assert report.errors == 0
    assert report.requests == n_clients * submits
    assert report.admitted + report.shed == report.requests
    assert report.cache_hits <= report.admitted
    # The dedup regime survives the socket hop: few uniques, many hits.
    assert report.cache_hits > 0
    assert report.percentile_ms(0.99) > 0.0
    _record("socket_load", report.to_dict())


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
