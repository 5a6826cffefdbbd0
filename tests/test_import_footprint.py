"""What a process that never serves or forks loads from the standard library.

The gateway's event loop (``asyncio``, which pulls in ``ssl``) and the
sweep's process pool (``multiprocessing``, ``concurrent.futures``) are
imported by the one entry point that uses each: ``GatewayServer.start``
and the pool branch of ``run_sweep``.  A simulation, a library-call
service or a serial sweep therefore never carries them.  Each case runs
in a fresh interpreter, since this test process has loaded them already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC_ROOT = Path(repro.__file__).resolve().parent.parent

HEAVY = ("asyncio", "ssl", "multiprocessing", "concurrent.futures")

PRELUDE = """
import json
import sys

import repro
from repro.core.basestation import BaseStationOptimizer
from repro.harness import (CellSpec, DeploymentConfig, Strategy,
                           WorkloadSpec, run_sweep)
from repro.harness.tier1_sim import default_cost_model
from repro.service import OptimizerBackend, QueryService

QUERY = "SELECT light FROM sensors WHERE light > 300 EPOCH DURATION 4096"


def make_service():
    backend = OptimizerBackend(
        BaseStationOptimizer(default_cost_model(16, 3), alpha=0.6))
    return QueryService(backend, batch_window_ms=0.0)


def report():
    print(json.dumps({name: name in sys.modules for name in %r}))
""" % (HEAVY,)

WITHOUT_SERVING = PRELUDE + """
spec = CellSpec(strategy=Strategy.TTMQO,
                workload=WorkloadSpec.named("A", duration_ms=8_000.0),
                config=DeploymentConfig(side=3, seed=5))
assert spec.run().to_dict()

service = make_service()
session = service.open_session("footprint")
ticket = service.submit(session, QUERY)
assert ticket.status.value == "live", ticket.status
service.terminate(session, ticket.ticket_id)
service.shutdown()

sweep = run_sweep([spec], workers=1)
assert sweep.telemetry.workers == 1
report()
"""

SERVING = PRELUDE + """
from repro.gateway import GatewayClient, GatewayServer

service = make_service()
server = GatewayServer(service).start()
try:
    host, port = server.address
    with GatewayClient(host, port, timeout_s=30.0) as client:
        assert client.ping() is True
finally:
    server.stop()
    service.shutdown()
report()
"""


def _loaded(script: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_ROOT)
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_simulation_service_and_serial_sweep_load_no_loop_or_pool():
    loaded = _loaded(WITHOUT_SERVING)
    assert not any(loaded.values()), loaded


def test_serving_loads_the_event_loop_but_not_multiprocessing():
    # asyncio itself imports concurrent.futures; the pool stays unloaded.
    loaded = _loaded(SERVING)
    assert loaded["asyncio"] and loaded["ssl"], loaded
    assert not loaded["multiprocessing"], loaded
