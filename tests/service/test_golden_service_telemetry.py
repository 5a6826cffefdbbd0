"""Golden service telemetry: the counter views, pinned by the pushed counters.

``tests/data/golden_service_telemetry.json`` holds two fixed scripts:

* ``service`` — one durable :class:`QueryService` over a 3x3 TTMQO
  deployment that serves an EXPLAIN, rejects a submission on quota, evicts
  one on cost, sheds one past its deadline and one RELIABLE one on backlog,
  opens its circuit breaker and admits through the passthrough path,
  drops items on a full subscriber queue, snapshots and pumps.  The
  registry snapshot and ``stats()`` / ``resilience_stats()`` /
  ``planner_stats()`` are taken before a simulated crash; the three
  ``*stats()`` of the service recovered from a torn WAL onto a fresh
  deployment follow.
* ``cluster`` — a two-shard named durable :class:`ClusterDeployment` that
  takes region-local and fanned-out submissions, serves a root dedup hit,
  merges shard results and terminates: the registry snapshot,
  ``ClusterStats`` and each shard's ``planner_stats()``.

The file was generated while the service and the coordinator still pushed
every count into the registry and recovered their own share by
subtracting a construction-time baseline; the tests assert the counter
views that replaced them byte-for-byte, with one exclusion: the four
``recovery.*`` families (five series) the service used to pre-register at
zero.  The simulation's node processors now count them, and a series
appears on its first count — neither lossless script ever counts one.

Regenerate deliberately with:

    PYTHONPATH=src python -m tests.service.test_golden_service_telemetry
"""

import json
import tempfile
from dataclasses import asdict
from pathlib import Path

from repro.cluster import ClusterDeployment, FieldPartition
from repro.core.qos import QoSClass
from repro.harness import Deployment, DeploymentConfig, Strategy
from repro.obs import scoped
from repro.service import (
    DurabilityConfig,
    OverloadConfig,
    QueryService,
    TenantQuotas,
)

GOLDEN_PATH = (Path(__file__).resolve().parent.parent / "data"
               / "golden_service_telemetry.json")
#: Left out of the comparison: pre-registered at zero by the old service.
EXCLUDED = "recovery."

Q_LIGHT = "SELECT light FROM sensors WHERE light > 300 EPOCH DURATION 4096"
Q_LIGHT_VARIANT = "select LIGHT from sensors where 300 < light " \
                  "SAMPLE PERIOD 4096"
Q_CHEAP = "SELECT light FROM sensors WHERE light > 900 EPOCH DURATION 8192"
Q_WIDE = "SELECT light, temp FROM sensors EPOCH DURATION 4096"
Q_MAX = "SELECT MAX(light) FROM sensors EPOCH DURATION 4096"
Q_AVG = "SELECT AVG(temp) FROM sensors EPOCH DURATION 8192"
Q_TEMP = "SELECT temp FROM sensors WHERE temp > 10 EPOCH DURATION 8192"
Q_TEMP_HOT = "SELECT temp FROM sensors WHERE temp > 40 EPOCH DURATION 8192"
Q_NODES = "SELECT nodeid, light FROM sensors EPOCH DURATION 4096"
# With side 4 and two shards, nodes 1..7 are shard 0's band.
Q_BAND0 = ("SELECT temp FROM sensors WHERE nodeid BETWEEN 1 AND 7 "
           "EPOCH DURATION 4096")


class _FlakyDeployment(Deployment):
    """A deployment whose full registration path fails while ``failing``."""

    failing = False

    def register(self, query, qos=QoSClass.BEST_EFFORT):
        if self.failing:
            raise RuntimeError("optimizer melted down")
        super().register(query, qos=qos)


def _metrics(registry):
    return [entry for entry in registry.snapshot()
            if not entry["name"].startswith(EXCLUDED)]


def _service_stats(service):
    return {"stats": asdict(service.stats()),
            "resilience": asdict(service.resilience_stats()),
            "planner": asdict(service.planner_stats())}


def _service_script(directory):
    config = DurabilityConfig(directory=str(directory), snapshot_every_ops=8)
    overload = OverloadConfig(
        shed_backlog_best_effort=1, shed_backlog_reliable=2,
        cost_weighted_shedding=True, submit_deadline_ms=500.0,
        breaker_failure_threshold=2, breaker_cooldown_ms=1e9)
    quotas = TenantQuotas(per_client={"mallory": 1e-6})
    with scoped() as registry:
        deployment = _FlakyDeployment(Strategy.TTMQO,
                                      DeploymentConfig(side=3, seed=5))
        sim = deployment.sim
        service = QueryService(deployment, clock=lambda: sim.now,
                               batch_window_ms=100.0, durability=config,
                               overload=overload, quotas=quotas)
        sim.start()
        alice = service.open_session("alice")
        bob = service.open_session("bob")
        mallory = service.open_session("mallory")
        service.explain(Q_AVG, session_id=alice)
        service.submit(mallory, Q_LIGHT)                      # quota
        light = service.submit(alice, Q_LIGHT)
        service.flush()
        twin = service.submit(bob, Q_LIGHT_VARIANT)           # cache hit
        sim.run_until(50.0)
        service.flush()
        service.submit(alice, Q_WIDE)                         # evicted
        wide_price_beaten = service.submit(bob, Q_CHEAP)
        service.flush()
        aggregate = service.submit(bob, Q_MAX)
        service.flush()
        for text in (Q_TEMP, Q_TEMP_HOT, Q_NODES):            # reliable shed
            service.submit(alice, text, qos=QoSClass.RELIABLE)
        service.flush()
        sim.run_until(1_000.0)
        service.submit(bob, Q_AVG)                            # deadline
        sim.run_until(2_000.0)
        service.tick()
        deployment.failing = True                             # breaker
        service.submit(alice, "SELECT temp FROM sensors EPOCH DURATION 2048")
        service.flush()
        service.submit(bob, "SELECT light FROM sensors EPOCH DURATION 2048")
        service.flush()
        deployment.failing = False
        service.submit(alice, "SELECT temp FROM sensors WHERE temp > 5 "
                              "EPOCH DURATION 2048")          # passthrough
        service.flush()
        service.subscribe(alice, light.ticket_id)
        service.subscribe(bob, twin.ticket_id, maxsize=1)     # drops
        service.subscribe(bob, aggregate.ticket_id)
        for t in range(4_096, 24_000, 4_096):
            sim.run_until(float(t) + 10.0)
            service.pump()
        service.snapshot()
        service.terminate(bob, wide_price_beaten.ticket_id)
        service.terminate(alice, light.ticket_id)
        service.pump()
        primary = {"metrics": _metrics(registry), **_service_stats(service)}
        service.simulate_crash()
    with open(config.wal_path, "a", encoding="utf-8") as wal:
        wal.write('{"op": "submit", "sid"')                   # torn tail
    with scoped():
        deployment = Deployment(Strategy.TTMQO,
                                DeploymentConfig(side=3, seed=5))
        deployment.sim.start()
        recovered = QueryService.recover(deployment, config,
                                         clock=lambda: 24_000.0)
        primary["recovered"] = _service_stats(recovered)
        recovered.shutdown()
    return primary


def _cluster_script(directory):
    with scoped() as registry:
        cluster = ClusterDeployment(FieldPartition(4, 2, quality_seed=3),
                                    seed=3, durability_dir=directory)
        coordinator = cluster.coordinator
        alice = coordinator.open_session("alice")
        bob = coordinator.open_session("bob")
        coordinator.explain(Q_LIGHT, session_id=alice)
        cluster.run_until(500.0)
        fanout = coordinator.submit(alice, Q_LIGHT)
        coordinator.submit(bob, Q_LIGHT_VARIANT)              # root dedup
        band = coordinator.submit(bob, Q_BAND0)               # local
        aggregate = coordinator.submit(alice, Q_MAX)
        for ticket, sid in ((fanout, alice), (band, bob),
                            (aggregate, alice)):
            coordinator.subscribe(sid, ticket.ticket_id)
        now = 500.0
        for _ in range(4):
            now += 4_096.0
            cluster.run_until(now)
            cluster.pump()
        coordinator.terminate(alice, fanout.ticket_id)
        coordinator.terminate(bob, band.ticket_id)
        cluster.run_until(now + 4_096.0)
        cluster.pump(final=True)
        return {"metrics": _metrics(registry),
                "stats": asdict(coordinator.stats()),
                "planner": [asdict(service.planner_stats())
                            for service in coordinator.shard_services()]}


def _current():
    with tempfile.TemporaryDirectory() as tmp:
        return {"service": _service_script(Path(tmp) / "service"),
                "cluster": _cluster_script(Path(tmp) / "cluster")}


def _dump(payload):
    return json.dumps(payload, indent=1, sort_keys=True)


def test_counter_views_match_the_pushed_counter_golden():
    golden = json.loads(GOLDEN_PATH.read_text())["scripts"]
    assert _dump(_current()) == _dump(golden)


def _regenerate():
    payload = {
        "description": "Registry snapshot (less recovery.*) and the "
                       "*stats() views of a durable service script and of "
                       "a two-shard durable cluster script.  First "
                       "generated while the service and the coordinator "
                       "pushed their counts and subtracted baselines.",
        "scripts": _current(),
    }
    GOLDEN_PATH.write_text(_dump(payload) + "\n")
    print(f"regenerated {GOLDEN_PATH}")


if __name__ == "__main__":
    _regenerate()
