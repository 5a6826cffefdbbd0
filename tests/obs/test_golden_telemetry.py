"""Golden telemetry: the radio ledger's export, pinned by its predecessor.

``tests/data/golden_sim_telemetry.json`` holds, for three 4x4 TTMQO cells
of WORKLOAD_B (20 s, seed 11) — lossless, 10% Bernoulli link loss, and two
injected fail-stop outages — every ``sim.*``, ``run.*`` and
``span.radio.tx.*`` series of the registry snapshot plus
``RunResult.to_dict()``.  It was generated while the simulator still kept
two ledgers (``sim.trace.TraceCollector`` for ``RunResult`` and
``obs.accounting.RadioAccountant`` for the registry), so it is the
deleted mirror's verdict on the single ledger that replaced it, not the
ledger's verdict on itself.

The comparison is byte-for-byte with one documented exception:
``sim.mac.retransmissions_total`` used to count a retry when the MAC
scheduled it and now counts it when it goes on the air, which is what
``run.retransmissions`` always counted — the two are asserted equal and
the counter's old value is left out of the comparison.

Regenerate deliberately with:

    PYTHONPATH=src python -m tests.obs.test_golden_telemetry
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.harness import runner
from repro.harness.experiments import fig3_cells
from repro.harness.failures import FailureInjector
from repro.harness.strategies import Deployment, Strategy
from repro.obs import scoped
from repro.sim.radio import RadioParams

GOLDEN_PATH = (Path(__file__).resolve().parent.parent / "data"
               / "golden_sim_telemetry.json")
FAMILIES = ("sim.", "run.", "span.radio.tx.")
RETX = "sim.mac.retransmissions_total"
#: (node, start ms, duration ms): two adjacent relays, down while result
#: traffic flows through them — their children exhaust retries (drops)
#: and node 5 goes down holding a frame, which it resumes on recovery.
OUTAGES = ((5, 4_500.0, 6_000.0), (6, 8_000.0, 6_000.0))


class _OutageDeployment(Deployment):
    def __init__(self, strategy, config):
        super().__init__(strategy, config)
        injector = FailureInjector(self.sim, seed=5)
        for node, start_ms, duration_ms in OUTAGES:
            injector.fail_at(node, start_ms, duration_ms)


def _run_cell(name):
    spec = fig3_cells("B", 4, duration_ms=20_000.0,
                      strategies=(Strategy.TTMQO,))[0]
    if name == "lossy":
        spec = replace(spec, config=replace(
            spec.config, radio_params=RadioParams(loss_rate=0.10)))
    deployment_cls = _OutageDeployment if name == "outages" else Deployment
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runner, "Deployment", deployment_cls)
        with scoped() as registry:
            result = spec.run()
            metrics = [entry for entry in registry.snapshot()
                       if entry["name"].startswith(FAMILIES)]
    return {"name": name, "result": result.to_dict(), "metrics": metrics}


def _current():
    return [_run_cell(name) for name in ("lossless", "lossy", "outages")]


def _value(cell, metric):
    """The metric's value summed over its label sets."""
    return sum(entry["value"] for entry in cell["metrics"]
               if entry["name"] == metric)


def _without_retx_value(cells):
    return [{**cell, "metrics": [
        {k: v for k, v in entry.items()
         if not (entry["name"] == RETX and k == "value")}
        for entry in cell["metrics"]]} for cell in cells]


def _dump(cells):
    return json.dumps(cells, indent=1, sort_keys=True)


@pytest.fixture(scope="module")
def current():
    return _current()


def test_telemetry_matches_the_two_ledger_golden(current):
    golden = json.loads(GOLDEN_PATH.read_text())["cells"]
    assert _dump(_without_retx_value(current)) == \
        _dump(_without_retx_value(golden))


def test_retransmission_counter_equals_run_retransmissions(current):
    for cell in current:
        retx = cell["result"]["retransmissions"]
        assert retx > 0, cell["name"]
        assert _value(cell, RETX) == retx, cell["name"]
        assert _value(cell, "run.retransmissions") == retx, cell["name"]


def test_ledger_drops_equal_the_mac_drop_counter_over_reasons(current):
    for cell in current:
        assert _value(cell, "sim.mac.dropped_frames_total") == \
            cell["result"]["dropped_frames"], cell["name"]
    assert any(cell["result"]["dropped_frames"] for cell in current)


def _regenerate():
    payload = {
        "description": "Registry snapshot (sim.*, run.*, span.radio.tx.*) "
                       "and RunResult of three 4x4 TTMQO WORKLOAD_B cells "
                       "(20 s, seed 11): lossless, 10% Bernoulli loss, two "
                       "fail-stop outages.  First generated with the "
                       "two-ledger simulator (TraceCollector + "
                       "RadioAccountant) after the MAC power-up fix.",
        "cells": _current(),
    }
    GOLDEN_PATH.write_text(_dump(payload) + "\n")
    print(f"regenerated {GOLDEN_PATH}")


if __name__ == "__main__":
    _regenerate()
