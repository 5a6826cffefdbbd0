"""Differential: declared interest is conservative.

``NodeApp.overhears`` lets the channel skip ``on_message`` calls that would
have returned without effect; it may never skip one that would have changed
state.  Every cell here is built twice — once as shipped, once with the
processors' ``overhears`` patched to the promiscuous default (every in-range
node is handed every frame, as before interest existed) — and the two runs
must agree on ``RunResult``, on the whole registry snapshot and on every
node's routing evidence (``UpperNeighborView._info``).

The five conditions cover the paths an overheard frame can matter on: a
lossless run, each loss model (their RNG draws follow reception, not
delivery, and must not move), two injected outages under an eviction
threshold low enough that tier-2 evicts the dead parents within the run and
re-admits them on hearing them again, and Poisson arrivals and terminations
(the static workloads never flood an ABORT).
"""

from dataclasses import asdict, replace

import pytest

from repro.core.innetwork import processor as innetwork
from repro.core.innetwork.processor import TTMQOParams
from repro.harness import runner
from repro.harness.cells import WorkloadSpec
from repro.harness.experiments import STRATEGY_ORDER, fig3_cells
from repro.harness.failures import FailureInjector
from repro.harness.strategies import Deployment
from repro.obs import scoped
from repro.queries.ast import fresh_qids
from repro.sim.radio import GilbertElliottParams, RadioParams
from repro.tinydb import node_processor as tinydb

CONDITIONS = ("lossless", "bernoulli", "gilbert-elliott", "outages", "churn")
RADIO = {"bernoulli": RadioParams(loss_rate=0.10),
         "gilbert-elliott": RadioParams(burst=GilbertElliottParams())}

#: Evict a parent after two give-ups, one second apart: the default
#: (four, 4 s apart and doubling) needs an outage longer than these runs.
QUICK_EVICTION = TTMQOParams(evict_after_failures=2,
                             unreachable_backoff_ms=1024.0)


def _outages(side):
    """(node, start ms, duration ms): two first-hop relays, down for most
    of the run while result traffic flows through them."""
    return ((side + 1, 4_500.0, 14_000.0), (side + 2, 8_000.0, 12_000.0))


def _run(strategy, condition, workload="B", side=4, seed=11,
         duration_ms=24_000.0, promiscuous=False):
    """One cell -> (RunResult dict, registry snapshot, views, plan size)."""
    spec = fig3_cells(workload, side, duration_ms=duration_ms, seed=seed,
                      strategies=(strategy,))[0]
    if condition in RADIO:
        spec = replace(spec, config=replace(spec.config,
                                            radio_params=RADIO[condition]))
    elif condition == "outages":
        spec = replace(spec, config=replace(spec.config,
                                            ttmqo_params=QUICK_EVICTION))
    elif condition == "churn":
        spec = replace(spec, workload=WorkloadSpec(
            kind="dynamic", n_nodes=side * side, n_queries=6,
            concurrency=3.0, seed=seed))

    class _Deployment(Deployment):
        def __init__(self, strategy, config):
            super().__init__(strategy, config)
            if condition == "outages":
                injector = FailureInjector(self.sim, seed=5)
                for outage in _outages(side):
                    injector.fail_at(*outage)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runner, "Deployment", _Deployment)
        if promiscuous:
            for app in (tinydb.TinyDBNodeApp, innetwork.TTMQONodeApp):
                patch.setattr(app, "overhears", lambda self, kind, src: True)
        with scoped() as registry, fresh_qids():
            live = runner.run_workload_live(
                strategy, spec.workload.build(), spec.resolved_config())
            snapshot = registry.snapshot()
    sim = live.deployment.sim
    views = {node_id: {neighbor: asdict(info)
                       for neighbor, info in node.app.view._info.items()}
             for node_id, node in sim.nodes.items()
             if getattr(node.app, "view", None) is not None}
    called = sum(len(deliveries)
                 for _, _, deliveries in sim.channel._plans.values())
    return live.result.to_dict(), snapshot, views, called


def _value(snapshot, name):
    return sum(entry["value"] for entry in snapshot if entry["name"] == name)


def _assert_interest_is_conservative(strategy, condition, **cell):
    shipped = _run(strategy, condition, **cell)
    promiscuous = _run(strategy, condition, promiscuous=True, **cell)
    assert shipped[0] == promiscuous[0]
    assert shipped[1] == promiscuous[1]
    assert shipped[2] == promiscuous[2]
    # The patch took: the promiscuous build plans strictly more calls.
    assert shipped[3] < promiscuous[3]
    return shipped


@pytest.mark.parametrize("condition", CONDITIONS)
@pytest.mark.parametrize("strategy", STRATEGY_ORDER, ids=lambda s: s.name)
def test_interest_filtered_run_equals_promiscuous_run(strategy, condition):
    result, snapshot, views, _ = _assert_interest_is_conservative(
        strategy, condition)
    assert result["result_frames"] > 0
    assert bool(views) == strategy.uses_tier2
    if condition == "outages" and strategy.uses_tier2:
        # The outages really drove the liveness path being compared.
        assert _value(snapshot, "recovery.evictions_total") > 0
        assert _value(snapshot, "recovery.readmissions_total") > 0
    if condition in RADIO:
        assert _value(snapshot, "sim.radio.link_losses_total") > 0
    if condition == "churn":
        assert result["abort_frames"] > 0


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@pytest.mark.slow
@given(strategy=st.sampled_from(STRATEGY_ORDER),
       condition=st.sampled_from(CONDITIONS),
       workload=st.sampled_from("ABC"),
       seed=st.integers(min_value=1, max_value=10 ** 6))
@settings(max_examples=6, deadline=None)
def test_interest_is_conservative_on_the_64_node_grid(strategy, condition,
                                                      workload, seed):
    _assert_interest_is_conservative(strategy, condition, workload=workload,
                                     side=8, seed=seed, duration_ms=16_000.0)
