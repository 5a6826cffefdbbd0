"""The simulator's per-frame series are read from the radio ledger.

``sim.trace.TraceCollector`` writes a frame once, into its own
accumulators; the registry's ``sim.radio.*`` / ``sim.node.*`` /
``sim.mac.retransmissions_total`` counters and the
``span.radio.tx.duration_ms`` histogram read those accumulators when they
are read, and ``SimObs.tracer`` builds the ``radio.tx`` spans from the
ledger's ring on demand.

The oracle is the push path this replaced, kept here: :class:`PushCollector`
is the shipped ledger plus, for every report, the registry calls and the
``Span`` the ledger used to make per frame — into a second registry and a
second tracer.  With one simulation per scope both registries must
snapshot byte-for-byte alike and both tracers must hold the same spans.
The structural tests pin what the pull design promises beyond equality:
no registry lookup per frame, live reads between ``run_until`` slices,
how a shared registry sums, that a finished simulation is not kept alive
by the series that read it, the span ring's bound and wrap, and what a
frame costs in memory once the ring is full.
"""

import gc
import json
import tracemalloc
import weakref
from array import array
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.harness import runner
from repro.harness.experiments import STRATEGY_ORDER, fig3_cells
from repro.harness.failures import FailureInjector
from repro.harness.strategies import Deployment, Strategy
from repro.obs import Histogram, MetricsRegistry, Tracer, accounting, scoped
from repro.queries.ast import fresh_qids
from repro.sim import runtime
from repro.sim.messages import BROADCAST, Message, MessageKind
from repro.sim.radio import GilbertElliottParams, RadioParams
from repro.sim.trace import EnergyModel, TraceCollector

FAMILIES = ("sim.", "span.radio.tx.")
CONDITIONS = ("lossless", "bernoulli", "burst", "outages")
RADIO = {"bernoulli": RadioParams(loss_rate=0.10),
         "burst": RadioParams(burst=GilbertElliottParams())}


class PushCollector(TraceCollector):
    """The ledger as shipped, plus the per-frame pushes it replaced.

    ``pushed`` receives every ``sim.*`` / ``span.radio.tx.*`` write the
    collector used to make, the way it made them; ``tracer`` finishes one
    ``radio.tx`` span per frame.
    """

    def __init__(self, engine, obs=None):
        super().__init__(engine, obs)
        self.pushed = MetricsRegistry()
        self.tracer = Tracer(self.pushed, clock=lambda: engine.now)
        self._collisions_total = self.pushed.counter(
            "sim.radio.collisions_total",
            help="receivers that lost a frame to a collision")
        self._retransmissions_total = self.pushed.counter(
            "sim.mac.retransmissions_total",
            help="link-layer retransmissions of acknowledged frames")

    def record_transmission(self, src, msg, duration):
        super().record_transmission(src, msg, duration)
        registry, kind = self.pushed, msg.kind
        registry.counter(
            "sim.radio.tx_frames_total",
            help="frames put on air (retransmissions count again)",
            kind=kind.value).inc()
        registry.counter(
            "sim.radio.tx_bytes_total", help="frame bytes put on air",
            unit="bytes", kind=kind.value).inc(msg.length_bytes)
        registry.counter(
            "sim.radio.airtime_ms_total",
            help="channel time C_start + C_trans*len (Eq. 3)",
            unit="ms", kind=kind.value).inc(duration)
        registry.counter(
            "sim.node.tx_ms_total", help="per-node radio transmit time",
            unit="ms", node=src).inc(duration)
        span = self.tracer.start("radio.tx", node=src, kind=kind.value)
        self.tracer.finish(span, end_ms=span.start_ms + duration)

    def record_collision(self, msg, receivers):
        super().record_collision(msg, receivers)
        self._collisions_total.inc(receivers)

    def record_link_loss(self, model):
        super().record_link_loss(model)
        self.pushed.counter(
            "sim.radio.link_losses_total",
            help="frames eaten by the channel loss models", model=model).inc()

    def record_retransmission(self):
        super().record_retransmission()
        self._retransmissions_total.inc()

    def record_drop(self, reason):
        super().record_drop(reason)
        self.pushed.counter("sim.mac.dropped_frames_total",
                            help="frames abandoned by the MAC",
                            reason=reason).inc()

    def record_sleep(self, node_id, duration):
        super().record_sleep(node_id, duration)
        self.pushed.counter("sim.node.sleep_ms_total",
                            help="per-node radio-off time", unit="ms",
                            node=node_id).inc(duration)

    def record_outage(self, node_id, off_ms):
        super().record_outage(node_id, off_ms)  # pushes the sleep above
        self.pushed.counter("sim.node.failures_total",
                            help="injected fail-stop outages").inc()

    def average_energy_mj(self, node_ids, model=None,
                          include_base_station=None):
        average = super().average_energy_mj(node_ids, model,
                                            include_base_station)
        model = model or EnergyModel()
        elapsed_ms, total = self.elapsed_ms, 0.0
        ids = [n for n in node_ids if n != include_base_station]
        for node_id in ids:
            stats = self.node_stats(node_id)
            mj = model.energy_mj(stats.tx_busy_ms,
                                 min(stats.sleep_ms, elapsed_ms),
                                 elapsed_ms) if elapsed_ms > 0 else 0.0
            total += mj
            self.pushed.gauge("sim.energy.node_mj",
                              help="per-node energy under the energy model",
                              unit="mJ", node=node_id).set(mj)
        self.pushed.gauge("sim.energy.total_mj",
                          help="summed node energy (base station excluded)",
                          unit="mJ").set(total)
        self.pushed.gauge("sim.energy.avg_node_mj",
                          help="mean per-node energy (matches "
                               "RunResult.average_energy_mj)",
                          unit="mJ").set(total / len(ids) if ids else 0.0)
        return average


def _spec(strategy, workload, side, condition, seed, duration_ms):
    spec = fig3_cells(workload, side, duration_ms=duration_ms, seed=seed,
                      strategies=(strategy,))[0]
    if condition in RADIO:
        spec = replace(spec, config=replace(spec.config,
                                            radio_params=RADIO[condition]))
    return spec


def _deployment_class(condition, side, duration_ms, sims=None):
    """``Deployment``, injecting two first-hop outages under ``outages``
    and recording a weak reference to each simulation into ``sims``."""

    class _Deployment(Deployment):
        def __init__(self, strategy, config):
            super().__init__(strategy, config)
            if sims is not None:
                sims.append(weakref.ref(self.sim))
            if condition == "outages":
                injector = FailureInjector(self.sim, seed=5)
                third = duration_ms / 3
                injector.fail_at(side + 1, third, third)
                injector.fail_at(side + 2, 1.5 * third, third)

    return _Deployment


def _live(strategy=Strategy.TTMQO, workload="B", side=4,
          condition="lossless", seed=11, duration_ms=20_000.0,
          collector=PushCollector):
    """One cell run with ``collector`` as the ledger -> (live, snapshot)."""
    spec = _spec(strategy, workload, side, condition, seed, duration_ms)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runner, "Deployment",
                      _deployment_class(condition, side, duration_ms))
        patch.setattr(runtime, "TraceCollector", collector)
        with scoped() as registry, fresh_qids():
            live = runner.run_workload_live(
                strategy, spec.workload.build(), spec.resolved_config())
            snapshot = registry.snapshot()
    return live, snapshot


def _dump(snapshot):
    return json.dumps([entry for entry in snapshot
                       if entry["name"].startswith(FAMILIES)],
                      indent=1, sort_keys=True)


def _assert_ledger_equals_pushes(**cell):
    live, snapshot = _live(**cell)
    trace = live.deployment.sim.trace
    assert _dump(snapshot) == _dump(trace.pushed.snapshot())
    read, pushed = live.deployment.sim.obs.tracer, trace.tracer
    assert read.snapshot() == pushed.snapshot()
    assert (read.started, read.dropped) == (pushed.started, pushed.dropped)
    assert read.started == live.result.total_frames > 0
    return live, snapshot


def _value(snapshot, name, **labels):
    wanted = {key: str(value) for key, value in labels.items()}
    return sum(entry["value"] for entry in snapshot
               if entry["name"] == name
               and all(entry["labels"].get(k) == v
                       for k, v in wanted.items()))


# ----------------------------------------------------------------------
# The differential
# ----------------------------------------------------------------------
@pytest.mark.parametrize("condition", CONDITIONS)
def test_ledger_series_equal_the_pushed_series(condition):
    live, snapshot = _assert_ledger_equals_pushes(condition=condition)
    if condition in RADIO:
        assert _value(snapshot, "sim.radio.link_losses_total") > 0
    if condition == "outages":
        assert _value(snapshot, "sim.node.failures_total") == 2
    assert _value(snapshot, "sim.mac.retransmissions_total") == \
        live.result.retransmissions


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

CELLS = dict(strategy=st.sampled_from(STRATEGY_ORDER),
             workload=st.sampled_from("ABC"),
             condition=st.sampled_from(CONDITIONS),
             seed=st.integers(min_value=1, max_value=10 ** 6))


@given(side=st.sampled_from((4, 6)), **CELLS)
@settings(max_examples=8, deadline=None)
def test_ledger_equals_pushes_on_random_cells(strategy, workload, side,
                                              condition, seed):
    _assert_ledger_equals_pushes(strategy=strategy, workload=workload,
                                 side=side, condition=condition, seed=seed,
                                 duration_ms=16_000.0)


@pytest.mark.slow
@given(side=st.sampled_from((6, 8)), **CELLS)
@settings(max_examples=12, deadline=None)
def test_ledger_equals_pushes_on_random_cells_deep(strategy, workload, side,
                                                   condition, seed):
    _assert_ledger_equals_pushes(strategy=strategy, workload=workload,
                                 side=side, condition=condition, seed=seed,
                                 duration_ms=24_000.0)


# ----------------------------------------------------------------------
# Structural properties of the pull design
# ----------------------------------------------------------------------
def test_registry_lookups_do_not_grow_with_frames(monkeypatch):
    calls = []
    series = MetricsRegistry._series

    def counting(self, *args, **kwargs):
        calls.append(args[0])
        return series(self, *args, **kwargs)

    monkeypatch.setattr(MetricsRegistry, "_series", counting)
    counts, frames = [], []
    for duration_ms in (20_000.0, 40_000.0):
        del calls[:]
        live, _ = _live(duration_ms=duration_ms,
                        collector=TraceCollector)
        counts.append(len(calls))
        frames.append(live.result.total_frames)
    assert frames[1] > 1.5 * frames[0]
    assert counts[0] == counts[1]


def test_counters_read_the_ledger_between_run_until_slices():
    spec = _spec(Strategy.TTMQO, "B", 4, "outages", 11, 12_000.0)
    with scoped() as registry, fresh_qids():
        deployment = _deployment_class("outages", 4, 12_000.0)(
            spec.strategy, spec.resolved_config())
        sim, trace = deployment.sim, deployment.sim.trace
        for event in spec.workload.build().events:
            sim.engine.schedule_at(event.time_ms, deployment.register,
                                   event.query)
        seen = []
        for t_end in (3_000.0, 6_000.0, 9_000.0, 12_000.0):
            sim.run_until(t_end)
            snapshot = registry.snapshot()
            frames = trace.messages_by_kind()
            airtime = trace.airtime_by_kind()
            for kind in MessageKind:
                assert _value(snapshot, "sim.radio.tx_frames_total",
                              kind=kind.value) == frames.get(kind, 0)
                assert _value(snapshot, "sim.radio.airtime_ms_total",
                              kind=kind.value) == airtime.get(kind, 0.0)
            nodes = [trace.node_stats(node) for node in sim.nodes]
            assert _value(snapshot, "sim.radio.tx_bytes_total") == \
                sum(stats.tx_bytes for stats in nodes)
            for stats in nodes:
                assert _value(snapshot, "sim.node.tx_ms_total",
                              node=stats.node_id) == stats.tx_busy_ms
                assert _value(snapshot, "sim.node.sleep_ms_total",
                              node=stats.node_id) == stats.sleep_ms
            assert _value(snapshot, "sim.radio.collisions_total") == \
                trace.collisions
            assert _value(snapshot, "sim.mac.retransmissions_total") == \
                trace.retransmissions
            spans, = [entry for entry in snapshot
                      if entry["name"] == "span.radio.tx.duration_ms"]
            assert spans["count"] == sum(frames.values())
            seen.append(sum(frames.values()))
    assert seen == sorted(set(seen)) and seen[0] > 0


def test_a_shared_registry_sums_the_simulations():
    lives = []
    with scoped() as registry:
        for workload in ("A", "B"):
            spec = _spec(Strategy.TTMQO, workload, 4, "lossless", 11,
                         8_000.0)
            with fresh_qids():
                lives.append(runner.run_workload_live(
                    spec.strategy, spec.workload.build(),
                    spec.resolved_config()))
        snapshot = registry.snapshot()
    traces = [live.deployment.sim.trace for live in lives]
    for kind in MessageKind:
        frames = sum(live.result.frames_by_kind()[kind.value]
                     for live in lives)
        assert _value(snapshot, "sim.radio.tx_frames_total",
                      kind=kind.value) == frames
        airtime = sum(trace.airtime_by_kind().get(kind, 0.0)
                      for trace in traces)
        assert _value(snapshot, "sim.radio.airtime_ms_total",
                      kind=kind.value) == pytest.approx(airtime, rel=1e-12)
    assert _value(snapshot, "sim.radio.tx_bytes_total") == sum(
        trace.node_stats(node).tx_bytes
        for live, trace in zip(lives, traces)
        for node in live.deployment.sim.nodes)
    assert _value(snapshot, "sim.mac.retransmissions_total") == \
        sum(live.result.retransmissions for live in lives)
    histogram = [entry for entry in snapshot
                 if entry["name"] == "span.radio.tx.duration_ms"]
    assert [entry["count"] for entry in histogram] == \
        [float(sum(live.result.total_frames for live in lives))]


def test_series_outlive_the_simulation_they_read(monkeypatch):
    sims = []
    spec = _spec(Strategy.TTMQO, "A", 4, "lossless", 11, 8_000.0)
    monkeypatch.setattr(runner, "Deployment",
                        _deployment_class("lossless", 4, 8_000.0, sims))
    with scoped() as registry:
        result = spec.run()
    gc.collect()
    assert len(sims) == 1 and sims[0]() is None
    snapshot = registry.snapshot()
    for kind, frames in result.frames_by_kind().items():
        assert _value(snapshot, "sim.radio.tx_frames_total",
                      kind=kind) == frames
    assert _value(snapshot, "sim.mac.retransmissions_total") == \
        result.retransmissions
    assert _value(snapshot, "sim.radio.collisions_total") == result.collisions


def test_span_ring_keeps_the_last_frames(monkeypatch):
    monkeypatch.setattr(accounting, "DEFAULT_SPAN_CAP", 100)
    live, _ = _live()
    read = live.deployment.sim.obs.tracer
    pushed = live.deployment.sim.trace.tracer  # uncapped oracle
    frames = live.result.total_frames
    assert frames > 100
    assert len(read.finished) == 100 and read.cap == 100
    assert read.dropped == frames - 100
    assert read.snapshot(5) == pushed.snapshot(5)
    assert read.snapshot() == pushed.snapshot(100)
    assert [span.to_dict() for span in read.by_name("radio.tx")] == \
        read.snapshot()


def test_histogram_parts_fold_in_like_observations():
    samples = [0.1, 0.2, 0.7]
    observed, folded = Histogram(), Histogram()
    for value in samples:
        observed.observe(value)
    folded.add_part(samples)
    assert folded.summary() == observed.summary()
    samples.append(0.3)
    observed.observe(0.3)
    assert folded.summary() == observed.summary()
    assert (folded.count, folded.sum) == (observed.count, observed.sum)


def _frames(trace, clock, count):
    """Put ``count`` frames through ``trace``: 64 senders, every kind,
    a new instant and a duration from a small cycle per frame."""
    kinds = list(MessageKind)
    messages = [Message(kinds[index % len(kinds)], index % 64, BROADCAST,
                        None, 8 + index % 5) for index in range(64)]
    for index in range(count):
        clock.now += 1.5
        message = messages[index % 64]
        trace.record_transmission(message.src, message,
                                  4.25 + (index % 7) * 0.5)


def _ledger(collector=TraceCollector):
    clock = SimpleNamespace(now=0.0)
    obs = accounting.SimObs(clock=lambda: clock.now,
                            registry=MetricsRegistry())
    return collector(clock, obs), obs, clock


def test_a_frame_past_the_full_ring_leaves_at_most_12_bytes():
    trace, obs, clock = _ledger()
    # Fill the ring and meet every sender and kind before measuring.
    _frames(trace, clock, accounting.DEFAULT_SPAN_CAP + 1_000)
    further = 120_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _frames(trace, clock, further)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained / further <= 12.0
    assert isinstance(obs.radio_tx_ms, array)
    assert len(obs.radio_tx_ms) == accounting.DEFAULT_SPAN_CAP + 1_000 + \
        further
    assert len(obs.radio_tx) == accounting.DEFAULT_SPAN_CAP


@pytest.mark.parametrize("past_cap", (-1, 0, 1, 25))
def test_span_ring_wraps_like_a_tracer(monkeypatch, past_cap):
    cap = 16
    monkeypatch.setattr(accounting, "DEFAULT_SPAN_CAP", cap)
    trace, obs, clock = _ledger(PushCollector)
    _frames(trace, clock, cap + past_cap)
    read, pushed = obs.tracer, trace.tracer  # the oracle holds them all
    assert (read.cap, read.started) == (cap, cap + past_cap)
    assert read.dropped == max(past_cap, 0)
    assert read.snapshot() == pushed.snapshot(cap)
    assert _dump(obs.registry.snapshot()) == _dump(trace.pushed.snapshot())
