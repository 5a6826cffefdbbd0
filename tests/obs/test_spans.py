"""Tracer/span tests: injected clocks, bounded buffers, histogram feed."""

import pytest

from repro.obs import MetricsRegistry, Tracer


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def tracer(clock):
    return Tracer(registry=MetricsRegistry(), clock=clock)


def test_span_duration_from_injected_clock(tracer, clock):
    span = tracer.start("work", node=3)
    clock.t = 12.5
    tracer.finish(span)
    assert span.duration_ms == 12.5
    assert span.status == "ok"
    assert span.labels == {"node": "3"}


def test_explicit_end_overrides_clock(tracer, clock):
    span = tracer.start("radio.tx")
    clock.t = 100.0
    tracer.finish(span, end_ms=7.0)
    assert span.duration_ms == 7.0


def test_finish_feeds_duration_histogram(tracer, clock):
    with tracer.span("work"):
        clock.t = 4.0
    hist = tracer.registry.histogram("span.work.duration_ms")
    assert hist.count == 1
    assert hist.sum == 4.0


def test_context_manager_marks_errors(tracer):
    with pytest.raises(ValueError):
        with tracer.span("work"):
            raise ValueError("boom")
    assert tracer.by_name("work")[0].status == "error"


def test_cap_evicts_oldest_and_counts_drops(clock):
    tracer = Tracer(registry=MetricsRegistry(), clock=clock, cap=2)
    for i in range(5):
        tracer.finish(tracer.start("s", i=i))
    assert len(tracer.finished) == 2
    assert tracer.dropped == 3
    assert tracer.started == 5
    assert [s.labels["i"] for s in tracer.finished] == ["3", "4"]


def test_full_buffer_keeps_the_newest_spans_in_order(clock):
    """Past the cap every finish evicts exactly the oldest span."""
    tracer = Tracer(registry=MetricsRegistry(), clock=clock, cap=100)
    for i in range(250):
        tracer.finish(tracer.start("odd" if i % 2 else "even", i=i))
    assert len(tracer.finished) == 100
    assert tracer.dropped == 150 and tracer.started == 250
    assert [int(s.labels["i"]) for s in tracer.finished] \
        == list(range(150, 250))
    assert [int(s.labels["i"]) for s in tracer.by_name("even")] \
        == list(range(150, 250, 2))
    assert len(tracer.snapshot()) == 100
    assert [entry["labels"]["i"] for entry in tracer.snapshot(limit=3)] \
        == ["247", "248", "249"]
    assert len(tracer.snapshot(limit=1000)) == 100
    # Eviction is from the buffer only: the histogram saw every span.
    assert tracer.registry.histogram("span.odd.duration_ms").count == 125


def test_snapshot_limit_and_shape(tracer, clock):
    for i in range(3):
        span = tracer.start("s", i=i)
        clock.t += 1.0
        tracer.finish(span)
    snap = tracer.snapshot(limit=2)
    assert len(snap) == 2
    assert set(snap[0]) == {"name", "start_ms", "end_ms", "duration_ms",
                            "status", "labels"}
