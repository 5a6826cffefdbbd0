"""Unit tests for the metrics registry (counters, gauges, histograms)."""

from array import array

import pytest

from repro.obs import (
    Histogram,
    MetricsRegistry,
    get_registry,
    percentile,
    reset_registry,
    scoped,
    set_registry,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = MetricsRegistry().counter("c")
        assert counter.value == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("c")
        with pytest.raises(ValueError):
            counter.inc(-1.0)

    def test_same_labels_same_series(self):
        registry = MetricsRegistry()
        a = registry.counter("c", node=1, kind="row")
        b = registry.counter("c", kind="row", node=1)  # order-insensitive
        a.inc()
        assert b.value == 1.0
        assert registry.counter("c", node=2, kind="row").value == 0.0


class TestGauge:
    def test_set_and_inc(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(10.0)
        gauge.inc(-3.0)
        assert gauge.value == 7.0

    def test_lazy_callback_wins(self):
        state = {"v": 1.0}
        gauge = MetricsRegistry().gauge("g")
        gauge.set_fn(lambda: state["v"])
        state["v"] = 42.0
        assert gauge.value == 42.0


class TestHistogram:
    def test_summary_fields(self):
        hist = MetricsRegistry().histogram("h")
        for v in [10.0, 20.0, 30.0, 40.0]:
            hist.observe(v)
        summary = hist.summary()
        assert summary["count"] == 4.0
        assert summary["sum"] == 100.0
        assert summary["min"] == 10.0
        assert summary["max"] == 40.0
        assert summary["mean"] == 25.0
        assert summary["p50"] == 25.0  # linear interpolation

    def test_empty_summary_is_zero(self):
        summary = MetricsRegistry().histogram("h").summary()
        assert all(v == 0.0 for v in summary.values())

    def test_sample_cap_keeps_recent_but_counts_all(self):
        hist = MetricsRegistry().histogram("h", sample_cap=3)
        for v in [1.0, 2.0, 3.0, 100.0, 100.0, 100.0]:
            hist.observe(v)
        assert hist.count == 6
        assert hist.quantile(50.0) == 100.0  # only recent samples retained
        assert hist.min == 1.0  # min/max still cover everything

    def test_capped_window_matches_a_list_trimming_oracle(self):
        cap, extra = 64, 45
        values = [((i * 7919) % 101) / 3.0 for i in range(cap + extra)]
        hist = MetricsRegistry().histogram("h", sample_cap=cap)
        kept, total = [], 0.0
        for value in values:
            hist.observe(value)
            kept.append(value)
            if len(kept) > cap:  # the trim a list window makes
                del kept[: len(kept) - cap]
            total += value
        assert hist.state_dict() == {
            "count": cap + extra, "sum": total, "min": min(values),
            "max": max(values), "samples": kept}
        assert hist.summary() == {
            "count": float(cap + extra), "sum": total, "min": min(values),
            "max": max(values), "mean": total / (cap + extra),
            "p50": percentile(kept, 50.0), "p95": percentile(kept, 95.0)}
        oversized = dict(hist.state_dict(), samples=values)
        restored = Histogram(sample_cap=cap)
        restored.load_state(oversized)
        assert restored.state_dict() == hist.state_dict()

    def test_parts_fold_in_without_copying_their_type(self):
        observed, folded = Histogram(), Histogram()
        parts = (array("d", [3.5, 0.25, 9.0]), [], [4.0, -1.5],
                 array("d"))
        folded.observe(2.0)
        for part in parts:
            folded.add_part(part)
        for value in (2.0, 3.5, 0.25, 9.0, 4.0, -1.5):
            observed.observe(value)
        assert folded.summary() == observed.summary()
        assert (folded.count, folded.sum, folded.min, folded.max,
                folded.mean, folded.quantile(30.0)) == \
            (observed.count, observed.sum, observed.min, observed.max,
             observed.mean, observed.quantile(30.0))
        assert folded.state_dict()["samples"] == [2.0]

    def test_percentile_interpolates(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5
        assert percentile([], 50.0) == 0.0
        assert percentile([7.0], 95.0) == 7.0


class TestRegistry:
    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(ValueError):
            registry.gauge("m")

    def test_families_sorted(self):
        registry = MetricsRegistry()
        registry.counter("z")
        registry.counter("a")
        assert registry.families() == ["a", "z"]

    def test_snapshot_sorted_and_json_safe(self):
        import json

        registry = MetricsRegistry()
        registry.counter("b", node=2).inc()
        registry.counter("b", node=1).inc()
        registry.gauge("a", unit="ms").set(5.0)
        snapshot = registry.snapshot()
        keys = [(e["name"], tuple(sorted(e["labels"].items())))
                for e in snapshot]
        assert keys == sorted(keys)
        json.dumps(snapshot)  # must not raise

    def test_help_and_unit_fill_in_lazily(self):
        registry = MetricsRegistry()
        registry.counter("c")
        registry.counter("c", help="docs", unit="ms")
        entry = registry.snapshot()[0]
        assert entry["help"] == "docs"
        assert entry["unit"] == "ms"


class TestCurrentRegistry:
    def test_scoped_swaps_and_restores(self):
        outer = get_registry()
        with scoped() as inner:
            assert get_registry() is inner
            assert inner is not outer
            get_registry().counter("only.inner").inc()
        assert get_registry() is outer
        assert "only.inner" not in outer.families()

    def test_scoped_restores_on_exception(self):
        outer = get_registry()
        with pytest.raises(RuntimeError):
            with scoped():
                raise RuntimeError("boom")
        assert get_registry() is outer

    def test_set_and_reset(self):
        original = get_registry()
        try:
            mine = MetricsRegistry()
            assert set_registry(mine) is original
            assert get_registry() is mine
            fresh = reset_registry()
            assert get_registry() is fresh
            assert fresh is not mine
        finally:
            set_registry(original)
