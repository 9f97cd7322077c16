"""MetricsRegistry: families, labels, snapshots, and merging."""

import pytest

from repro.obs import DEFAULT_BOUNDARIES, MetricsRegistry, merge_snapshots


class TestCounter:
    def test_inc_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("dca.submit")
        counter.inc()
        counter.inc(4)
        snap = registry.snapshot()
        assert snap["dca.submit"]["series"] == [{"labels": {}, "value": 5}]

    def test_labeled_series_are_separate_and_sorted(self):
        registry = MetricsRegistry()
        counter = registry.counter("decisions")
        counter.inc(2, {"outcome": "extend"})
        counter.inc(1, {"outcome": "accept"})
        series = registry.snapshot()["decisions"]["series"]
        assert [s["labels"]["outcome"] for s in series] == ["accept", "extend"]
        assert [s["value"] for s in series] == [1, 2]

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("x").inc(-1)

    def test_get_or_create_returns_same_family(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_kind_clash_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")


class TestGauge:
    def test_set_keeps_last_value(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("heap")
        gauge.set(10)
        gauge.set(3)
        assert registry.snapshot()["heap"]["series"] == [{"labels": {}, "value": 3}]


class TestHistogram:
    def test_bucketing_and_sum(self):
        registry = MetricsRegistry()
        hist = registry.histogram("rt", boundaries=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            hist.observe(value)
        series = registry.snapshot()["rt"]["series"][0]
        assert series["counts"] == [1, 1, 1]
        assert series["count"] == 3
        assert series["sum"] == pytest.approx(55.5)

    def test_boundary_value_goes_to_higher_bucket(self):
        registry = MetricsRegistry()
        hist = registry.histogram("rt", boundaries=(1.0,))
        hist.observe(1.0)
        assert registry.snapshot()["rt"]["series"][0]["counts"] == [0, 1]

    def test_default_boundaries(self):
        registry = MetricsRegistry()
        registry.histogram("rt").observe(2.0)
        assert registry.snapshot()["rt"]["boundaries"] == list(DEFAULT_BOUNDARIES)

    def test_non_increasing_boundaries_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("rt", boundaries=(2.0, 1.0))

    def test_boundary_mismatch_on_reuse_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("rt", boundaries=(1.0, 2.0))
        with pytest.raises(ValueError):
            registry.histogram("rt", boundaries=(5.0,))


class TestBulkObserve:
    def test_matches_one_observe_per_value(self):
        np = pytest.importorskip("numpy")
        # Values on, between and beyond the boundaries, ints and floats.
        values = [0.0, 0.5, 0.7, 1.0, 2, 5.0, 7.5, 20, 1000.0, 1e6]
        one = MetricsRegistry().histogram("h")
        bulk = MetricsRegistry().histogram("h")
        for value in values:
            one.observe(value, {"followup": True})
        bulk.observe_many(np.asarray(values), {"followup": True})
        bulk.observe_many(np.asarray([], dtype=float), {"followup": True})
        (one_series,) = one._snapshot_series()
        (bulk_series,) = bulk._snapshot_series()
        assert bulk_series["counts"] == one_series["counts"]
        assert bulk_series["count"] == one_series["count"] == len(values)
        assert bulk_series["sum"] == pytest.approx(one_series["sum"])


class TestSnapshot:
    def test_snapshot_is_canonically_sorted(self):
        registry = MetricsRegistry()
        registry.counter("zeta").inc()
        registry.counter("alpha").inc()
        assert list(registry.snapshot()) == ["alpha", "zeta"]

    def test_snapshot_is_a_copy(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        snap = registry.snapshot()
        snap["x"]["series"][0]["value"] = 999
        assert registry.snapshot()["x"]["series"][0]["value"] == 1


class TestMerge:
    def _snap(self, **counts):
        registry = MetricsRegistry()
        for name, value in counts.items():
            registry.counter(name).inc(value)
        return registry.snapshot()

    def test_counters_sum(self):
        merged = merge_snapshots([self._snap(a=1), self._snap(a=2, b=5)])
        values = {name: fam["series"][0]["value"] for name, fam in merged.items()}
        assert values == {"a": 3, "b": 5}

    def test_gauges_take_max(self):
        r1, r2 = MetricsRegistry(), MetricsRegistry()
        r1.gauge("heap").set(10)
        r2.gauge("heap").set(7)
        merged = merge_snapshots([r1.snapshot(), r2.snapshot()])
        assert merged["heap"]["series"][0]["value"] == 10

    def test_histogram_bins_sum(self):
        r1, r2 = MetricsRegistry(), MetricsRegistry()
        r1.histogram("rt", boundaries=(1.0,)).observe(0.5)
        r2.histogram("rt", boundaries=(1.0,)).observe(2.0)
        merged = merge_snapshots([r1.snapshot(), r2.snapshot()])
        series = merged["rt"]["series"][0]
        assert series["counts"] == [1, 1]
        assert series["count"] == 2

    def test_merge_is_order_independent(self):
        snaps = [self._snap(a=1, b=2), self._snap(a=4), self._snap(b=9)]
        assert merge_snapshots(snaps) == merge_snapshots(list(reversed(snaps)))

    def test_kind_mismatch_raises(self):
        r1, r2 = MetricsRegistry(), MetricsRegistry()
        r1.counter("x").inc()
        r2.gauge("x").set(1)
        with pytest.raises(ValueError):
            merge_snapshots([r1.snapshot(), r2.snapshot()])

    def test_merge_does_not_alias_inputs(self):
        snap = self._snap(a=1)
        merged = merge_snapshots([snap])
        merged["a"]["series"][0]["value"] = 999
        assert snap["a"]["series"][0]["value"] == 1
