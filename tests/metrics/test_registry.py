"""Registry lifecycle, snapshots, flushers, and the default registry."""

import json
import threading

import pytest

from repro.metrics import (
    MetricsRegistry,
    PeriodicFlusher,
    SNAPSHOT_SCHEMA_VERSION,
    default_registry,
    reset_default_registry,
)


class TestRegistration:
    def test_idempotent_registration(self):
        registry = MetricsRegistry()
        first = registry.counter("x_total", "help", ("a",))
        second = registry.counter("x_total", "help", ("a",))
        assert first is second

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "help")
        with pytest.raises(ValueError):
            registry.gauge("x_total", "help")

    def test_labelnames_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "help", ("a",))
        with pytest.raises(ValueError):
            registry.counter("x_total", "help", ("b",))

    def test_collect_sorted_by_name(self):
        registry = MetricsRegistry()
        registry.counter("z_total", "help")
        registry.counter("a_total", "help")
        assert [f.name for f in registry.collect()] == [
            "a_total", "z_total",
        ]

    def test_enable_disable(self):
        registry = MetricsRegistry()
        assert registry.enabled
        registry.disable()
        assert not registry.enabled
        registry.enable()
        assert registry.enabled


class TestSnapshots:
    def build(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "help", ("k",)).labels("v").inc(3)
        registry.gauge("g", "help").labels().set(7)
        hist = registry.histogram("h", "help").labels()
        hist.observe(2)
        hist.observe(40)
        return registry

    def test_snapshot_round_trip_accumulates(self):
        registry = self.build()
        snapshot = registry.snapshot(meta={"suite": "quick"})
        assert snapshot["schema_version"] == SNAPSHOT_SCHEMA_VERSION
        assert snapshot["meta"]["suite"] == "quick"
        fresh = MetricsRegistry()
        fresh.load_snapshot(snapshot)
        fresh.load_snapshot(snapshot)
        families = {f.name: f for f in fresh.collect()}
        assert families["c_total"].labels("v").to_value() == 6.0
        # Gauges are last-write-wins, not additive.
        assert families["g"].labels().to_value() == 7.0
        hist = families["h"].labels()
        assert hist.count == 4
        assert hist.sum == 84

    def test_unsupported_snapshot_version_raises(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.load_snapshot({"schema_version": 999, "families": []})

    def test_flush_to_writes_loadable_json(self, tmp_path):
        registry = self.build()
        path = str(tmp_path / "metrics.json")
        registry.flush_to(path, meta={"seed": 0})
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        fresh = MetricsRegistry()
        fresh.load_snapshot(payload)
        assert {f.name for f in fresh.collect()} == {
            "c_total", "g", "h",
        }

    def test_clear_empties_registry(self):
        registry = self.build()
        registry.clear()
        assert registry.collect() == []


def run_snapshot(counter_value, gauge_value):
    """The snapshot of one run's registry, as a bench pair returns it."""
    registry = MetricsRegistry()
    registry.counter("repro_test_ops_total", "ops", ("kind",)) \
        .labels("vv").inc(counter_value)
    registry.gauge("repro_test_depth", "depth").labels().set(gauge_value)
    registry.histogram("repro_test_visits", "visits") \
        .labels().observe(counter_value)
    return registry.snapshot()


class TestMergingRunSnapshots:
    """Loading per-run snapshots into one registry is the merge."""

    def merged(self, *snapshots):
        registry = MetricsRegistry()
        for snapshot in snapshots:
            registry.load_snapshot(snapshot)
        return registry

    def test_counters_and_histograms_accumulate(self):
        exposition = self.merged(
            run_snapshot(3, 1.0), run_snapshot(4, 2.0)
        ).expose()
        assert 'repro_test_ops_total{kind="vv"} 7' in exposition
        # Gauges take the last value.
        assert "repro_test_depth 2\n" in exposition
        assert "repro_test_visits_count 2" in exposition
        assert 'repro_test_visits_bucket{le="3"} 1' in exposition
        assert 'repro_test_visits_bucket{le="4"} 2' in exposition

    def test_empty_registry_snapshot_adds_nothing(self):
        alone = self.merged(run_snapshot(5, 0.0)).expose()
        padded = self.merged(
            MetricsRegistry().snapshot(), run_snapshot(5, 0.0),
            MetricsRegistry().snapshot(),
        ).expose()
        assert padded == alone

    def test_merge_round_trips_through_snapshot(self):
        merged = self.merged(run_snapshot(1, 0.0), run_snapshot(2, 0.0))
        reloaded = MetricsRegistry()
        reloaded.load_snapshot(merged.snapshot())
        assert reloaded.expose() == merged.expose()

    def test_accumulates_onto_supplied_registry(self):
        registry = MetricsRegistry()
        registry.counter("repro_test_ops_total", "ops", ("kind",)) \
            .labels("vv").inc(10)
        registry.counter("repro_test_other_total", "other").labels().inc(1)
        registry.load_snapshot(run_snapshot(2, 0.0))
        exposition = registry.expose()
        assert 'repro_test_ops_total{kind="vv"} 12' in exposition
        # Families only the supplied registry held survive the merge.
        assert "repro_test_other_total 1" in exposition
        assert "repro_test_visits_count 1" in exposition


class TestPeriodicFlusher:
    def test_context_manager_final_flush(self, tmp_path):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "help").labels()
        path = str(tmp_path / "metrics.json")
        with PeriodicFlusher(registry, path, interval=60.0):
            counter.inc(5)
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        series = payload["families"][0]["series"]
        assert series[0]["value"] == 5.0

    def test_periodic_flushes_happen(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("c_total", "help").labels().inc()
        path = str(tmp_path / "metrics.json")
        flusher = PeriodicFlusher(registry, path, interval=0.01)
        flusher.start()
        try:
            deadline = threading.Event()
            deadline.wait(0.3)
        finally:
            flusher.stop()
        assert flusher.flushes >= 1


class TestDefaultRegistry:
    def test_process_wide_singleton(self):
        reset_default_registry()
        try:
            assert default_registry() is default_registry()
        finally:
            reset_default_registry()

    def test_reset_gives_fresh_registry(self):
        first = default_registry()
        reset_default_registry()
        try:
            assert default_registry() is not first
        finally:
            reset_default_registry()
