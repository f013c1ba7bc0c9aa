"""Instrument and family semantics."""

import pytest

from repro.metrics.instruments import (
    Counter,
    Family,
    Gauge,
    Histogram,
    bucket_floor,
    valid_label_name,
    valid_metric_name,
)


class TestCounter:
    def test_monotonic(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.to_value() == 3.5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge()
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.to_value() == 12


class TestHistogram:
    def test_observe_accumulates(self):
        hist = Histogram()
        for value in (1, 1, 17, 300):
            hist.observe(value)
        assert hist.count == 4
        assert hist.sum == 319
        assert hist.mean == 319 / 4

    def test_buckets_shared_with_trace(self):
        """The trace summary reports the instrument's own buckets."""
        from repro.metrics import MetricsRegistry, MetricsSink

        sink = MetricsSink(MetricsRegistry())
        sink.search_end(False, 17, 0)
        assert list(sink.search_visits.buckets) == [bucket_floor(17)]
        assert sink.summary()["search_visits"]["buckets"] == {"16": 1}

    def test_min_max_exact_and_merge_of_empty(self):
        hist = Histogram()
        assert (hist.min, hist.max) == (None, None)
        hist.merge(Histogram())
        assert (hist.min, hist.max, hist.count) == (None, None, 0)
        other = Histogram()
        for value in (40, 3):
            other.observe(value)
        hist.merge(other)
        assert (hist.min, hist.max) == (3, 40)

    def test_cumulative_monotone(self):
        hist = Histogram()
        for value in (1, 2, 2, 40, 100, 1000):
            hist.observe(value)
        cumulative = hist.cumulative()
        counts = [count for _, count in cumulative]
        assert counts == sorted(counts)
        assert counts[-1] == hist.count


class TestFamily:
    def test_label_values_create_children(self):
        family = Family("x_total", "counter", "help", ("a", "b"))
        child = family.labels("1", "2")
        child.inc()
        assert family.labels("1", "2") is child
        assert family.labels(a="1", b="2") is child
        assert len(family.series()) == 1

    def test_label_arity_checked(self):
        family = Family("x_total", "counter", "help", ("a",))
        with pytest.raises(ValueError):
            family.labels("1", "2")

    def test_invalid_names_rejected(self):
        with pytest.raises(ValueError):
            Family("0bad", "counter", "help", ())
        with pytest.raises(ValueError):
            Family("ok_total", "counter", "help", ("0bad",))

    def test_to_dict_merge_dict_round_trip(self):
        family = Family("x_total", "counter", "help", ("a",))
        family.labels("1").inc(3)
        other = Family("x_total", "counter", "help", ("a",))
        other.merge_dict(family.to_dict())
        other.merge_dict(family.to_dict())
        assert other.labels("1").to_value() == 6.0

    def test_histogram_merge_accumulates(self):
        family = Family("h", "histogram", "help", ())
        family.labels().observe(5)
        family.labels().observe(100)
        other = Family("h", "histogram", "help", ())
        other.merge_dict(family.to_dict())
        child = other.labels()
        assert child.count == 2
        assert child.sum == 105


class TestNames:
    def test_metric_name_grammar(self):
        assert valid_metric_name("repro_solver_edges_total")
        assert valid_metric_name(":colons_ok")
        assert not valid_metric_name("9starts_with_digit")
        assert not valid_metric_name("has-dash")

    def test_label_name_grammar(self):
        assert valid_label_name("form")
        assert not valid_label_name("__reserved")
        assert not valid_label_name("has-dash")
