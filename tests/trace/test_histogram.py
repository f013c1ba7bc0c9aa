"""Trace-side telemetry: histogram bucketing and per-run sink views.

The histogram is :class:`repro.metrics.instruments.Histogram`; the
aggregating sink whose ``summary()``/spans/fan-out the trace report and
``repro.bench --trace`` read is :class:`repro.metrics.sink.MetricsSink`.
"""

import pytest

from repro import ConstraintSystem
from repro.graph import CreationOrder
from repro.metrics import Histogram, MetricsRegistry, MetricsSink
from repro.solver import CyclePolicy, GraphForm, SolverOptions, solve


class TestOnlineHistogram:
    """Streaming bucketing of :class:`Histogram`."""

    def test_exact_below_limit(self):
        hist = Histogram()
        for value in (0, 1, 1, 3, 15):
            hist.observe(value)
        assert hist.count == 5
        assert hist.sum == 20
        assert (hist.min, hist.max) == (0, 15)
        assert hist.buckets == {0: 1, 1: 2, 3: 1, 15: 1}
        assert hist.mean == 4.0

    def test_power_of_two_buckets_above_limit(self):
        hist = Histogram()
        for value in (16, 17, 31, 32, 100, 1000):
            hist.observe(value)
        assert hist.buckets == {16: 3, 32: 1, 64: 1, 512: 1}
        # count/sum/min/max stay exact even though buckets are coarse.
        assert hist.sum == 16 + 17 + 31 + 32 + 100 + 1000
        assert (hist.min, hist.max) == (16, 1000)
        rows = hist.bucket_rows()
        assert rows[0] == (16, 31, 3)
        assert rows[-1] == (512, 1023, 1)

    def test_merge_matches_combined_stream(self):
        left, right, combined = Histogram(), Histogram(), Histogram()
        for value in (1, 2, 40):
            left.observe(value)
            combined.observe(value)
        for value in (2, 17):
            right.observe(value)
            combined.observe(value)
        left.merge(right)
        assert left.buckets == combined.buckets
        assert left.count == combined.count
        assert left.sum == combined.sum
        assert (left.min, left.max) == (combined.min, combined.max)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Histogram().observe(-1)


def solve_three_cycle(sink):
    """v0 <= v1 <= v2 <= v0 under IF-Online with creation order."""
    system = ConstraintSystem()
    v0, v1, v2 = system.fresh_vars(3)
    system.add(v0, v1)
    system.add(v1, v2)
    system.add(v2, v0)
    return solve(system, SolverOptions(
        form=GraphForm.INDUCTIVE,
        cycles=CyclePolicy.ONLINE,
        order=CreationOrder(),
        sink=sink,
    ))


def new_sink(label=""):
    """A sink on its own registry, so its views count one run."""
    return MetricsSink(MetricsRegistry(), label=label)


class TestHistogramSink:
    """The per-run views of :class:`MetricsSink`."""

    def test_three_cycle_telemetry(self):
        sink = new_sink(label="3cycle")
        solution = solve_three_cycle(sink)
        stats = solution.stats
        summary = sink.summary()
        # Histograms agree with the solver's deterministic counters.
        assert summary["searches"] == stats.cycle_searches
        assert sink.search_visits.count == stats.cycle_searches
        assert sink.search_visits.sum == stats.cycle_search_visits
        assert summary["search_hits"] == stats.cycles_found
        assert summary["mean_search_visits"] == stats.mean_search_visits
        # The 3-cycle collapses down to one representative.
        assert stats.vars_eliminated == 2
        assert sink.cycle_lengths.count == summary["search_hits"] >= 1
        assert sink.cycle_lengths.sum >= 2 * summary["search_hits"]
        assert summary["hit_rate"] == pytest.approx(
            stats.cycles_found / stats.cycle_searches
        )

    def test_edge_outcome_counts_match_stats(self):
        sink = new_sink()
        solution = solve_three_cycle(sink)
        stats = solution.stats
        summary = sink.summary()
        outcomes = summary["edge_outcomes"]
        assert sum(outcomes.values()) == stats.work
        assert outcomes.get("redundant", 0) == stats.redundant
        assert outcomes.get("self", 0) == stats.self_edges
        assert summary["edge_kinds"].get("vv", 0) == stats.work

    def test_phase_spans_recorded(self):
        sink = new_sink()
        solve_three_cycle(sink)
        assert "closure" in sink.phase_seconds()
        assert "least-solution" in sink.phase_seconds()
        names = [name for name, _, _ in sink.spans]
        assert "closure" in names
        for name, began, ended in sink.spans:
            assert ended >= began
        assert not sink._open_phases

    def test_unmatched_phase_end_never_raises(self):
        sink = new_sink()
        sink.phase_end("never-opened")
        assert sink.spans == [
            ("never-opened", sink.spans[0][1], sink.spans[0][1])
        ]
        assert sink.phase_seconds() == {}

    def test_fanout_counts_added_vv_edges_only(self):
        sink = new_sink()
        sink.edge("vv", 1, 2, "added")
        sink.edge("vv", 1, 3, "added")
        sink.edge("vv", 1, 3, "redundant")
        sink.edge("sv", "term", 1, "added")
        hist = sink.fanout_histogram()
        assert hist.count == 1
        assert hist.sum == 2

    def test_merge_combines_runs(self):
        first, second = new_sink(), new_sink()
        solve_three_cycle(first)
        solve_three_cycle(second)
        merged = new_sink(label="merged")
        merged.merge(first)
        merged.merge(second)
        assert merged.summary()["searches"] == (
            first.summary()["searches"] + second.summary()["searches"]
        )
        assert merged.search_visits.sum == (
            first.search_visits.sum + second.search_visits.sum
        )
        assert merged.search_visits.mean == pytest.approx(
            first.search_visits.mean
        )
        assert merged.summary()["edge_outcomes"] == {
            outcome: 2 * count
            for outcome, count in first.summary()["edge_outcomes"].items()
        }
        assert len(merged.spans) == len(first.spans) + len(second.spans)

    def test_summary_is_json_ready(self):
        import json

        sink = new_sink(label="s")
        solve_three_cycle(sink)
        summary = sink.summary()
        json.dumps(summary)  # must not raise
        assert summary["label"] == "s"
        assert summary["searches"] == sink.search_visits.count
        assert summary["search_visits"]["count"] == summary["searches"]
