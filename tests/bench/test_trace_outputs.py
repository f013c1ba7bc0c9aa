"""``run_bench(..., trace_dir=...)``: the traced suite run.

One quick-suite benchmark under all six experiments at the default
three repeats: the summary carries per-experiment mean partial-search
visits, the spans file is a Chrome trace, and every pair's telemetry
describes one solve.
"""

import json

import pytest

from repro.bench.harness import run_bench
from repro.experiments.config import EXPERIMENT_LABELS


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    trace_dir = tmp_path_factory.mktemp("trace")
    report = run_bench("quick", benchmarks=("allroots",), repeats=3,
                       trace_dir=str(trace_dir))
    summary = json.loads(
        (trace_dir / "trace_summary.json").read_text(encoding="utf-8")
    )
    spans = json.loads(
        (trace_dir / "trace_spans.json").read_text(encoding="utf-8")
    )
    return report, summary, spans


class TestTraceSummary:
    def test_aggregates_cover_every_experiment(self, traced):
        report, summary, _ = traced
        aggregates = summary["aggregates"]
        assert set(aggregates) == set(EXPERIMENT_LABELS)
        for record in report.records:
            counters = record.counters
            expected = (
                counters["cycle_search_visits"] / counters["cycle_searches"]
                if counters["cycle_searches"] else 0.0
            )
            assert aggregates[record.experiment] == {
                "mean_search_visits": expected
            }
        for label in ("SF-Online", "IF-Online"):
            assert aggregates[label]["mean_search_visits"] > 0
        for label in ("SF-Plain", "IF-Plain"):
            assert aggregates[label]["mean_search_visits"] == 0.0

    def test_spans_present(self, traced):
        _, summary, spans = traced
        assert len(summary["runs"]) == len(EXPERIMENT_LABELS)
        assert any(
            entry.get("ph") == "X" for entry in spans["traceEvents"]
        )

    def test_telemetry_observes_one_solve(self, traced):
        # Three repeats per pair, but the sink sees only the first.
        report, summary, spans = traced
        counters = {
            record.experiment: record.counters for record in report.records
        }
        for run in summary["runs"]:
            telemetry = run["telemetry"]
            expected = counters[run["experiment"]]
            assert telemetry["searches"] == expected["cycle_searches"]
            assert telemetry["resolutions"] == expected["resolutions"]
            assert sum(telemetry["edge_outcomes"].values()) == (
                expected["work"]
            )
        closures = [
            entry for entry in spans["traceEvents"]
            if entry.get("ph") == "X" and entry.get("name") == "closure"
        ]
        assert len(closures) == len(summary["runs"])
