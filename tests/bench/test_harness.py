"""Tests for the benchmark-regression harness (repro.bench)."""

import json

import pytest

from repro.bench.baseline import BaselineError, load_report, write_report
from repro.bench.compare import IncomparableReportsError, compare_reports
from repro.bench.harness import BenchReport, run_bench
from repro.bench.measure import COUNTER_FIELDS

# A two-benchmark, two-experiment slice of the quick suite: enough to
# exercise every code path while staying fast.
BENCHMARKS = ["allroots", "ks"]
EXPERIMENTS = ["SF-Plain", "IF-Online"]


@pytest.fixture(scope="module")
def report():
    return run_bench(
        suite_name="quick",
        experiments=EXPERIMENTS,
        seed=0,
        repeats=2,
        benchmarks=BENCHMARKS,
    )


class TestRunBench:
    def test_shape(self, report):
        assert report.suite == "quick"
        assert report.experiments == EXPERIMENTS
        assert len(report.records) == len(BENCHMARKS) * len(EXPERIMENTS)
        for record in report.records:
            assert record.benchmark in BENCHMARKS
            assert record.experiment in EXPERIMENTS
            assert record.counters["work"] > 0
            assert set(record.counters) == set(COUNTER_FIELDS)

    def test_work_counts_deterministic_across_runs(self, report):
        again = run_bench(
            suite_name="quick",
            experiments=EXPERIMENTS,
            seed=0,
            repeats=2,
            benchmarks=BENCHMARKS,
        )
        first = {k: r.counters for k, r in report.key().items()}
        second = {k: r.counters for k, r in again.key().items()}
        assert first == second

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(KeyError):
            run_bench(suite_name="quick", benchmarks=["no-such-benchmark"])


class TestBaselineRoundTrip:
    def test_write_load_compare_clean(self, report, tmp_path):
        path = tmp_path / "BASELINE.json"
        write_report(report, str(path))
        loaded = load_report(str(path))
        assert loaded.to_dict() == report.to_dict()
        comparison = compare_reports(loaded, report)
        assert comparison.ok
        assert not comparison.regressions
        assert not comparison.missing

    def test_load_rejects_missing_and_malformed(self, tmp_path):
        with pytest.raises(BaselineError):
            load_report(str(tmp_path / "absent.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("not json", encoding="utf-8")
        with pytest.raises(BaselineError):
            load_report(str(bad))

    def test_load_rejects_wrong_schema_version(self, report, tmp_path):
        path = tmp_path / "old.json"
        payload = report.to_dict()
        payload["schema_version"] = 999
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(BaselineError):
            load_report(str(path))


def write_legacy(report, tmp_path, version):
    """``report`` saved in an older schema, whose records also carried
    wall times that the loader now skips."""
    payload = report.to_dict()
    payload["schema_version"] = version
    for record in payload["records"]:
        record["wall_times"] = [0.002, 0.001]
        record["median_seconds"] = 0.0015
    path = tmp_path / f"v{version}.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestSchemaV2:
    def test_v1_report_still_loads(self, report, tmp_path):
        """Backward compatibility: the loader skips v1 wall times."""
        loaded = load_report(write_legacy(report, tmp_path, 1))
        assert loaded.schema_version == 1
        assert loaded.to_dict()["records"] == report.to_dict()["records"]

    def test_v1_baseline_comparable_to_v2_report(self, report, tmp_path):
        v1 = load_report(write_legacy(report, tmp_path, 1))
        v2 = load_report(write_legacy(report, tmp_path, 2))
        assert v2.schema_version == 2
        assert compare_reports(v1, v2).ok
        assert compare_reports(v1, report).ok

    def test_committed_baseline_loads(self):
        import os

        repo = os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))
        ))
        baseline = load_report(
            os.path.join(repo, "benchmarks", "BASELINE.json")
        )
        assert baseline.records


class TestCompare:
    def test_injected_work_regression_fails(self, report):
        baseline = BenchReport.from_dict(report.to_dict())
        record = baseline.records[0]
        record.counters = dict(record.counters,
                               work=record.counters["work"] - 1)
        comparison = compare_reports(baseline, report)
        assert not comparison.ok
        assert any(f.metric == "work" for f in comparison.regressions)

    def test_work_improvement_fails_the_gate(self, report):
        # Less work than the baseline is drift as well: the oracle no
        # longer holds until the baseline is re-written.
        baseline = BenchReport.from_dict(report.to_dict())
        record = baseline.records[0]
        record.counters = dict(record.counters,
                               work=record.counters["work"] + 5)
        comparison = compare_reports(baseline, report)
        assert not comparison.ok
        assert [f.metric for f in comparison.regressions] == ["work"]

    @pytest.mark.parametrize("delta", [1, -1])
    @pytest.mark.parametrize("counter", COUNTER_FIELDS)
    def test_any_counter_drift_fails(self, report, counter, delta):
        baseline = BenchReport.from_dict(report.to_dict())
        record = baseline.records[-1]
        record.counters = dict(record.counters,
                               **{counter: record.counters[counter] + delta})
        comparison = compare_reports(baseline, report)
        assert not comparison.ok
        (finding,) = comparison.regressions
        assert (finding.benchmark, finding.experiment, finding.metric) \
            == (record.benchmark, record.experiment, counter)
        assert "REGRESSION" in comparison.render()

    def test_missing_pair_fails(self, report):
        current = BenchReport.from_dict(report.to_dict())
        del current.records[0]
        comparison = compare_reports(report, current)
        assert not comparison.ok
        assert comparison.missing

    def test_refuses_different_workloads(self, report):
        other = BenchReport.from_dict(report.to_dict())
        other.suite = "full"
        with pytest.raises(IncomparableReportsError):
            compare_reports(other, report)
        other = BenchReport.from_dict(report.to_dict())
        other.seed = 7
        with pytest.raises(IncomparableReportsError):
            compare_reports(other, report)
        other = BenchReport.from_dict(report.to_dict())
        other.hash_seed = "1" if report.hash_seed != "1" else "2"
        with pytest.raises(IncomparableReportsError):
            compare_reports(other, report)
