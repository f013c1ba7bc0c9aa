"""Parallel execution parity: ``--jobs N`` must change nothing but time.

The acceptance property of :mod:`repro.parallel`: a sharded run's
deterministic outputs — bench reports, trace summaries, metrics
expositions, fuzz disagreement lists — are identical to the serial
run's, with only wall-clock fields free to differ.  The
suite subsets here are small (this box may have a single core; the
tests gate correctness, not speedup).
"""

import json

import pytest

from repro.bench.harness import run_bench
from repro.bench.measure import COUNTER_FIELDS

pytestmark = pytest.mark.slow

BENCHES = ["allroots", "anagram"]


class TestBenchParity:
    def test_jobs4_report_matches_serial(self, monkeypatch):
        # The parallel path pins PYTHONHASHSEED=0 into the environment
        # for its workers; pin it up front so the serial report records
        # the same hash_seed metadata (counters are unaffected — fork
        # workers share the parent's hash state either way).
        monkeypatch.setenv("PYTHONHASHSEED", "0")
        serial = run_bench("quick", benchmarks=BENCHES, repeats=1)
        parallel = run_bench("quick", benchmarks=BENCHES, repeats=1,
                             jobs=4)
        # Reports hold counters only, so they are byte-identical.
        assert json.dumps(parallel.to_dict(), sort_keys=True) \
            == json.dumps(serial.to_dict(), sort_keys=True)

    def test_trace_and_metrics_artifacts_match_serial(self, tmp_path):
        serial_trace = tmp_path / "serial-trace"
        serial_metrics = tmp_path / "serial-metrics"
        parallel_trace = tmp_path / "parallel-trace"
        parallel_metrics = tmp_path / "parallel-metrics"
        run_bench("quick", benchmarks=BENCHES[:1], repeats=1,
                  trace_dir=str(serial_trace),
                  metrics_dir=str(serial_metrics))
        run_bench("quick", benchmarks=BENCHES[:1], repeats=1,
                  trace_dir=str(parallel_trace),
                  metrics_dir=str(parallel_metrics), jobs=2)

        def strip_times(node):
            if isinstance(node, dict):
                return {
                    key: strip_times(value)
                    for key, value in node.items()
                    if "seconds" not in key
                }
            if isinstance(node, list):
                return [strip_times(item) for item in node]
            return node

        serial_summary = json.loads(
            (serial_trace / "trace_summary.json").read_text()
        )
        parallel_summary = json.loads(
            (parallel_trace / "trace_summary.json").read_text()
        )
        assert strip_times(parallel_summary) == strip_times(serial_summary)

        def counter_lines(path):
            # Histogram/counter samples are deterministic; phase-second
            # counters are wall clock and excluded.
            return sorted(
                line
                for line in path.read_text().splitlines()
                if not line.startswith("#") and "seconds" not in line
            )

        assert counter_lines(parallel_metrics / "metrics.prom") \
            == counter_lines(serial_metrics / "metrics.prom")
        # The merged snapshot must still load (accumulate-on-load).
        from repro.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.load_snapshot(json.loads(
            (parallel_metrics / "metrics.json").read_text()
        ))
        assert registry.collect()

    def test_parallel_timeout_exits_three(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        code = main([
            "--no-pin-hashseed", "--jobs", "2",
            "--experiments", "SF-Plain", "--repeats", "1",
            "--timeout", "0.000001",
        ])
        assert code == 3
        assert "timeout" in capsys.readouterr().err

    def test_parallel_cli_report_matches_serial_cli(self, tmp_path,
                                                    monkeypatch):
        from repro.bench.__main__ import main

        monkeypatch.setenv("PYTHONHASHSEED", "0")
        serial = tmp_path / "serial.json"
        parallel = tmp_path / "parallel.json"
        base = ["--no-pin-hashseed", "--experiments", "SF-Online",
                "IF-Online", "--repeats", "1"]
        assert main([*base, "--write-baseline", str(serial)]) == 0
        assert main([*base, "--write-baseline", str(parallel),
                     "--jobs", "2"]) == 0
        assert parallel.read_bytes() == serial.read_bytes()


class TestFuzzParity:
    def test_parallel_run_matches_serial(self):
        from repro.resilience.fuzz import run_fuzz

        serial = run_fuzz(count=12, seed=3, corpus_dir=None)
        parallel = run_fuzz(count=12, seed=3, corpus_dir=None, jobs=3)
        assert parallel == serial

    def test_worker_finds_injected_disagreement(self, tmp_path,
                                                monkeypatch):
        """A disagreement found inside a shard surfaces with corpus
        file and metrics count, exactly like a serial find.

        The injected "bug" lives in check_system's in-process path, so
        run the shard worker in-process too (fuzz_task is a plain
        callable — the pool is not required to exercise it).
        """
        import repro.resilience.fuzz as fuzz_module
        from repro.resilience.fuzz import fuzz_task

        real_check = fuzz_module.check_system

        def lying_check(system, labels=None, seed=0):
            found = real_check(system, labels=labels, seed=seed)
            if found is None and len(system.constraints) % 2:
                return ("SF-Online", "verdict", "injected for the test")
            return found

        monkeypatch.setattr(fuzz_module, "check_system", lying_check)
        result = fuzz_task({
            "seed": 0, "labels": None,
            "start": 0, "stop": 8, "shrink": False,
        })
        assert result["checked"] == 8
        assert result["disagreements"], "injected bug must be reported"
        entry = result["disagreements"][0]
        assert entry["label"] == "SF-Online"
        assert entry["system"]["constraints"]
        # The parent-side merge writes the reproducer.
        from repro.resilience.fuzz import (
            load_reproducer,
            save_reproducer,
            system_from_json,
            FuzzDisagreement,
        )

        disagreement = FuzzDisagreement(
            seed=entry["seed"], label=entry["label"], kind=entry["kind"],
            detail=entry["detail"], constraints=entry["constraints"],
        )
        path = save_reproducer(
            str(tmp_path), disagreement, system_from_json(entry["system"])
        )
        system, metadata = load_reproducer(path)
        assert metadata["label"] == "SF-Online"
        assert len(system.constraints) == entry["constraints"]


class TestWorkerDeterminism:
    def test_bench_task_counters_match_inprocess_measurement(self):
        """One worker payload, executed through the pool, reproduces
        the in-process measurement bit for bit."""
        from repro.experiments.config import options_for
        from repro.bench.measure import measure_system
        from repro.parallel import TaskSpec, require_ok, run_tasks
        from repro.bench.harness import bench_task
        from repro.workloads import benchmark

        payload = {
            "suite": "quick", "benchmark": "allroots",
            "experiment": "IF-Online", "seed": 0, "repeats": 1,
            "trace": False, "metrics": False, "deadline": None,
        }
        (result,) = require_ok(run_tasks(
            bench_task, [TaskSpec("allroots/IF-Online", payload)],
            jobs=1,
        ))
        local = measure_system(
            benchmark("allroots").program.system,
            options_for("IF-Online", seed=0),
            repeats=1,
        )
        assert result.value["status"] == "ok"
        assert result.value["counters"] == local.counters
        assert set(result.value["counters"]) == set(COUNTER_FIELDS)
