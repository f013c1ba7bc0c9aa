"""Smoke tests for ``python -m repro.trace`` (in-process, like the
bench CLI tests: ``--no-pin-hashseed`` keeps the re-exec from escaping
pytest, and runs are restricted to one quick-suite benchmark)."""

import json

from repro.trace.__main__ import main

FAST = ["--no-pin-hashseed", "--suite", "quick",
        "--benchmarks", "allroots"]


class TestReport:
    def test_default_subcommand_is_report(self, capsys):
        assert main(FAST) == 0
        out = capsys.readouterr().out
        assert "mean partial-search visits" in out
        assert "IF-Online" in out and "SF-Online" in out
        assert "detection" in out

    def test_json_and_chrome_outputs(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        chrome_path = tmp_path / "trace.json"
        assert main(["report", *FAST, "--json", str(report_path),
                     "--chrome", str(chrome_path)]) == 0
        payload = json.loads(report_path.read_text(encoding="utf-8"))
        assert payload["suite"] == "quick"
        assert set(payload["aggregates"]) == {"SF-Online", "IF-Online"}
        for aggregate in payload["aggregates"].values():
            assert aggregate["mean_search_visits"] > 0
        run = payload["runs"][0]
        assert run["counters"]["work"] > 0
        assert run["telemetry"]["searches"] > 0
        document = json.loads(chrome_path.read_text(encoding="utf-8"))
        assert any(
            entry.get("ph") == "X" for entry in document["traceEvents"]
        )

    def test_check_baseline_detects_match_and_divergence(
            self, tmp_path, capsys):
        # A baseline recorded by the bench harness in the same process
        # must agree with traced counters (tracing does not perturb).
        from repro.bench.__main__ import main as bench_main

        baseline = tmp_path / "BASELINE.json"
        assert bench_main([
            "--no-pin-hashseed",
            "--repeats", "1", "--experiments", "SF-Online", "IF-Online",
            "--write-baseline", str(baseline),
        ]) == 0
        capsys.readouterr()
        assert main(["report", *FAST,
                     "--check-baseline", str(baseline)]) == 0
        assert "baseline check OK" in capsys.readouterr().out
        # Doctor a counter: the check must fail with exit code 1.
        payload = json.loads(baseline.read_text(encoding="utf-8"))
        for record in payload["records"]:
            if (record["benchmark"], record["experiment"]) == (
                    "allroots", "IF-Online"):
                record["counters"]["work"] += 1
        baseline.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["report", *FAST,
                     "--check-baseline", str(baseline)]) == 1
        assert "FAILED" in capsys.readouterr().err

    def test_unknown_benchmark_exits_two(self, capsys):
        assert main(["report", "--no-pin-hashseed", "--suite", "quick",
                     "--benchmarks", "no-such-bench"]) == 2
        assert "no-such-bench" in capsys.readouterr().err


class TestRecordAndConvert:
    def test_record_then_convert_round_trips(self, tmp_path, capsys):
        jsonl = tmp_path / "run.jsonl"
        assert main(["record", "--no-pin-hashseed",
                     "--benchmark", "allroots", "--suite", "quick",
                     "--experiment", "IF-Online",
                     "--out", str(jsonl)]) == 0
        assert "recorded allroots IF-Online" in capsys.readouterr().out
        first = jsonl.read_text(encoding="utf-8").splitlines()[0]
        assert json.loads(first) == {"ev": "meta", "schema": 1}

        out = tmp_path / "run.trace.json"
        assert main(["convert", str(jsonl), str(out),
                     "--max-instants", "100"]) == 0
        document = json.loads(out.read_text(encoding="utf-8"))
        assert document["traceEvents"]
        assert "dropped_instants" in document["otherData"]

    def test_record_unknown_benchmark_exits_two(self, tmp_path, capsys):
        assert main(["record", "--no-pin-hashseed",
                     "--benchmark", "nope", "--suite", "quick",
                     "--out", str(tmp_path / "x.jsonl")]) == 2
        assert "nope" in capsys.readouterr().err

    def test_convert_missing_input_exits_two(self, tmp_path, capsys):
        assert main(["convert", str(tmp_path / "absent.jsonl"),
                     str(tmp_path / "out.json")]) == 2
        assert capsys.readouterr().err


class TestTracedViz:
    def test_collapse_witnesses_are_highlighted(self):
        from repro.experiments.config import options_for
        from repro.solver import solve
        from repro.trace import CollectorSink
        from repro.viz import traced_constraint_graph_dot
        from repro.workloads import suite

        bench = next(b for b in suite("quick") if b.name == "allroots")
        sink = CollectorSink()
        solution = solve(
            bench.program.system,
            options_for("IF-Online", seed=0).replace(sink=sink),
        )
        dot = traced_constraint_graph_dot(
            solution, sink.events, max_nodes=None
        )
        assert dot.startswith("digraph")
        assert "collapsed" in dot
        assert "fillcolor" in dot
        collapsed = sum(1 for e in sink.events if e.name == "collapse")
        assert collapsed > 0
