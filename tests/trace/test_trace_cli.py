"""Smoke tests for ``python -m repro.trace`` (in-process, like the
bench CLI tests; runs use one quick-suite benchmark)."""

import json

import pytest

from repro.trace.__main__ import main


class TestSubcommands:
    @pytest.mark.parametrize("argv", [[], ["report"]], ids=["bare", "report"])
    def test_missing_or_removed_subcommand_exits_two(self, argv, capsys):
        # Traced suite runs are `repro.bench --trace`; this CLI only
        # records and converts.
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "usage:" in capsys.readouterr().err


class TestRecordAndConvert:
    def test_record_then_convert_round_trips(self, tmp_path, capsys):
        jsonl = tmp_path / "run.jsonl"
        assert main(["record",
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
        assert main(["record",
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
