"""Exit-code contract of ``python -m repro.bench``.

The tests call ``main`` in-process with a one-experiment slice of the
quick suite to stay fast.
"""

import json

from repro.bench.__main__ import main

FAST = ["--experiments", "SF-Plain", "--repeats", "1"]


def run_cli(*extra):
    return main([*FAST, *extra])


def doctored_baseline(tmp_path, counter, delta):
    """A fresh baseline with ``counter`` of its first record moved by
    ``delta``; returns the path and the doctored pair's name."""
    baseline = tmp_path / "BASELINE.json"
    assert run_cli("--write-baseline", str(baseline)) == 0
    payload = json.loads(baseline.read_text(encoding="utf-8"))
    record = payload["records"][0]
    record["counters"][counter] += delta
    baseline.write_text(json.dumps(payload), encoding="utf-8")
    return str(baseline), f"{record['benchmark']}/{record['experiment']}"


class TestCli:
    def test_matching_baseline_exits_zero(self, tmp_path):
        baseline = tmp_path / "BASELINE.json"
        assert run_cli("--write-baseline", str(baseline)) == 0
        payload = json.loads(baseline.read_text(encoding="utf-8"))
        for record in payload["records"]:
            assert set(record) == {"benchmark", "experiment", "counters"}
        assert run_cli("--baseline", str(baseline)) == 0

    def test_doctored_baseline_exits_one(self, tmp_path, capsys):
        baseline, _ = doctored_baseline(tmp_path, "work", -1)
        assert run_cli("--baseline", baseline) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_raised_final_edges_exits_one(self, tmp_path, capsys):
        # Not only work: every counter is part of the identity.
        baseline, pair = doctored_baseline(tmp_path, "final_edges", 1)
        capsys.readouterr()
        assert run_cli("--baseline", baseline) == 1
        assert f"REGRESSION {pair} final_edges:" in capsys.readouterr().out

    def test_run_below_baseline_work_exits_one(self, tmp_path, capsys):
        # Less work than the baseline is drift too, not a pass.
        baseline, pair = doctored_baseline(tmp_path, "work", 1)
        capsys.readouterr()
        assert run_cli("--baseline", baseline) == 1
        assert f"REGRESSION {pair} work:" in capsys.readouterr().out

    def test_baseline_pair_missing_from_run_exits_one(self, tmp_path,
                                                      capsys):
        baseline = tmp_path / "BASELINE.json"
        assert run_cli("--write-baseline", str(baseline)) == 0
        payload = json.loads(baseline.read_text(encoding="utf-8"))
        extra = dict(payload["records"][0], experiment="IF-Plain")
        payload["records"].append(extra)
        baseline.write_text(json.dumps(payload), encoding="utf-8")
        capsys.readouterr()
        assert run_cli("--baseline", str(baseline)) == 1
        assert f"MISSING    {extra['benchmark']}/IF-Plain" \
            in capsys.readouterr().out

    def test_missing_baseline_exits_two(self, tmp_path, capsys):
        absent = tmp_path / "nope.json"
        assert run_cli("--baseline", str(absent)) == 2
        assert "baseline compare failed" in capsys.readouterr().err

    def test_incomparable_baseline_exits_two(self, tmp_path):
        baseline = tmp_path / "BASELINE.json"
        assert run_cli("--write-baseline", str(baseline)) == 0
        payload = json.loads(baseline.read_text(encoding="utf-8"))
        payload["seed"] = 12345
        baseline.write_text(json.dumps(payload), encoding="utf-8")
        assert run_cli("--baseline", str(baseline)) == 2

    def test_metrics_flag_writes_snapshot_and_exposition(
            self, tmp_path, capsys):
        metrics_dir = tmp_path / "metrics-out"
        assert run_cli("--metrics", str(metrics_dir)) == 0
        assert "wrote metrics artifacts" in capsys.readouterr().out

        from repro.metrics import MetricsRegistry, validate_exposition

        snapshot = json.loads(
            (metrics_dir / "metrics.json").read_text(encoding="utf-8")
        )
        assert snapshot["meta"] == {"suite": "quick", "seed": 0,
                                    "repeats": 1}
        registry = MetricsRegistry()
        registry.load_snapshot(snapshot)
        assert registry.collect()
        exposition = (metrics_dir / "metrics.prom").read_text(
            encoding="utf-8"
        )
        assert validate_exposition(exposition) == []
        assert "repro_solver_edges_total" in exposition

    def test_unknown_experiment_label_exits_two(self, capsys):
        assert main(["--experiments", "NOT-A-LABEL"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_unknown_label_is_one_error_line_under_any_jobs(self, capsys):
        """The label is checked before any pair runs, so a sharded run
        fails like a serial one instead of once per worker."""
        outputs = []
        for jobs in ("1", "2"):
            code = main(["--repeats", "1",
                         "--experiments", "SF-Bogus", "--jobs", jobs])
            captured = capsys.readouterr()
            assert code == 2
            outputs.append((captured.out, captured.err))
        serial, sharded = outputs
        assert sharded == serial
        assert serial[0] == ""
        assert serial[1].startswith("error: unknown experiment 'SF-Bogus'")
        assert serial[1].count("\n") == 1
