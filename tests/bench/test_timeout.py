"""Wall-clock timeout for the benchmark harness (``--timeout``)."""

import pytest

from repro.bench.harness import BenchTimeoutError, run_bench
from repro.bench.__main__ import main
from repro.errors import ReproError


class TestTimeoutSemantics:
    def test_tiny_timeout_raises(self):
        with pytest.raises(BenchTimeoutError) as excinfo:
            run_bench(
                suite_name="quick",
                experiments=["SF-Plain"],
                repeats=1,
                benchmarks=["allroots"],
                timeout_seconds=1e-9,
            )
        # Nothing (or almost nothing) completed before the deadline.
        assert excinfo.value.completed == 0

    def test_error_is_a_repro_error(self):
        assert issubclass(BenchTimeoutError, ReproError)

    def test_generous_timeout_counters_unchanged(self):
        """The deadline budget observes; it must not steer the solve."""
        kwargs = dict(
            suite_name="quick",
            experiments=["SF-Plain", "IF-Online"],
            repeats=1,
            benchmarks=["allroots"],
        )
        plain = run_bench(**kwargs)
        timed = run_bench(timeout_seconds=600.0, **kwargs)
        assert [r.counters for r in timed.records] == [
            r.counters for r in plain.records
        ]


class TestCli:
    def test_timeout_exit_code(self, capsys):
        code = main([
            "--suite", "quick",
            "--experiments", "SF-Plain",
            "--repeats", "1",
            "--no-pin-hashseed",
            "--timeout", "0.000001",
        ])
        assert code == 3
        assert "timeout" in capsys.readouterr().err.lower()
