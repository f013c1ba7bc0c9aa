"""The worker pool's supervision contract.

Every worker function here is module-level (picklable under any start
method).  Crash and retry behaviors are driven through marker files in
a temp directory: a worker that must "crash once" dies with
``os._exit`` on its first attempt and succeeds once the marker exists,
which exercises the real process-death path rather than a simulation.
"""

import os
import time

import pytest

from repro.parallel import (
    ParallelError,
    TaskSpec,
    map_tasks,
    require_ok,
    run_tasks,
)


def double(payload):
    return payload * 2


def sleepy(payload):
    time.sleep(payload)
    return "woke"


def raiser(payload):
    raise ValueError(f"deterministic failure on {payload!r}")


def crash_once(marker_path):
    if not os.path.exists(marker_path):
        with open(marker_path, "w", encoding="utf-8") as handle:
            handle.write("attempted\n")
        os._exit(17)  # hard death: no result message, nonzero exit
    return "recovered"


def always_crash(payload):
    os._exit(23)


class TestOrderingAndValues:
    def test_results_in_submission_order(self):
        tasks = [TaskSpec(key=str(n), payload=n) for n in range(7)]
        results = run_tasks(double, tasks, jobs=3)
        assert [r.key for r in results] == [str(n) for n in range(7)]
        assert [r.value for r in results] == [n * 2 for n in range(7)]
        assert all(r.ok and r.kind is None for r in results)

    def test_require_ok_passes_through(self):
        results = run_tasks(double, [TaskSpec("a", 1)], jobs=1)
        assert require_ok(results) == results

    def test_jobs_zero_means_auto(self):
        results = run_tasks(double, [TaskSpec("a", 21)], jobs=0)
        assert results[0].value == 42


class TestFailureSemantics:
    def test_worker_exception_fails_without_retry(self):
        results = run_tasks(raiser, [TaskSpec("bad", "x")], jobs=1,
                            retries=3)
        (result,) = results
        assert not result.ok
        assert result.kind == "exception"
        assert result.attempts == 1, "deterministic failures never retry"
        assert "ValueError: deterministic failure" in result.error

    def test_crash_is_retried_and_recovers(self, tmp_path):
        marker = str(tmp_path / "crashed-once")
        results = run_tasks(
            crash_once, [TaskSpec("flaky", marker)], jobs=1, retries=1,
        )
        (result,) = results
        assert result.ok
        assert result.value == "recovered"
        assert result.attempts == 2

    def test_persistent_crash_fails_with_cause(self):
        results = run_tasks(
            always_crash, [TaskSpec("doomed", None)], jobs=1, retries=2,
        )
        (result,) = results
        assert not result.ok
        assert result.kind == "crash"
        assert result.attempts == 3  # initial + 2 retries
        assert "exit code 23" in result.error

    def test_require_ok_raises_with_cause(self):
        results = run_tasks(raiser, [TaskSpec("bad", "x")], jobs=1)
        with pytest.raises(ParallelError) as excinfo:
            require_ok(results)
        assert "bad [exception" in str(excinfo.value)

    def test_failure_does_not_poison_other_tasks(self, tmp_path):
        tasks = [
            TaskSpec("ok-1", 1),
            TaskSpec("dead", None),
            TaskSpec("ok-2", 2),
        ]
        results = run_tasks(mixed_worker, tasks, jobs=2, retries=0)
        # The message names each result's failure, should one appear.
        outcomes = [(r.key, r.kind, r.error) for r in results]
        assert [r.ok for r in results] == [True, False, True], outcomes
        assert results[0].value == 2 and results[2].value == 4, outcomes


def mixed_worker(payload):
    if payload is None:
        os._exit(9)
    return payload * 2


class TestTimeouts:
    def test_overall_deadline_kills_stragglers(self):
        tasks = [TaskSpec("hang", 30), TaskSpec("quick", 0)]
        started = time.monotonic()
        results = run_tasks(
            sleepy, tasks, jobs=2, overall_timeout=1.5, retries=0,
        )
        elapsed = time.monotonic() - started
        assert elapsed < 20
        by_key = {r.key: r for r in results}
        assert by_key["quick"].ok and by_key["quick"].value == "woke"
        assert by_key["hang"].kind == "timeout"
        assert "overall deadline" in by_key["hang"].error


def own_pid(payload):
    return os.getpid()


class TestMapTasks:
    """``jobs == 1`` runs inline; any other value goes to the pool."""

    def test_inline_runs_in_this_process_in_order(self):
        seen = []
        results = map_tasks(
            own_pid, [TaskSpec(str(n), n) for n in range(3)],
            progress=seen.append,
        )
        assert [r.value for r in results] == [os.getpid()] * 3
        assert seen == results
        assert all(r.ok for r in results)

    def test_pooled_runs_in_workers_with_same_shape(self):
        results = map_tasks(
            double, [TaskSpec(str(n), n) for n in range(4)], jobs=2,
        )
        assert [r.key for r in results] == ["0", "1", "2", "3"]
        assert [r.value for r in results] == [0, 2, 4, 6]
        (pid,) = map_tasks(own_pid, [TaskSpec("a")], jobs=2)
        assert pid.value != os.getpid()

    def test_inline_exception_propagates(self):
        with pytest.raises(ValueError, match="deterministic failure"):
            map_tasks(raiser, [TaskSpec("a", 1)])


class TestSpawnedWorkers:
    def test_spawned_workers_under_random_seed_match_baseline(
        self, monkeypatch, baseline_counters
    ):
        """Spawned children start fresh interpreters with their own
        random hash seeds and still reproduce the committed counters."""
        from repro.bench.harness import run_bench
        from repro.parallel import pool

        monkeypatch.setattr(pool, "_default_start_method", lambda: "spawn")
        monkeypatch.setenv("PYTHONHASHSEED", "random")
        labels = ["SF-Online", "IF-Online"]
        report = run_bench("quick", experiments=labels, jobs=2)
        assert {
            (record.benchmark, record.experiment): record.counters
            for record in report.records
        } == {
            key: counters for key, counters in baseline_counters.items()
            if key[1] in labels
        }
