"""The counter-identity harness.

``run_bench`` solves a pinned, seeded workload suite under the six
Table-4 experiment configurations through the shared measurement
primitive (:func:`repro.bench.measure.measure_system`) and returns a
schema-versioned :class:`BenchReport` of the deterministic
``SolverStats`` counters per (benchmark, experiment).  The counters are
exact oracles, reproducible across machines and processes under any
hash seed (expressions hash seed-free; see
:mod:`repro.constraints.hashing`).  Every pair is solved ``repeats``
times, and the repeats must agree on every counter
(:class:`~repro.bench.measure.NondeterministicRunError` otherwise).

Wall time is not recorded here; ``perfbench/`` and the bounds in
``BENCHMARK.json`` own timing.  The report serializes through
:mod:`repro.bench.baseline` and diffs against a committed baseline
through :mod:`repro.bench.compare`.
"""

from __future__ import annotations

import os
import platform
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..errors import ReproError
from ..experiments.config import EXPERIMENT_LABELS, TABLE4, options_for
from ..parallel.pool import TaskResult, TaskSpec, map_tasks, require_ok
from ..resilience.budget import SolveBudget
from ..resilience.errors import BudgetExceededError
from ..workloads import benchmark, select_benchmarks
from .measure import measure_system

#: Format version of the serialized report; bump on breaking changes.
#: v3 records carry counters only; v1 and v2 also stored wall times
#: (and v2 commit/time provenance stamps), which the loader ignores.
SCHEMA_VERSION = 3

#: The default workload: small, seeded, fast enough for CI.
DEFAULT_SUITE = "quick"
DEFAULT_REPEATS = 3


class BenchTimeoutError(ReproError):
    """A harness run exceeded its per-suite wall-clock timeout."""

    def __init__(self, message: str, completed: int = 0) -> None:
        super().__init__(message)
        #: (benchmark, experiment) pairs finished before the timeout
        self.completed = completed


@dataclass
class BenchRecord:
    """The counters of one benchmark under one experiment."""

    benchmark: str
    experiment: str
    counters: Dict[str, int]

    @property
    def work(self) -> int:
        return self.counters["work"]

    def to_dict(self) -> dict:
        return {
            "benchmark": self.benchmark,
            "experiment": self.experiment,
            "counters": dict(self.counters),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "BenchRecord":
        return cls(
            benchmark=payload["benchmark"],
            experiment=payload["experiment"],
            counters={k: int(v) for k, v in payload["counters"].items()},
        )


@dataclass
class BenchReport:
    """One full harness run over a suite, ready to serialize."""

    suite: str
    seed: int
    repeats: int
    experiments: List[str]
    records: List[BenchRecord]
    schema_version: int = SCHEMA_VERSION
    python_version: str = field(
        default_factory=lambda: platform.python_version()
    )

    def key(self) -> Dict[Tuple[str, str], BenchRecord]:
        return {
            (record.benchmark, record.experiment): record
            for record in self.records
        }

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "suite": self.suite,
            "seed": self.seed,
            "repeats": self.repeats,
            "experiments": list(self.experiments),
            "python_version": self.python_version,
            "records": [record.to_dict() for record in self.records],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "BenchReport":
        return cls(
            suite=payload["suite"],
            seed=int(payload["seed"]),
            repeats=int(payload["repeats"]),
            experiments=list(payload["experiments"]),
            records=[
                BenchRecord.from_dict(entry) for entry in payload["records"]
            ],
            schema_version=int(payload["schema_version"]),
            python_version=payload.get("python_version", "unknown"),
        )


def _progress_line(benchmark: str, experiment: str,
                   counters: Dict[str, int]) -> str:
    return f"{benchmark:<14} {experiment:<10} work={counters['work']:>9}"


def run_bench(
    suite_name: str = DEFAULT_SUITE,
    experiments: Optional[Iterable[str]] = None,
    seed: int = 0,
    repeats: int = DEFAULT_REPEATS,
    benchmarks: Optional[Iterable[str]] = None,
    progress: Optional[Callable[[str], None]] = None,
    trace_dir: Optional[str] = None,
    timeout_seconds: Optional[float] = None,
    metrics_dir: Optional[str] = None,
    jobs: int = 1,
) -> BenchReport:
    """Run the harness and return the report.

    ``benchmarks`` optionally restricts the suite to the named entries
    (used by the fast unit tests); ``progress`` receives one line per
    finished (benchmark, experiment) pair.  An unknown experiment label
    or benchmark name raises :class:`KeyError` before any pair runs.

    Every pair is one :func:`bench_task` call.  ``jobs == 1`` calls it
    inline; any other value shards the pairs across a
    :mod:`repro.parallel` worker pool (``jobs <= 0`` means one worker
    per core).  Results are assembled in submission order by the same
    loop either way, so the report and artifacts do not depend on the
    executor.

    ``trace_dir`` attaches a bounded-memory telemetry sink
    (:class:`repro.metrics.sink.MetricsSink`) to every run and
    writes ``trace_summary.json`` (per-run distributions and phase
    times, and per experiment the suite-wide mean partial-search
    visits) plus ``trace_spans.json`` (a Chrome/Perfetto view of the
    phase spans) into that directory.  A sink observes the first of a
    pair's ``repeats`` solves only, so its counts describe one solve.
    Sinks observe without steering, so every deterministic counter in
    the returned report is identical to an untraced run.

    ``timeout_seconds`` bounds the *whole suite run* by wall clock with
    one deadline under either executor: the time left until it is wired
    into each solve as a :class:`~repro.resilience.budget.SolveBudget`
    deadline, a pair reached after it fails without solving, and the
    pool also kills workers still running at it.  Any of these raises
    :class:`BenchTimeoutError`.  Deterministic counters are unaffected
    by the budget machinery.

    ``metrics_dir`` writes ``metrics.json`` (a loadable snapshot) and
    ``metrics.prom`` (Prometheus text exposition) into that directory:
    every run's sink records into a per-run
    :class:`~repro.metrics.registry.MetricsRegistry` labeled with the
    suite, benchmark, form and mode of the run, and the per-run
    snapshots are merged with
    :meth:`~repro.metrics.registry.MetricsRegistry.load_snapshot`.  The
    same observe-don't-steer contract applies: counters in the report
    are unchanged.
    """
    labels = list(experiments) if experiments else list(EXPERIMENT_LABELS)
    for label in labels:
        if label not in TABLE4:
            raise KeyError(
                f"unknown experiment {label!r}; choose from "
                f"{EXPERIMENT_LABELS}"
            )
    selected = select_benchmarks(suite_name, benchmarks)
    deadline = (
        None if timeout_seconds is None
        else time.monotonic() + timeout_seconds
    )
    tasks = [
        TaskSpec(
            key=f"{bench.name}/{label}",
            payload={
                "suite": suite_name,
                "benchmark": bench.name,
                "experiment": label,
                "seed": seed,
                "repeats": repeats,
                "trace": trace_dir is not None,
                "metrics": metrics_dir is not None,
                "deadline": deadline,
            },
        )
        for bench in selected
        for label in labels
    ]

    def report_progress(result: TaskResult) -> None:
        if _status(result) == "ok":
            name, label = result.key.split("/", 1)
            progress(_progress_line(name, label, result.value["counters"]))
        else:
            progress(f"{result.key}: FAILED ({_status(result)})")

    results = map_tasks(
        bench_task,
        tasks,
        jobs=jobs,
        progress=None if progress is None else report_progress,
        overall_timeout=timeout_seconds,
    )
    timeouts = [result for result in results if _status(result) == "timeout"]
    if timeouts:
        first = timeouts[0]
        raise BenchTimeoutError(
            f"suite {suite_name!r} exceeded its "
            f"{timeout_seconds:.0f}s timeout inside {first.key}: "
            f"{first.value['detail'] if first.ok else first.error}",
            completed=sum(_status(result) == "ok" for result in results),
        )
    require_ok(results)

    records: List[BenchRecord] = []
    telemetry: List[tuple] = []
    registry = None
    if metrics_dir is not None:
        from ..metrics.registry import MetricsRegistry

        registry = MetricsRegistry()
    for spec, result in zip(tasks, results):
        value = result.value
        name = spec.payload["benchmark"]
        label = spec.payload["experiment"]
        records.append(BenchRecord(name, label, value["counters"]))
        if trace_dir is not None:
            telemetry.append((
                name,
                label,
                value["telemetry"]["summary"],
                value["telemetry"]["spans"],
            ))
        if registry is not None:
            registry.load_snapshot(value["metrics"])
    report = BenchReport(
        suite=suite_name,
        seed=seed,
        repeats=repeats,
        experiments=labels,
        records=records,
    )
    if trace_dir is not None:
        _write_trace_outputs(report, telemetry, trace_dir)
    if registry is not None:
        _write_metrics_outputs(report, registry, metrics_dir)
    return report


def _status(result: TaskResult) -> str:
    """``"ok"``/``"timeout"`` from :func:`bench_task`, else the pool's
    failure kind."""
    return result.value["status"] if result.ok else result.kind


def bench_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Measure one (benchmark, experiment) pair; the one per-pair worker.

    :func:`run_bench` calls it inline or in a pool worker, so it
    rebuilds its inputs from a small picklable payload: ``suite``
    (label metadata only), ``benchmark`` (a
    :data:`repro.workloads.FULL_SUITE` name), ``experiment`` (Table-4
    label), ``seed``, ``repeats``, ``trace`` / ``metrics`` (bools —
    attach one :class:`~repro.metrics.sink.MetricsSink` on a per-pair
    registry and return its trace summary and spans / its registry
    snapshot) and ``deadline`` (the suite deadline as a
    ``time.monotonic()`` reading, or ``None``; on Linux that clock is
    system-wide, so the reading means the same instant in every
    worker).

    Returns ``{"status": "ok", "counters", "telemetry", "metrics"}``,
    or ``{"status": "timeout", "detail"}`` when the deadline passes
    before or during the solve.
    """
    deadline = payload["deadline"]
    late = {"status": "timeout",
            "detail": "the suite deadline passed before the solve"}
    if deadline is not None and time.monotonic() >= deadline:
        return late  # do not build a benchmark that cannot run
    bench = benchmark(payload["benchmark"])
    system = bench.program.system  # built outside the solve budget
    label = payload["experiment"]
    options = options_for(label, seed=payload["seed"])
    if deadline is not None:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return late
        options = options.replace(
            budget=SolveBudget(deadline_seconds=remaining)
        )
    registry = sink = None
    if payload["trace"] or payload["metrics"]:
        from ..metrics.registry import MetricsRegistry
        from ..metrics.sink import MetricsSink

        registry = MetricsRegistry()
        sink = MetricsSink.for_options(
            options,
            registry=registry,
            suite=payload["suite"],
            benchmark=bench.name,
            label=f"{bench.name}/{label}",
        )
        options = options.replace(sink=sink)
    try:
        measured = measure_system(
            system, options, repeats=payload["repeats"]
        )
    except BudgetExceededError as error:
        return {"status": "timeout", "detail": str(error)}
    return {
        "status": "ok",
        "counters": measured.counters,
        "telemetry": {
            "summary": sink.summary(),
            "spans": list(sink.spans),
        } if payload["trace"] else None,
        "metrics": registry.snapshot() if payload["metrics"] else None,
    }


def _write_metrics_outputs(report: BenchReport, registry,
                           metrics_dir: str) -> None:
    """Write the --metrics artifacts: snapshot JSON + exposition text."""
    os.makedirs(metrics_dir, exist_ok=True)
    registry.flush_to(
        os.path.join(metrics_dir, "metrics.json"),
        meta={
            "suite": report.suite,
            "seed": report.seed,
            "repeats": report.repeats,
        },
    )
    prom_path = os.path.join(metrics_dir, "metrics.prom")
    with open(prom_path, "w", encoding="utf-8") as handle:
        handle.write(registry.expose())


def _write_trace_outputs(report: BenchReport, telemetry: List[tuple],
                         trace_dir: str) -> None:
    """Write the --trace artifacts: telemetry summary + Chrome spans.

    ``telemetry`` holds ``(benchmark, experiment, summary, spans)``
    tuples — sink state returned by :func:`bench_task`, whether it ran
    inline or in a worker.  Span times are ``perf_counter`` readings,
    which on Linux are CLOCK_MONOTONIC and therefore comparable across
    processes.
    """
    import json

    from ..trace.chrome import runs_to_chrome, write_chrome

    os.makedirs(trace_dir, exist_ok=True)
    summary = {
        "suite": report.suite,
        "seed": report.seed,
        "repeats": report.repeats,
        "aggregates": {
            label: {"mean_search_visits": _mean_search_visits(
                report.records, label)}
            for label in report.experiments
        },
        "runs": [
            {"benchmark": name, "experiment": label,
             "telemetry": run_summary}
            for name, label, run_summary, _ in telemetry
        ],
    }
    summary_path = os.path.join(trace_dir, "trace_summary.json")
    with open(summary_path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2)
        handle.write("\n")
    write_chrome(
        runs_to_chrome(
            [(name, label, spans) for name, label, _, spans in telemetry],
            process_name=f"repro.bench suite={report.suite}",
            other_data={"suite": report.suite, "seed": report.seed},
        ),
        os.path.join(trace_dir, "trace_spans.json"),
    )


def _mean_search_visits(records: List[BenchRecord], label: str) -> float:
    """Suite-wide visits per partial search for one experiment, the
    quantity Theorem 5.2 bounds at about 2.2 (0.0 with no searches)."""
    visits = searches = 0
    for record in records:
        if record.experiment == label:
            visits += record.counters["cycle_search_visits"]
            searches += record.counters["cycle_searches"]
    return visits / searches if searches else 0.0


def render_report(report: BenchReport) -> str:
    """A compact human-readable table of one report."""
    lines = [
        f"suite={report.suite} seed={report.seed} repeats={report.repeats} "
        f"python={report.python_version}",
        f"{'benchmark':<14} {'experiment':<10} {'work':>10}",
    ]
    for record in report.records:
        lines.append(
            f"{record.benchmark:<14} {record.experiment:<10} "
            f"{record.work:>10}"
        )
    return "\n".join(lines)


def bench_once(benchmark, func):
    """Run ``func`` exactly once under pytest-benchmark timing.

    The table/figure harnesses time full analysis runs (seconds);
    repeated rounds would multiply the suite cost for no statistical
    benefit — solver timing is tracked by ``perfbench/``, not by
    pytest-benchmark statistics.
    """
    return benchmark.pedantic(func, rounds=1, iterations=1)
