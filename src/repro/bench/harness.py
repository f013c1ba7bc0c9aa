"""The counter-identity harness.

``run_bench`` solves a pinned, seeded workload suite under the six
Table-4 experiment configurations through the shared measurement
primitive (:func:`repro.bench.measure.measure_system`) and returns a
schema-versioned :class:`BenchReport` of the deterministic
``SolverStats`` counters per (benchmark, experiment).  The counters are
exact oracles, reproducible across machines when ``PYTHONHASHSEED`` is
pinned (the CLI pins it to ``0``).  Every pair is solved ``repeats``
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
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..errors import ReproError
from ..experiments.config import EXPERIMENT_LABELS, options_for
from ..resilience.budget import SolveBudget
from ..resilience.errors import BudgetExceededError
from ..workloads import select_benchmarks
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
    hash_seed: str = field(
        default_factory=lambda: os.environ.get("PYTHONHASHSEED", "random")
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
            "hash_seed": self.hash_seed,
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
            hash_seed=str(payload.get("hash_seed", "random")),
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
    completed (benchmark, experiment) pair.

    ``trace_dir`` attaches a bounded-memory telemetry sink
    (:class:`repro.metrics.sink.MetricsSink`) to every run and
    writes ``trace_summary.json`` (per-run distributions and phase
    times) plus ``trace_spans.json`` (a Chrome/Perfetto view of the
    phase spans) into that directory.  Sinks observe without steering,
    so every deterministic counter in the returned report is identical
    to an untraced run.

    ``timeout_seconds`` bounds the *whole suite run* by wall clock: the
    remaining allowance is wired into each solve as a
    :class:`~repro.resilience.budget.SolveBudget` deadline, so even a
    single hung closure cannot stall the job — it raises
    :class:`BenchTimeoutError` (as does starting a run after the
    deadline has passed).  Deterministic counters are unaffected by the
    budget machinery.

    ``metrics_dir`` points every run's
    :class:`~repro.metrics.sink.MetricsSink` (labeled with the suite,
    benchmark, form and mode of the run, so the trace summary still
    counts one run) at one fresh
    :class:`~repro.metrics.registry.MetricsRegistry` and writes
    ``metrics.json`` (a loadable snapshot) and ``metrics.prom``
    (Prometheus text exposition) into that directory after the suite
    completes.  The same observe-don't-steer contract applies: counters
    in the report are unchanged.

    ``jobs > 1`` shards the (benchmark, experiment) pairs across a
    :mod:`repro.parallel` worker pool (``jobs <= 0`` means one worker
    per core).  The report is identical to a serial run's — results
    merge in task submission order and every worker pins
    ``PYTHONHASHSEED``.  ``timeout_seconds``
    then bounds the whole run *and* each individual solve (crashed or
    hung workers are retried once, then reported); trace and metrics
    artifacts are merged across workers in the same task order.
    """
    if jobs != 1:
        return _run_bench_parallel(
            suite_name=suite_name,
            experiments=experiments,
            seed=seed,
            repeats=repeats,
            benchmarks=benchmarks,
            progress=progress,
            trace_dir=trace_dir,
            timeout_seconds=timeout_seconds,
            metrics_dir=metrics_dir,
            jobs=jobs,
        )
    deadline = (
        None if timeout_seconds is None
        else time.perf_counter() + timeout_seconds
    )
    labels = list(experiments) if experiments else list(EXPERIMENT_LABELS)
    selected = select_benchmarks(suite_name, benchmarks)
    metrics_registry = None
    if metrics_dir is not None:
        from ..metrics.registry import MetricsRegistry

        metrics_registry = MetricsRegistry()
    telemetry: List[tuple] = []
    records: List[BenchRecord] = []
    for bench in selected:
        system = bench.program.system  # build outside the timed region
        for label in labels:
            options = options_for(label, seed=seed)
            if deadline is not None:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    raise BenchTimeoutError(
                        f"suite {suite_name!r} exceeded its "
                        f"{timeout_seconds:.0f}s timeout before "
                        f"{bench.name}/{label}",
                        completed=len(records),
                    )
                options = options.replace(
                    budget=SolveBudget(deadline_seconds=remaining)
                )
            sink = None
            if trace_dir is not None or metrics_registry is not None:
                from ..metrics.registry import MetricsRegistry
                from ..metrics.sink import MetricsSink

                # Without --metrics the sink gets a private registry
                # that only its trace summary reads.
                sink = MetricsSink.for_options(
                    options,
                    registry=(metrics_registry if metrics_registry
                              is not None else MetricsRegistry()),
                    suite=suite_name,
                    benchmark=bench.name,
                    label=f"{bench.name}/{label}",
                )
                options = options.replace(sink=sink)
            try:
                measured = measure_system(system, options, repeats=repeats)
            except BudgetExceededError as error:
                raise BenchTimeoutError(
                    f"suite {suite_name!r} exceeded its "
                    f"{timeout_seconds:.0f}s timeout inside "
                    f"{bench.name}/{label}: {error}",
                    completed=len(records),
                ) from error
            if trace_dir is not None:
                telemetry.append(
                    (bench.name, label, sink.summary(), sink.spans)
                )
            records.append(
                BenchRecord(bench.name, label, measured.counters)
            )
            if progress is not None:
                progress(_progress_line(bench.name, label,
                                        measured.counters))
    report = BenchReport(
        suite=suite_name,
        seed=seed,
        repeats=repeats,
        experiments=labels,
        records=records,
    )
    if trace_dir is not None:
        _write_trace_outputs(report, telemetry, trace_dir)
    if metrics_registry is not None and metrics_dir is not None:
        _write_metrics_outputs(report, metrics_registry, metrics_dir)
    return report


def _run_bench_parallel(
    suite_name: str,
    experiments: Optional[Iterable[str]],
    seed: int,
    repeats: int,
    benchmarks: Optional[Iterable[str]],
    progress: Optional[Callable[[str], None]],
    trace_dir: Optional[str],
    timeout_seconds: Optional[float],
    metrics_dir: Optional[str],
    jobs: int,
) -> BenchReport:
    """The ``jobs != 1`` harness path: shard pairs over a worker pool.

    One task per (benchmark, experiment) pair, merged back in task
    submission order — the serial loop's order — so the report's
    deterministic fields cannot depend on worker scheduling.
    """
    from ..parallel.pool import TaskSpec, run_tasks
    from ..parallel.tasks import bench_task

    labels = list(experiments) if experiments else list(EXPERIMENT_LABELS)
    selected = select_benchmarks(suite_name, benchmarks)
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
                "budget_seconds": timeout_seconds,
            },
            timeout=timeout_seconds,
        )
        for bench in selected
        for label in labels
    ]

    def report_progress(result) -> None:
        if progress is None:
            return
        if result.ok and result.value.get("status") == "ok":
            name, label = result.key.split("/", 1)
            progress(_progress_line(name, label, result.value["counters"]))
        else:
            progress(f"{result.key}: FAILED ({result.kind})")

    results = run_tasks(
        bench_task,
        tasks,
        jobs=jobs,
        retries=1,
        progress=report_progress,
        overall_timeout=timeout_seconds,
    )
    completed = sum(
        1 for result in results
        if result.ok and result.value.get("status") == "ok"
    )
    timeouts = [
        result for result in results
        if (result.ok and result.value.get("status") == "timeout")
        or (not result.ok and result.kind == "timeout")
    ]
    if timeouts:
        first = timeouts[0]
        detail = (
            first.value["detail"] if first.ok else first.error
        )
        raise BenchTimeoutError(
            f"suite {suite_name!r} exceeded its "
            f"{timeout_seconds:.0f}s timeout inside {first.key}: "
            f"{detail}",
            completed=completed,
        )
    from ..parallel.pool import require_ok

    require_ok(results)

    records = []
    telemetry: List[tuple] = []
    metrics_snapshots: List[dict] = []
    for spec, result in zip(tasks, results):
        value = result.value
        name = spec.payload["benchmark"]
        label = spec.payload["experiment"]
        records.append(
            BenchRecord(
                benchmark=name,
                experiment=label,
                counters={
                    key: int(count)
                    for key, count in value["counters"].items()
                },
            )
        )
        if value.get("telemetry") is not None:
            telemetry.append((
                name,
                label,
                value["telemetry"]["summary"],
                value["telemetry"]["spans"],
            ))
        if value.get("metrics") is not None:
            metrics_snapshots.append(value["metrics"])
    report = BenchReport(
        suite=suite_name,
        seed=seed,
        repeats=repeats,
        experiments=labels,
        records=records,
    )
    if trace_dir is not None:
        _write_trace_outputs(report, telemetry, trace_dir)
    if metrics_dir is not None:
        from ..parallel.merge import merge_metrics_snapshots

        registry = merge_metrics_snapshots(metrics_snapshots)
        _write_metrics_outputs(report, registry, metrics_dir)
    return report


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
    tuples — already-serialized sink state, so the same writer serves
    the serial path (live sinks, drained in place) and the parallel
    path (sink state shipped back from workers over a pipe).  Span
    times are ``perf_counter`` readings, which on this platform are
    CLOCK_MONOTONIC and therefore comparable across processes.
    """
    import json

    from ..trace.chrome import runs_to_chrome, write_chrome

    os.makedirs(trace_dir, exist_ok=True)
    summary = {
        "suite": report.suite,
        "seed": report.seed,
        "repeats": report.repeats,
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


def render_report(report: BenchReport) -> str:
    """A compact human-readable table of one report."""
    lines = [
        f"suite={report.suite} seed={report.seed} repeats={report.repeats} "
        f"python={report.python_version} hash_seed={report.hash_seed}",
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
