"""Traced suite runs and the summary report.

:func:`trace_suite` solves a workload suite with a
:class:`~repro.metrics.sink.MetricsSink` (on its own registry) attached
to every run and assembles a :class:`TraceReport` that answers the
paper's per-operation questions directly from live telemetry:

* the **empirical mean partial-search visit count** per experiment —
  the quantity Theorem 5.2 bounds at ≈2.2 nodes for sparse graphs;
* the **per-representation online detection rate** — variables
  eliminated online over variables in non-trivial SCCs of the final
  graph, Figure 11's IF ≈ 80 % vs SF ≈ 40 % split;
* visit-depth / cycle-length / fan-out distributions and per-phase
  wall-time totals, with the raw spans exportable as a Chrome/Perfetto
  trace.

The report rides on :class:`repro.experiments.runner.SuiteResults`
(``sink_factory`` hook), so traced runs take the exact measurement path
the tables, figures, and regression baselines use — attaching the sink
cannot change any deterministic counter.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..experiments.config import options_for
from ..experiments.runner import RunRecord, SuiteResults
from ..graph.stats import SolverStats
from ..metrics.registry import MetricsRegistry
from ..metrics.sink import MetricsSink
from ..workloads import select_benchmarks
from .chrome import runs_to_chrome

#: Experiments traced by default: the two online configurations, whose
#: search/elimination behaviour is what the subsystem exists to observe.
DEFAULT_EXPERIMENTS = ("SF-Online", "IF-Online")

#: Paper reference points quoted in the rendered report.
PAPER_MEAN_VISITS = 2.2
PAPER_DETECTION = {"IF-Online": 0.80, "SF-Online": 0.40}


class TracedRun:
    """One (benchmark, experiment) run: counters plus telemetry."""

    def __init__(self, benchmark: str, experiment: str,
                 record: RunRecord, stats: SolverStats,
                 telemetry: MetricsSink) -> None:
        self.benchmark = benchmark
        self.experiment = experiment
        self.record = record
        self.stats = stats
        self.telemetry = telemetry

    def to_dict(self) -> dict:
        return {
            "benchmark": self.benchmark,
            "experiment": self.experiment,
            "counters": self.stats.as_dict(),
            "telemetry": self.telemetry.summary(),
        }


class TraceReport:
    """Aggregated telemetry over one traced suite run."""

    def __init__(self, suite_name: str, seed: int,
                 experiments: Tuple[str, ...]) -> None:
        self.suite = suite_name
        self.seed = seed
        self.experiments = experiments
        self.runs: List[TracedRun] = []
        #: benchmark -> variables in non-trivial final-graph SCCs
        #: (Figure 11's denominator, from an SF-Plain recorded run)
        self.scc_vars: Dict[str, int] = {}

    # -- aggregates -----------------------------------------------------
    def runs_for(self, experiment: str) -> List[TracedRun]:
        return [run for run in self.runs if run.experiment == experiment]

    def mean_search_visits(self, experiment: str) -> float:
        """Suite-wide empirical mean visits per partial search."""
        visits = searches = 0
        for run in self.runs_for(experiment):
            visits += run.stats.cycle_search_visits
            searches += run.stats.cycle_searches
        return visits / searches if searches else 0.0

    def detection_rate(self, experiment: str) -> float:
        """Mean per-benchmark Figure-11 fraction (cycle vars found)."""
        fractions = []
        for run in self.runs_for(experiment):
            denominator = self.scc_vars.get(run.benchmark, 0)
            if denominator:
                fractions.append(
                    run.stats.vars_eliminated / denominator
                )
        return sum(fractions) / len(fractions) if fractions else 0.0

    def merged_telemetry(self, experiment: str) -> MetricsSink:
        merged = MetricsSink(MetricsRegistry(), label=experiment)
        for run in self.runs_for(experiment):
            merged.merge(run.telemetry)
        return merged

    # -- export ---------------------------------------------------------
    def chrome_trace(self) -> dict:
        """All runs' phase spans on one timeline, one track per run."""
        return runs_to_chrome(
            [(run.benchmark, run.experiment, run.telemetry.spans)
             for run in self.runs],
            process_name=f"repro.trace suite={self.suite}",
            other_data={"suite": self.suite, "seed": self.seed},
        )

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "experiments": list(self.experiments),
            "scc_vars": dict(sorted(self.scc_vars.items())),
            "aggregates": {
                experiment: {
                    "mean_search_visits":
                        self.mean_search_visits(experiment),
                    "detection_rate": self.detection_rate(experiment),
                }
                for experiment in self.experiments
            },
            "runs": [run.to_dict() for run in self.runs],
        }

    # -- rendering ------------------------------------------------------
    def render(self) -> str:
        lines = [
            f"trace report: suite={self.suite} seed={self.seed} "
            f"experiments={','.join(self.experiments)}",
            "",
            f"{'benchmark':<14} {'experiment':<10} {'searches':>9} "
            f"{'visits/search':>13} {'hit%':>6} {'elim':>6} "
            f"{'detect%':>8}",
        ]
        for run in self.runs:
            stats = run.stats
            denominator = self.scc_vars.get(run.benchmark, 0)
            detect = (
                f"{stats.vars_eliminated / denominator:7.0%}"
                if denominator else "      -"
            )
            lines.append(
                f"{run.benchmark:<14} {run.experiment:<10} "
                f"{stats.cycle_searches:>9} "
                f"{stats.mean_search_visits:>13.2f} "
                f"{stats.detection_rate:>6.0%} "
                f"{stats.vars_eliminated:>6} {detect:>8}"
            )
        lines.append("")
        for experiment in self.experiments:
            mean_visits = self.mean_search_visits(experiment)
            detection = self.detection_rate(experiment)
            reference = PAPER_DETECTION.get(experiment)
            reference_text = (
                f" (paper ≈{reference:.0%})" if reference else ""
            )
            lines.append(
                f"{experiment}: mean partial-search visits "
                f"{mean_visits:.2f} (paper ≈{PAPER_MEAN_VISITS}), "
                f"cycle-variable detection {detection:.0%}"
                f"{reference_text}"
            )
            telemetry = self.merged_telemetry(experiment)
            lines.append(
                "  visit depth: "
                + _histogram_line(telemetry.search_visits)
            )
            lines.append(
                "  cycle length: "
                + _histogram_line(telemetry.cycle_lengths)
            )
            lines.append(
                "  var fan-out:  "
                + _histogram_line(telemetry.fanout_histogram())
            )
            phase_totals = ", ".join(
                f"{name}={seconds * 1000:.1f}ms"
                for name, seconds in telemetry.phase_seconds().items()
            )
            lines.append(f"  phases: {phase_totals or '-'}")
        if len(self.experiments) >= 2:
            if_rate = self.detection_rate("IF-Online")
            sf_rate = self.detection_rate("SF-Online")
            if sf_rate:
                lines.append(
                    f"IF/SF detection ratio: {if_rate / sf_rate:.2f} "
                    f"(paper ≈2.0)"
                )
        return "\n".join(lines)


def _histogram_line(histogram) -> str:
    if histogram.count == 0:
        return "(empty)"
    buckets = " ".join(
        (f"[{lo}]={count}" if lo == hi else f"[{lo}-{hi}]={count}")
        for lo, hi, count in histogram.bucket_rows()
    )
    return (
        f"n={histogram.count} mean={histogram.mean:.2f} "
        f"min={histogram.min} max={histogram.max} {buckets}"
    )


def trace_suite(
    suite_name: str = "medium",
    experiments: Iterable[str] = DEFAULT_EXPERIMENTS,
    seed: int = 0,
    benchmarks: Optional[Iterable[str]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> TraceReport:
    """Run ``experiments`` over a suite with telemetry sinks attached."""
    experiments = tuple(experiments)
    sinks: Dict[Tuple[str, str], MetricsSink] = {}

    def sink_factory(benchmark: str, experiment: str) -> MetricsSink:
        # A registry per run: each run's summary counts only its own
        # events.
        sink = MetricsSink.for_options(
            options_for(experiment, seed=seed),
            MetricsRegistry(),
            suite=suite_name,
            benchmark=benchmark,
            label=f"{benchmark}/{experiment}",
        )
        sinks[(benchmark, experiment)] = sink
        return sink

    results = SuiteResults(
        select_benchmarks(suite_name, benchmarks),
        seed=seed,
        sink_factory=sink_factory,
    )
    report = TraceReport(suite_name, seed, experiments)
    for bench in results.benchmarks:
        # Figure 11's denominator: final-graph SCC variables, computed
        # by SuiteResults.statistics from an SF-Plain recorded run.
        report.scc_vars[bench.name] = results.statistics(
            bench.name
        ).final_scc_vars
        for experiment in experiments:
            record = results.run(bench.name, experiment)
            solution = results.solution(bench.name, experiment)
            run = TracedRun(
                benchmark=bench.name,
                experiment=experiment,
                record=record,
                stats=solution.stats,
                telemetry=sinks[(bench.name, experiment)],
            )
            report.runs.append(run)
            if progress is not None:
                progress(
                    f"{bench.name:<14} {experiment:<10} "
                    f"searches={solution.stats.cycle_searches:>8} "
                    f"visits/search="
                    f"{solution.stats.mean_search_visits:6.2f}"
                )
    return report
