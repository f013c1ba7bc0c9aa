"""Experiment runner: one place that solves benchmarks under configs.

``SuiteResults`` memoizes every (benchmark, experiment) run and the
per-benchmark static statistics, so the table and figure generators can
share work.  Timing follows the paper's conventions: reported time is
the solver's closure time plus (for IF) the least-solution computation;
oracle runs charge only phase 2 (perfect *zero-cost* elimination).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Tuple

from ..bench.measure import measure_system
from ..constraints.errors import ConstraintDiagnostic
from ..constraints.resolution import (
    SOURCE_VAR,
    VAR_SINK,
    VAR_VAR,
    decompose,
)
from ..graph.scc import SccSummary, summarize_sccs
from ..solver import Solution
from ..workloads import Benchmark, suite
from .config import EXPERIMENT_LABELS, options_for

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..graph.stats import SolverStats


@dataclass(frozen=True)
class RunRecord:
    """Measurements from solving one benchmark under one experiment."""

    benchmark: str
    experiment: str
    work: int
    final_edges: int
    closure_seconds: float
    least_solution_seconds: float
    vars_eliminated: int
    cycles_found: int
    mean_search_visits: float
    clashes: int

    @classmethod
    def from_stats(cls, benchmark: str, experiment: str,
                   stats: "SolverStats") -> "RunRecord":
        """The record of one run, read off its solver counters."""
        return cls(
            benchmark=benchmark,
            experiment=experiment,
            work=stats.work,
            final_edges=stats.final_edges,
            closure_seconds=stats.closure_seconds,
            least_solution_seconds=stats.least_solution_seconds,
            vars_eliminated=stats.vars_eliminated,
            cycles_found=stats.cycles_found,
            mean_search_visits=stats.mean_search_visits,
            clashes=stats.clashes,
        )

    @property
    def total_seconds(self) -> float:
        return self.closure_seconds + self.least_solution_seconds


@dataclass(frozen=True)
class BenchmarkStats:
    """The static, configuration-independent data of Table 1."""

    name: str
    ast_nodes: int
    lines: int
    set_vars: int
    initial_nodes: int
    initial_edges: int
    initial_scc_vars: int
    initial_scc_max: int
    final_scc_vars: int
    final_scc_max: int


def initial_graph_statistics(benchmark: Benchmark
                             ) -> Tuple[int, int, SccSummary]:
    """Nodes, edges, and SCC summary of the *initial* constraint graph.

    The initial graph is the system's constraints decomposed to atomic
    form, before any closure.
    """
    system = benchmark.program.system
    atoms: List[tuple] = []
    diagnostics: List[ConstraintDiagnostic] = []
    for left, right in system.constraints:
        decompose(left, right, atoms, diagnostics)
    var_var = set()
    source_terms = set()
    sink_terms = set()
    edge_count = 0
    for tag, a, b in atoms:
        edge_count += 1
        if tag == VAR_VAR:
            var_var.add((a.index, b.index))
        elif tag == SOURCE_VAR:
            source_terms.add(a)
        elif tag == VAR_SINK:
            sink_terms.add(b)
    nodes = system.num_vars + len(source_terms) + len(sink_terms)
    scc = summarize_sccs(range(system.num_vars), var_var)
    return nodes, edge_count, scc


class SuiteResults:
    """Runs and caches all experiments over one benchmark suite."""

    def __init__(self, benchmarks: Iterable[Benchmark], seed: int = 0,
                 repeats: int = 1) -> None:
        self.benchmarks: List[Benchmark] = list(benchmarks)
        self.seed = seed
        #: best-of-N timing, like the paper's best-of-three CPU times
        self.repeats = max(1, repeats)
        self._records: Dict[Tuple[str, str], RunRecord] = {}
        # Solutions hold whole constraint graphs; keeping all of them
        # alive would distort timing through garbage-collector pressure
        # on large suites, so only the most recent few are retained.
        self._solutions: "OrderedDict[Tuple[str, str], Solution]" = (
            OrderedDict()
        )
        self._solution_cache_size = 8
        self._stats: Dict[str, BenchmarkStats] = {}

    @classmethod
    def for_suite(cls, which: str = "medium", seed: int = 0,
                  repeats: int = 1) -> "SuiteResults":
        return cls(suite(which), seed=seed, repeats=repeats)

    # ------------------------------------------------------------------
    def benchmark(self, name: str) -> Benchmark:
        for bench in self.benchmarks:
            if bench.name == name:
                return bench
        raise KeyError(name)

    def run(self, benchmark_name: str, experiment: str) -> RunRecord:
        """Solve (cached) one benchmark under one Table 4 experiment."""
        key = (benchmark_name, experiment)
        record = self._records.get(key)
        if record is None:
            record = self._execute(benchmark_name, experiment)
            self._records[key] = record
        return record

    def solution(self, benchmark_name: str, experiment: str) -> Solution:
        key = (benchmark_name, experiment)
        cached = self._solutions.get(key)
        if cached is not None:
            self._solutions.move_to_end(key)
            return cached
        self._records.pop(key, None)  # force a re-run to get the object
        self.run(benchmark_name, experiment)
        return self._solutions[key]

    def _execute(self, benchmark_name: str, experiment: str) -> RunRecord:
        bench = self.benchmark(benchmark_name)
        system = bench.program.system
        # One measurement path for tables/figures and the regression
        # harness alike (see repro.bench.measure); best-of-N timing,
        # like the paper's best-of-three CPU times.
        options = options_for(experiment, seed=self.seed)
        measured = measure_system(system, options, repeats=self.repeats)
        best = measured.solution
        self._solutions[(benchmark_name, experiment)] = best
        self._solutions.move_to_end((benchmark_name, experiment))
        while len(self._solutions) > self._solution_cache_size:
            self._solutions.popitem(last=False)
        return RunRecord.from_stats(benchmark_name, experiment, best.stats)

    def run_all(self, experiments: Iterable[str] = EXPERIMENT_LABELS
                ) -> List[RunRecord]:
        experiments = list(experiments)
        return [
            self.run(bench.name, label)
            for bench in self.benchmarks
            for label in experiments
        ]

    # ------------------------------------------------------------------
    def statistics(self, benchmark_name: str) -> BenchmarkStats:
        """Table 1 data for one benchmark (cached)."""
        stats = self._stats.get(benchmark_name)
        if stats is not None:
            return stats
        bench = self.benchmark(benchmark_name)
        nodes, edges, initial_scc = initial_graph_statistics(bench)
        # Final-graph SCCs come from the (cached) plain run's edges.
        plain = self.solution(benchmark_name, "SF-Plain")
        final_scc = plain.final_scc_summary()
        stats = BenchmarkStats(
            name=bench.name,
            ast_nodes=bench.ast_nodes,
            lines=bench.lines_of_code,
            set_vars=bench.program.system.num_vars,
            initial_nodes=nodes,
            initial_edges=edges,
            initial_scc_vars=initial_scc.vars_in_cycles,
            initial_scc_max=initial_scc.max_scc_size,
            final_scc_vars=final_scc.vars_in_cycles,
            final_scc_max=final_scc.max_scc_size,
        )
        self._stats[benchmark_name] = stats
        return stats

    def all_statistics(self) -> List[BenchmarkStats]:
        return [self.statistics(bench.name) for bench in self.benchmarks]
