"""Tests for the experiment runner (on the two smallest benchmarks)."""

import pytest

from repro.experiments import (
    EXPERIMENT_LABELS,
    SuiteResults,
    initial_graph_statistics,
)
from repro.workloads import benchmark


@pytest.fixture(scope="module")
def results():
    return SuiteResults([benchmark("allroots"), benchmark("anagram")])


class TestRunCaching:
    def test_record_fields(self, results):
        record = results.run("allroots", "SF-Plain")
        assert record.benchmark == "allroots"
        assert record.experiment == "SF-Plain"
        assert record.work > 0
        assert record.final_edges > 0

    def test_runs_cached(self, results):
        first = results.run("allroots", "IF-Online")
        second = results.run("allroots", "IF-Online")
        assert first is second

    def test_solution_available(self, results):
        solution = results.solution("allroots", "IF-Online")
        assert solution.options.label == "IF-Online"

    def test_unknown_benchmark(self, results):
        with pytest.raises(KeyError):
            results.run("nope", "SF-Plain")

    def test_run_all(self, results):
        records = results.run_all(["SF-Plain", "IF-Online"])
        assert len(records) == 4

    def test_online_eliminates_on_cyclic_benchmarks(self, results):
        record = results.run("anagram", "IF-Online")
        assert record.vars_eliminated > 0


class TestStatistics:
    def test_table1_fields(self, results):
        stats = results.statistics("allroots")
        assert stats.ast_nodes > 100
        assert stats.set_vars > 10
        assert stats.initial_nodes > stats.set_vars
        assert stats.initial_edges > 0

    def test_final_sccs_at_least_initial(self, results):
        stats = results.statistics("anagram")
        assert stats.final_scc_vars >= stats.initial_scc_vars

    def test_cached(self, results):
        assert results.statistics("allroots") is results.statistics(
            "allroots"
        )

    def test_statistics_reuse_the_plain_run(self, monkeypatch):
        from repro.solver import SolverEngine

        solves = []
        real_run = SolverEngine.run

        def counting_run(engine, *args, **kwargs):
            solves.append(engine.options.label)
            return real_run(engine, *args, **kwargs)

        monkeypatch.setattr(SolverEngine, "run", counting_run)
        fresh = SuiteResults([benchmark("allroots")])
        fresh.run("allroots", "SF-Plain")
        fresh.statistics("allroots")
        assert solves == ["SF-Plain"]

    def test_all_statistics_order(self, results):
        names = [s.name for s in results.all_statistics()]
        assert names == ["allroots", "anagram"]

    def test_initial_graph_statistics_function(self):
        nodes, edges, scc = initial_graph_statistics(benchmark("allroots"))
        assert nodes > 0 and edges > 0
        assert scc.vars_in_cycles >= 0


class TestExperimentSemantics:
    def test_all_configs_agree_on_answers(self, results):
        bench = results.benchmark("allroots")
        program = bench.program
        graphs = []
        for label in EXPERIMENT_LABELS:
            solution = results.solution("allroots", label)
            graph = {
                location.name: frozenset(
                    term.label.name
                    for term in solution.least_solution(
                        program.points_to_var[location]
                    )
                    if hasattr(term.label, "name")
                )
                for location in program.locations
            }
            graphs.append((label, graph))
        baseline = graphs[0][1]
        for label, graph in graphs[1:]:
            assert graph == baseline, label

    def test_oracle_work_no_more_than_plain(self, results):
        for form in ("SF", "IF"):
            plain = results.run("anagram", f"{form}-Plain")
            oracle = results.run("anagram", f"{form}-Oracle")
            assert oracle.work <= plain.work
