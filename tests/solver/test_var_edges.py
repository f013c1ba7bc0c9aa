"""``Solution.var_edges`` against an independent record of the run.

A run that collapses nothing stores every var-var constraint it adds, at
its original variable ids, so the final graph is the var-var constraint
graph that Table 1's final-SCC columns and the oracle's phase 1 read.
The check here does not look at the graph: it collects the ``vv``
edges the trace sink saw being added, one event per stored edge.
"""

import pytest
from hypothesis import given, settings

from repro.experiments.config import options_for
from repro.solver import solve
from repro.trace import CollectorSink
from repro.trace.events import EV_EDGE
from repro.workloads import select_benchmarks
from tests.property.test_solver_equivalence import constraint_systems

PLAIN = ("SF-Plain", "IF-Plain")


def added_var_edges(sink):
    """The ``(left, right)`` pairs of every added var-var edge event."""
    return {
        (event.args["src"], event.args["dst"])
        for event in sink.events
        if event.name == EV_EDGE and event.args["kind"] == "vv"
        and event.args["outcome"] == "added"
    }


def check_against_trace(system, label, seed=0):
    sink = CollectorSink()
    solution = solve(system, options_for(label, seed=seed, sink=sink))
    expected = added_var_edges(sink)
    assert solution.var_edges == expected
    return expected


@pytest.mark.parametrize("label", PLAIN)
@pytest.mark.parametrize(
    "bench", select_benchmarks("quick", None), ids=lambda bench: bench.name
)
def test_quick_suite_var_edges_match_added_edges(bench, label):
    edges = check_against_trace(bench.program.system, label)
    assert edges


def test_inductive_plain_run_stores_predecessor_edges():
    """IF-Plain keeps part of its var-var edges as predecessor edges,
    so ``var_edges`` must read both adjacency directions."""
    bench = select_benchmarks("quick", ["allroots"])[0]
    solution = solve(bench.program.system, options_for("IF-Plain"))
    assert any(solution.graph.pred_vars)
    assert any(solution.graph.succ_vars)


@pytest.mark.slow
@given(constraint_systems())
@settings(max_examples=60, deadline=None)
def test_generated_systems_var_edges_match_added_edges(system):
    for label in PLAIN:
        check_against_trace(system, label)


@pytest.mark.parametrize("label", ("SF-Oracle", "IF-Oracle"))
def test_collapsing_runs_have_no_var_edges(label):
    bench = select_benchmarks("quick", ["allroots"])[0]
    oracle = solve(bench.program.system, options_for(label))
    assert oracle.oracle_witnessed > 0
    assert oracle.var_edges is None
    assert oracle.oracle_phase1.var_edges
    online = solve(bench.program.system,
                   options_for(label.replace("Oracle", "Online")))
    assert online.var_edges is None
