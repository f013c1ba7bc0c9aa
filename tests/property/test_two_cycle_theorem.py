"""Property test for the paper's Section 2.5 theorem.

"It is a theorem that for any ordering of variables, IF exposes at
least a two-cycle for every non-trivial strongly connected component" —
and the partial online search always detects an exposed two-cycle, so
under IF-Online *every* non-trivial SCC of the final constraint graph
must lose at least one variable to collapsing.  (The same does not hold
for SF, which the companion test demonstrates by exhibiting misses.)
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import ConstraintSystem
from repro.graph.scc import strongly_connected_components
from repro.solver import CyclePolicy, GraphForm, SolverOptions, solve

pytestmark = pytest.mark.slow



@st.composite
def var_graphs(draw):
    """Random var-var constraint sets guaranteed to contain cycles."""
    n = draw(st.integers(min_value=3, max_value=10))
    edges = set(draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=4 * n,
    )))
    # Plant at least one directed cycle of length >= 2.
    cycle_len = draw(st.integers(2, n))
    members = draw(st.permutations(range(n))) [:cycle_len]
    for left, right in zip(members, members[1:] + [members[0]]):
        edges.add((left, right))
    edge_list = draw(st.permutations(sorted(edges)))
    return n, list(edge_list)


def build(n, edges):
    system = ConstraintSystem()
    variables = system.fresh_vars(n)
    for left, right in edges:
        system.add(variables[left], variables[right])
    return system


@given(var_graphs(), st.integers(0, 7))
@settings(max_examples=80, deadline=None)
def test_if_online_collapses_part_of_every_scc(graph, seed):
    n, edges = graph
    system = build(n, edges)
    # Final SCCs: from a plain run's graph (ids are stable there).
    plain = solve(system, SolverOptions(
        form=GraphForm.INDUCTIVE, cycles=CyclePolicy.NONE, seed=seed,
    ))
    components = [
        component
        for component in strongly_connected_components(
            range(n), plain.var_edges
        )
        if len(component) >= 2
    ]
    online = solve(system, SolverOptions(
        form=GraphForm.INDUCTIVE, cycles=CyclePolicy.ONLINE, seed=seed,
    ))
    for component in components:
        representatives = {
            online.graph.find(member) for member in component
        }
        assert len(representatives) < len(component), (
            "SCC fully survived IF-Online", component, edges
        )


@given(var_graphs(), st.integers(0, 7))
@settings(max_examples=60, deadline=None)
def test_if_online_detects_at_least_sf_online(graph, seed):
    n, edges = graph
    system = build(n, edges)
    sf = solve(system, SolverOptions(
        form=GraphForm.STANDARD, cycles=CyclePolicy.ONLINE, seed=seed))
    if_ = solve(system, SolverOptions(
        form=GraphForm.INDUCTIVE, cycles=CyclePolicy.ONLINE, seed=seed))
    # Not a theorem point-for-point, but collapsing correctness holds:
    # eliminated variables never exceed the total in SCCs.
    plain = solve(system, SolverOptions(
        form=GraphForm.STANDARD, cycles=CyclePolicy.NONE, seed=seed))
    in_sccs = sum(
        len(component)
        for component in strongly_connected_components(
            range(n), plain.var_edges)
        if len(component) >= 2
    )
    assert sf.stats.vars_eliminated <= in_sccs
    assert if_.stats.vars_eliminated <= in_sccs


@given(var_graphs(), st.integers(0, 7))
@settings(max_examples=60, deadline=None)
def test_collapsed_variables_share_least_solution(graph, seed):
    n, edges = graph
    system = build(n, edges)
    online = solve(system, SolverOptions(
        form=GraphForm.INDUCTIVE, cycles=CyclePolicy.ONLINE, seed=seed))
    for var in system.variables:
        rep = online.graph.find(var.index)
        assert online.least_solution_by_index(rep) == \
            online.least_solution(var)
