"""Property test: the periodic policy preserves least solutions."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import ConstraintSystem, Variance
from repro.solver import (
    CyclePolicy,
    GraphForm,
    SolverOptions,
    solve,
    solve_reference,
)

pytestmark = pytest.mark.slow


@st.composite
def cyclic_systems(draw):
    n = draw(st.integers(3, 9))
    system = ConstraintSystem()
    box = system.constructor("box", (Variance.COVARIANT,))
    variables = system.fresh_vars(n)
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        min_size=n, max_size=3 * n,
    ))
    for left, right in edges:
        system.add(variables[left], variables[right])
    for index in range(draw(st.integers(1, 3))):
        target = draw(st.integers(0, n - 1))
        system.add(
            system.term(box, (system.zero,), label=f"s{index}"),
            variables[target],
        )
    return system


@given(cyclic_systems(), st.integers(1, 20), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_periodic_matches_reference(system, interval, seed):
    reference = solve_reference(system)
    for form in (GraphForm.STANDARD, GraphForm.INDUCTIVE):
        solution = solve(system, SolverOptions(
            form=form,
            cycles=CyclePolicy.PERIODIC,
            periodic_interval=interval,
            seed=seed,
        ))
        for var in system.variables:
            assert solution.least_solution(var) == \
                reference.least_solution(var), (form, interval)


@given(cyclic_systems(), st.integers(0, 3))
@settings(max_examples=30, deadline=None)
def test_sweep_every_edge_eliminates_all_cycles(system, seed):
    from repro.graph.scc import summarize_sccs

    plain = solve(system, SolverOptions(
        form=GraphForm.STANDARD, cycles=CyclePolicy.NONE, seed=seed,
    ))
    summary = summarize_sccs(range(system.num_vars), plain.var_edges)
    periodic = solve(system, SolverOptions(
        form=GraphForm.STANDARD, cycles=CyclePolicy.PERIODIC,
        periodic_interval=1, seed=seed,
    ))
    # A sweep after every single edge catches every cycle variable.
    expected = summary.vars_in_cycles - summary.nontrivial_sccs
    assert periodic.stats.vars_eliminated == expected
