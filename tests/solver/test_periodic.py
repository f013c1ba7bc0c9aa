"""Tests for the periodic (offline) cycle-elimination baseline."""

import pytest

from repro import ConstraintSystem, Variance
from repro.solver import (
    CyclePolicy,
    GraphForm,
    SolverOptions,
    solve,
    solve_reference,
)


def cyclic_system(cycles=3, cycle_length=4):
    system = ConstraintSystem()
    box = system.constructor("box", (Variance.COVARIANT,))
    variables = system.fresh_vars(cycles * cycle_length)
    for c in range(cycles):
        base = c * cycle_length
        for offset in range(cycle_length):
            system.add(
                variables[base + offset],
                variables[base + (offset + 1) % cycle_length],
            )
        if c:
            system.add(variables[base - 1], variables[base])
    system.add(system.term(box, (system.zero,), label="s"), variables[0])
    return system, variables


class TestPeriodicPolicy:
    @pytest.mark.parametrize("interval", [1, 3, 10, 1000])
    @pytest.mark.parametrize(
        "form", [GraphForm.STANDARD, GraphForm.INDUCTIVE]
    )
    def test_matches_reference(self, form, interval):
        system, variables = cyclic_system()
        reference = solve_reference(system)
        solution = solve(system, SolverOptions(
            form=form, cycles=CyclePolicy.PERIODIC,
            periodic_interval=interval,
        ))
        for var in variables:
            assert solution.least_solution(var) == \
                reference.least_solution(var)

    def test_sweeps_counted(self):
        system, _ = cyclic_system()
        solution = solve(system, SolverOptions(
            cycles=CyclePolicy.PERIODIC, periodic_interval=2))
        assert solution.stats.periodic_sweeps >= 1

    def test_frequent_sweeps_eliminate_everything(self):
        system, variables = cyclic_system(cycles=2, cycle_length=5)
        solution = solve(system, SolverOptions(
            cycles=CyclePolicy.PERIODIC, periodic_interval=1))
        # 2 cycles of 5: 8 variables forwarded.
        assert solution.stats.vars_eliminated == 8

    def test_infrequent_sweeps_may_miss(self):
        system, _ = cyclic_system()
        solution = solve(system, SolverOptions(
            cycles=CyclePolicy.PERIODIC, periodic_interval=10**6))
        assert solution.stats.periodic_sweeps == 0
        assert solution.stats.vars_eliminated == 0

    def test_label(self):
        options = SolverOptions(
            form=GraphForm.STANDARD, cycles=CyclePolicy.PERIODIC,
            periodic_interval=500,
        )
        assert options.label == "SF-Periodic(500)"

    def test_frequency_cost_tradeoff(self):
        # The paper's motivation: the frequency knob trades sweep cost
        # (Tarjan passes, re-enqueued edges) against graph compactness.
        # Frequent sweeps shrink the final graph but pay in sweeps;
        # rare sweeps leave the cycles un-collapsed.
        system, _ = cyclic_system(cycles=6, cycle_length=6)
        frequent = solve(system, SolverOptions(
            cycles=CyclePolicy.PERIODIC, periodic_interval=1))
        rare = solve(system, SolverOptions(
            cycles=CyclePolicy.PERIODIC, periodic_interval=10**6))
        assert frequent.stats.periodic_sweeps > rare.stats.periodic_sweeps
        assert frequent.stats.vars_eliminated > rare.stats.vars_eliminated
        assert frequent.stats.final_edges < rare.stats.final_edges


class TestCollapseAllSccs:
    def test_direct_call(self):
        from repro.graph import CreationOrder
        from repro.solver import SolverEngine

        system = ConstraintSystem()
        v = system.fresh_vars(4)
        system.add(v[0], v[1])
        system.add(v[1], v[0])
        system.add(v[2], v[3])
        engine = SolverEngine(system, SolverOptions(
            form=GraphForm.STANDARD, cycles=CyclePolicy.NONE,
            order=CreationOrder()))
        for left, right in system.constraints:
            engine.pending.append(("rr", left, right))
        engine.drain()
        graph = engine.graph
        eliminated = graph.collapse_all_sccs()
        assert eliminated == 1
        assert graph.find(1) == 0
        assert graph.find(2) == 2
