"""Tests for the solver engine across all six configurations."""

import pytest

from repro import ConstraintSystem, Variance
from repro.constraints import InconsistentConstraintError
from repro.resilience import CancellationToken
from repro.solver import (
    CyclePolicy,
    GraphForm,
    SolverEngine,
    SolverOptions,
    solve,
)


def chain_system(length=5):
    system = ConstraintSystem()
    c = system.constructor("c", (Variance.COVARIANT,))
    src = system.term(c, (system.zero,), label="s")
    variables = system.fresh_vars(length)
    system.add(src, variables[0])
    for left, right in zip(variables, variables[1:]):
        system.add(left, right)
    return system, variables, src


class TestAllConfigurations:
    def test_chain_least_solution(self, solver_options):
        system, variables, src = chain_system()
        solution = solve(system, solver_options)
        for v in variables:
            assert solution.least_solution(v) == frozenset({src})

    def test_cycle_least_solution(self, solver_options):
        system, variables, src = chain_system()
        system.add(variables[-1], variables[0])  # close the cycle
        solution = solve(system, solver_options)
        for v in variables:
            assert solution.least_solution(v) == frozenset({src})

    def test_work_counted(self, solver_options):
        system, _, _ = chain_system()
        solution = solve(system, solver_options)
        assert solution.stats.work >= len(system)

    def test_empty_system(self, solver_options):
        system = ConstraintSystem()
        solution = solve(system, solver_options)
        assert solution.stats.work == 0
        assert solution.stats.final_edges == 0

    def test_label(self, solver_options):
        assert solver_options.label.startswith(
            ("SF-", "IF-")
        )


class TestDiagnostics:
    def build_clashing(self):
        system = ConstraintSystem()
        a = system.constructor("a", ())
        b = system.constructor("b", ())
        x = system.fresh_var()
        system.add(system.term(a), x)
        system.add(x, system.term(b))
        return system

    def test_clash_recorded_not_raised(self):
        solution = solve(self.build_clashing(), SolverOptions())
        assert not solution.ok
        assert solution.stats.clashes == 1
        assert solution.diagnostics[0].kind == "constructor-clash"

    def test_raise_on_errors(self):
        solution = solve(self.build_clashing(), SolverOptions())
        with pytest.raises(InconsistentConstraintError):
            solution.raise_on_errors()


class TestEngineGuards:
    def test_oracle_requires_driver(self):
        system, _, _ = chain_system()
        with pytest.raises(ValueError):
            SolverEngine(
                system,
                SolverOptions(cycles=CyclePolicy.ORACLE),
            )

    def test_plain_run_exposes_var_edges(self):
        system, variables, _ = chain_system(4)
        solution = solve(system, SolverOptions(
            form=GraphForm.STANDARD,
            cycles=CyclePolicy.NONE,
        ))
        recorded = solution.var_edges
        expected = {
            (left.index, right.index)
            for left, right in zip(variables, variables[1:])
        }
        assert expected <= recorded

    def test_edges_not_recorded_by_default(self):
        system, _, _ = chain_system()
        solution = solve(system, SolverOptions())
        assert solution.var_edges is None

    @pytest.mark.parametrize("value", (0, -1))
    def test_periodic_interval_below_one_rejected(self, value):
        system, _, _ = chain_system()
        options = SolverOptions(cycles=CyclePolicy.PERIODIC,
                                periodic_interval=value)
        with pytest.raises(ValueError, match="periodic_interval"):
            SolverEngine(system, options)
        with pytest.raises(ValueError, match="periodic_interval"):
            solve(system, options)

    @pytest.mark.parametrize("value", (0, -1))
    def test_check_stride_below_one_rejected(self, value):
        system, _, _ = chain_system()
        with pytest.raises(ValueError, match="check_stride"):
            SolverEngine(system, SolverOptions(check_stride=value))
        with pytest.raises(ValueError, match="check_stride"):
            solve(system, SolverOptions(
                cancellation=CancellationToken(), check_stride=value))

    def test_interval_and_stride_of_one_accepted(self):
        system, variables, src = chain_system()
        solution = solve(system, SolverOptions(
            cycles=CyclePolicy.PERIODIC, periodic_interval=1,
            cancellation=CancellationToken(), check_stride=1))
        assert solution.least_solution(variables[-1]) == frozenset({src})


class TestDeterminism:
    def test_same_seed_same_work(self):
        system, _, _ = chain_system(10)
        a = solve(system, SolverOptions(seed=3))
        b = solve(system, SolverOptions(seed=3))
        assert a.stats.work == b.stats.work

    def test_system_reusable_across_runs(self):
        # Solving must not mutate the input system.
        system, variables, src = chain_system()
        before = len(system)
        solve(system, SolverOptions())
        assert len(system) == before
        solution = solve(system, SolverOptions(form=GraphForm.STANDARD))
        assert solution.least_solution(variables[-1]) == frozenset({src})
