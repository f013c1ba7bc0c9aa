"""Tests for the Solution object."""

import pytest

from repro import ConstraintSystem, Variance
from repro.constraints.errors import MalformedExpressionError
from repro.solver import CyclePolicy, GraphForm, SolverOptions, solve


def solved_cycle():
    system = ConstraintSystem()
    c = system.constructor("c", (Variance.COVARIANT,))
    src = system.term(c, (system.zero,), label="s")
    x, y, z = system.fresh_vars(3)
    system.add(x, y)
    system.add(y, x)
    system.add(src, x)
    system.add(y, z)
    options = SolverOptions(
        form=GraphForm.INDUCTIVE, cycles=CyclePolicy.ONLINE,
    )
    return system, (x, y, z), src, solve(system, options)


class TestSolutionQueries:
    def test_least_solution_by_index(self):
        _, (x, _, _), src, solution = solved_cycle()
        assert solution.least_solution_by_index(x.index) == frozenset({src})

    @pytest.mark.parametrize("index", [-1, 3])
    def test_least_solution_by_index_rejects_other_indices(self, index):
        # -1 would read the last variable's set, 3 (num_vars) past the
        # end of the graph's lists.
        _, _, _, solution = solved_cycle()
        with pytest.raises(MalformedExpressionError, match="outside"):
            solution.least_solution_by_index(index)

    def test_unconstrained_var_is_empty(self):
        system = ConstraintSystem()
        x = system.fresh_var()
        solution = solve(system, SolverOptions())
        assert solution.least_solution(x) == frozenset()

    def test_same_component_after_collapse(self):
        _, (x, y, z), _, solution = solved_cycle()
        assert solution.same_component(x, y)
        assert not solution.same_component(x, z)

    def test_representative_is_stable(self):
        _, (x, y, _), _, solution = solved_cycle()
        assert solution.representative(x) == solution.representative(y)

    def test_repr_mentions_label(self):
        _, _, _, solution = solved_cycle()
        assert "IF-Online" in repr(solution)

    def test_ok_when_no_diagnostics(self):
        _, _, _, solution = solved_cycle()
        assert solution.ok
        solution.raise_on_errors()  # must not raise


class TestSccSummary:
    def test_summary_requires_recording(self):
        system = ConstraintSystem()
        x, y = system.fresh_vars(2)
        system.add(x, y)
        solution = solve(system, SolverOptions())
        with pytest.raises(ValueError):
            solution.final_scc_summary()

    def test_summary_counts_cycle(self):
        system = ConstraintSystem()
        x, y, z = system.fresh_vars(3)
        system.add(x, y)
        system.add(y, x)
        system.add(y, z)
        solution = solve(system, SolverOptions(
            form=GraphForm.STANDARD, cycles=CyclePolicy.NONE,
        ))
        summary = solution.final_scc_summary()
        assert summary.vars_in_cycles == 2
        assert summary.max_scc_size == 2


class TestForeignVariables:
    """Queries reject variables the solved system did not create: one
    with a colliding index would otherwise get another variable's
    answer, and one past the end an IndexError."""

    def foreign(self):
        other = ConstraintSystem("other")
        colliding = other.fresh_var()  # index 0, like x
        for _ in range(5):
            past_end = other.fresh_var()  # index 4: x, y, z are 0..2
        return colliding, past_end

    def test_least_solution_rejects_foreign_var(self):
        from repro.constraints import MalformedExpressionError

        _, _, _, solution = solved_cycle()
        for var in self.foreign():
            with pytest.raises(MalformedExpressionError):
                solution.least_solution(var)

    def test_representative_rejects_foreign_var(self):
        from repro.constraints import MalformedExpressionError

        _, _, _, solution = solved_cycle()
        for var in self.foreign():
            with pytest.raises(MalformedExpressionError):
                solution.representative(var)

    def test_same_component_rejects_foreign_var(self):
        from repro.constraints import MalformedExpressionError

        _, (x, _, _), _, solution = solved_cycle()
        for var in self.foreign():
            with pytest.raises(MalformedExpressionError):
                solution.same_component(x, var)
            with pytest.raises(MalformedExpressionError):
                solution.same_component(var, x)
