"""All six configurations must compute identical least solutions.

This is the central correctness cross-check of the reproduction: the
representations and cycle policies trade *work*, never *answers*.
"""

import pytest

from repro import ConstraintSystem, Variance
from repro.graph import CreationOrder, RandomOrder, ReverseCreationOrder
from repro.solver import SolverOptions, solve, solve_reference
from tests.conftest import ALL_CONFIGS


def _all_solutions(system):
    for form, policy in ALL_CONFIGS:
        yield (
            f"{form.value}-{policy.value}",
            solve(system, SolverOptions(form=form, cycles=policy)),
        )


def assert_all_agree(system):
    reference = solve_reference(system)
    for label, solution in _all_solutions(system):
        for var in system.variables:
            assert solution.least_solution(var) == \
                reference.least_solution(var), (label, var)


def build(edges, sources, n):
    system = ConstraintSystem()
    c = system.constructor("c", (Variance.COVARIANT,))
    variables = system.fresh_vars(n)
    for left, right in edges:
        system.add(variables[left], variables[right])
    for label, target in sources:
        system.add(
            system.term(c, (system.zero,), label=label), variables[target]
        )
    return system


class TestEquivalence:
    def test_chain(self):
        assert_all_agree(build([(0, 1), (1, 2), (2, 3)], [("s", 0)], 4))

    def test_simple_cycle(self):
        assert_all_agree(
            build([(0, 1), (1, 2), (2, 0)], [("s", 1)], 3)
        )

    def test_two_cycles_bridge(self):
        edges = [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)]
        assert_all_agree(build(edges, [("a", 0), ("b", 3)], 4))

    def test_nested_cycles(self):
        edges = [(0, 1), (1, 2), (2, 1), (2, 3), (3, 0)]
        assert_all_agree(build(edges, [("s", 2)], 4))

    def test_dense_mesh(self):
        edges = [(i, j) for i in range(5) for j in range(5) if i != j]
        assert_all_agree(build(edges, [("s0", 0), ("s1", 4)], 5))

    def test_self_loops(self):
        assert_all_agree(build([(0, 0), (0, 1), (1, 1)], [("s", 0)], 2))

    def test_contravariant_flow(self):
        system = ConstraintSystem()
        ref = system.constructor(
            "ref",
            (Variance.COVARIANT, Variance.COVARIANT,
             Variance.CONTRAVARIANT),
        )
        atom = system.constructor("atom", ())
        payload = system.term(atom, (), label="p")
        x_contents, pointer, incoming = (
            system.fresh_var("contents"),
            system.fresh_var("pointer"),
            system.fresh_var("incoming"),
        )
        source = system.term(
            ref, (system.zero, x_contents, x_contents), label="cell"
        )
        system.add(source, pointer)
        system.add(payload, incoming)
        # Store through the pointer: contravariant position.
        system.add(
            pointer, system.term(ref, (system.one, system.one, incoming))
        )
        assert_all_agree(system)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_random_orders_agree(self, seed):
        system = build(
            [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)],
            [("s", 0)], 5,
        )
        reference = solve_reference(system)
        for form, policy in ALL_CONFIGS:
            solution = solve(system, SolverOptions(
                form=form, cycles=policy, seed=seed))
            for var in system.variables:
                assert solution.least_solution(var) == \
                    reference.least_solution(var)

    @pytest.mark.parametrize(
        "order", [CreationOrder(), ReverseCreationOrder(), RandomOrder(9)]
    )
    def test_explicit_orders_agree(self, order):
        system = build(
            [(0, 1), (1, 0), (1, 2), (3, 1), (2, 3)], [("s", 0)], 4
        )
        reference = solve_reference(system)
        for form, policy in ALL_CONFIGS:
            solution = solve(system, SolverOptions(
                form=form, cycles=policy, order=order))
            for var in system.variables:
                assert solution.least_solution(var) == \
                    reference.least_solution(var)
