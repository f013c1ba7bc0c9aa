"""Behavioural tests for the inductive-form graph (paper Section 2.4)."""

from repro import Variance
from repro.graph import CreationOrder, ReverseCreationOrder
from repro.solver import CyclePolicy, GraphForm, SolverOptions, solve


def if_options(**overrides):
    base = dict(form=GraphForm.INDUCTIVE, cycles=CyclePolicy.NONE,
                order=CreationOrder())
    base.update(overrides)
    return SolverOptions(**base)


def make_source(system, label):
    c = system.constructor("c", (Variance.COVARIANT,))
    return system.term(c, (system.zero,), label=label)


class TestEdgeRouting:
    def test_low_to_high_stored_as_predecessor(self, system):
        x, y = system.fresh_vars(2)  # creation order: o(x) < o(y)
        system.add(x, y)
        solution = solve(system, if_options())
        graph = solution.graph
        assert graph.canonical_predecessors(y.index) == {x.index}
        assert graph.canonical_successors(x.index) == set()

    def test_high_to_low_stored_as_successor(self, system):
        x, y = system.fresh_vars(2)
        system.add(y, x)  # o(y) > o(x): successor edge at y
        solution = solve(system, if_options())
        graph = solution.graph
        assert graph.canonical_successors(y.index) == {x.index}
        assert graph.canonical_predecessors(x.index) == set()

    def test_edge_always_at_higher_ranked_endpoint(self, system):
        x, y = system.fresh_vars(2)
        system.add(x, y)
        solution = solve(system, if_options(order=ReverseCreationOrder()))
        graph = solution.graph
        # Reverse order: o(x) > o(y), so x <= y is a successor at x.
        assert graph.canonical_successors(x.index) == {y.index}


class TestClosure:
    def test_transitive_var_var_edges_added(self, system):
        # z <= x (succ at z), z's pred... build: x <= z and z <= y with
        # ranks o(x) < o(y) < o(z): x <= z is pred at z; z <= y is succ
        # at z; closure must add the transitive x <= y.
        x, y, z = system.fresh_vars(3)
        system.add(x, z)
        system.add(z, y)
        solution = solve(system, if_options())
        graph = solution.graph
        assert x.index in graph.canonical_predecessors(y.index)

    def test_least_solution_through_mixed_edges(self, system):
        x, y, z = system.fresh_vars(3)
        src = make_source(system, "s")
        system.add(src, x)
        system.add(x, z)
        system.add(z, y)
        solution = solve(system, if_options())
        for v in (x, y, z):
            assert solution.least_solution(v) == frozenset({src})

    def test_least_solution_not_explicit(self, system):
        # Unlike SF, sources need not be copied to every variable: with
        # o(x) < o(y), x <= y is a pred edge and y's source set stays
        # empty — LS(y) is computed by the final sweep.
        x, y = system.fresh_vars(2)
        src = make_source(system, "s")
        system.add(src, x)
        system.add(x, y)
        solution = solve(system, if_options())
        assert solution.graph.sources[y.index] == set()
        assert solution.least_solution(y) == frozenset({src})

    def test_sinks_propagate_to_predecessors(self, system):
        c = system.constructor("c", (Variance.COVARIANT,))
        x, y, out = system.fresh_vars(3)
        system.add(x, y)                      # pred edge at y
        system.add(y, system.term(c, (out,)))  # sink at y
        system.add(make_source(system, "payload"), x)
        solution = solve(system, if_options())
        # x must have received the sink: anything flowing into x meets it.
        assert solution.graph.sinks[x.index]

    def test_cycle_without_elimination_still_correct(self, system):
        x, y = system.fresh_vars(2)
        src = make_source(system, "s")
        system.add(x, y)
        system.add(y, x)
        system.add(src, y)
        solution = solve(system, if_options())
        assert solution.least_solution(x) == frozenset({src})
        assert solution.least_solution(y) == frozenset({src})


class TestOnlineCycles:
    def test_two_cycle_always_detected_either_order(self, system):
        # Unlike SF, IF detects a 2-cycle regardless of insertion order.
        for first, second in (((0, 1), (1, 0)), ((1, 0), (0, 1))):
            sys2 = type(system)("fresh")
            a, b = sys2.fresh_vars(2)
            pairs = {0: a, 1: b}
            sys2.add(pairs[first[0]], pairs[first[1]])
            sys2.add(pairs[second[0]], pairs[second[1]])
            solution = solve(sys2, if_options(cycles=CyclePolicy.ONLINE))
            assert solution.same_component(a, b), (first, second)

    def test_witness_preserves_inductive_form(self, system):
        x, y, z = system.fresh_vars(3)
        system.add(x, y)
        system.add(y, z)
        system.add(z, x)
        solution = solve(system, if_options(cycles=CyclePolicy.ONLINE))
        # Whatever was detected, representatives must be the lowest rank
        # of their component.
        for v in (x, y, z):
            rep = solution.representative(v)
            ranks = solution.graph.ranks
            assert ranks[rep] <= ranks[v.index]

    def test_figure4_closure_exposes_subcycle(self, system):
        # Paper Figure 4: a 3-cycle whose closing edge hides the full
        # cycle still exposes a 2-cycle through the transitive edge
        # added by IF closure, so at least part is always eliminated.
        x1, x2, x3 = system.fresh_vars(3)
        system.add(x2, x3)
        system.add(x3, x1)
        system.add(x1, x2)
        solution = solve(system, if_options(cycles=CyclePolicy.ONLINE))
        assert solution.stats.vars_eliminated >= 1

    def test_eliminated_vars_share_least_solution(self, system):
        x, y, z = system.fresh_vars(3)
        src = make_source(system, "s")
        system.add(x, y)
        system.add(y, z)
        system.add(z, x)
        system.add(src, z)
        solution = solve(system, if_options(cycles=CyclePolicy.ONLINE))
        for v in (x, y, z):
            assert solution.least_solution(v) == frozenset({src})

    def test_search_visit_accounting(self, system):
        x, y = system.fresh_vars(2)
        system.add(x, y)
        system.add(y, x)
        solution = solve(system, if_options(cycles=CyclePolicy.ONLINE))
        assert solution.stats.cycle_searches >= 1
        assert solution.stats.mean_search_visits > 0


class TestLeastSolutionSweep:
    def test_sweep_handles_collapsed_nodes(self, system):
        x, y, z, w = system.fresh_vars(4)
        src = make_source(system, "s")
        system.add(src, x)
        system.add(x, y)
        system.add(y, x)   # cycle collapsed online
        system.add(y, z)
        system.add(z, w)
        solution = solve(system, if_options(cycles=CyclePolicy.ONLINE))
        assert solution.least_solution(w) == frozenset({src})

    def test_multiple_sources_union(self, system):
        x, y, z = system.fresh_vars(3)
        c = system.constructor("c", (Variance.COVARIANT,))
        s1 = system.term(c, (system.zero,), label="s1")
        s2 = system.term(c, (system.zero,), label="s2")
        system.add(s1, x)
        system.add(s2, y)
        system.add(x, z)
        system.add(y, z)
        solution = solve(system, if_options())
        assert solution.least_solution(z) == frozenset({s1, s2})
