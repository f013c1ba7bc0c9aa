"""Tests for the solver's coarse trace events: collapse, sweep, clash."""

from repro import ConstraintSystem
from repro.solver import CyclePolicy, GraphForm, SolverOptions, solve
from repro.trace import CollectorSink


def collect(system, **options):
    """Solve with a collecting sink; returns ``(name, args)`` pairs."""
    sink = CollectorSink()
    solve(system, SolverOptions(sink=sink, **options))
    return [(event.name, event.args) for event in sink.events]


class TestTrace:
    def test_collapse_event(self):
        system = ConstraintSystem()
        a, b, c = system.fresh_vars(3)
        system.add(a, b)
        system.add(b, a)
        system.add(b, c)
        events = collect(system, cycles=CyclePolicy.ONLINE)
        collapses = [e for e in events if e[0] == "collapse"]
        assert len(collapses) == 1
        payload = collapses[0][1]
        assert payload["witness"] in (a.index, b.index)
        assert set(payload["members"]) == {a.index, b.index}

    def test_sweep_event(self):
        system = ConstraintSystem()
        a, b = system.fresh_vars(2)
        system.add(a, b)
        system.add(b, a)
        events = collect(
            system, cycles=CyclePolicy.PERIODIC, periodic_interval=1
        )
        sweeps = [e for e in events if e[0] == "sweep"]
        assert sweeps
        assert any(e[1]["eliminated"] == 1 for e in sweeps)

    def test_clash_event(self):
        system = ConstraintSystem()
        one = system.constructor("one_c", ())
        two = system.constructor("two_c", ())
        x = system.fresh_var()
        system.add(system.term(one), x)
        system.add(x, system.term(two))
        events = collect(system)
        clashes = [e for e in events if e[0] == "clash"]
        assert len(clashes) == 1
        assert clashes[0][1]["kind"] == "constructor-clash"

    def test_no_trace_no_overhead(self):
        system = ConstraintSystem()
        a, b = system.fresh_vars(2)
        system.add(a, b)
        system.add(b, a)
        solution = solve(system, SolverOptions(cycles=CyclePolicy.ONLINE))
        assert solution.stats.vars_eliminated == 1  # just runs

    def test_trace_sees_every_online_collapse(self):
        system = ConstraintSystem()
        variables = system.fresh_vars(6)
        # Two disjoint 3-cycles.
        for base in (0, 3):
            for offset in range(3):
                system.add(
                    variables[base + offset],
                    variables[base + (offset + 1) % 3],
                )
        events = collect(system, form=GraphForm.INDUCTIVE,
                         cycles=CyclePolicy.ONLINE)
        eliminated = sum(
            len(payload["members"]) - 1
            for event, payload in events if event == "collapse"
        )
        solution = solve(system, SolverOptions(
            form=GraphForm.INDUCTIVE, cycles=CyclePolicy.ONLINE))
        assert eliminated == solution.stats.vars_eliminated
