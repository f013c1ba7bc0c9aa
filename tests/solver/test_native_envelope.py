"""The native solve envelope against its Python reference.

The engine's steps around the closure kernel — validation, the final
edge counts and the least solution — run natively when the kernel built.
Each must leave exactly the state its Python reference leaves: the same
counts, the same least-solution dict in the same order, frozensets that
iterate in the same order and are shared between the same variables,
the same ``parent`` list after ``find``'s path compression, and the same
:class:`InvalidSystemError` for a faulty system.  On a graph the engine
does not build, the final counts and the least solution raise instead
of calling their reference.  (The random order's ranks are pinned in
``tests/graph/test_order.py``.)
"""

from operator import methodcaller

import pytest

from repro import ConstraintSystem, Variance
from repro.constraints.constructors import Constructor
from repro.constraints.errors import InvalidSystemError
from repro.constraints.expressions import Term, Var
from repro.experiments.config import options_for
from repro.graph.inductive import InductiveGraph
from repro.graph.order import CreationOrder
from repro.graph.standard import StandardGraph
from repro.graph.stats import SolverStats
from repro.resilience import SolveBudget
from repro.solver import SolverEngine
from repro.solver import engine as engine_module
from repro.solver import native
from repro.workloads import suite

from tests.resilience.test_validation import (
    arity_mismatch,
    nested_fault,
    not_an_expression,
    offender_at_index_two,
    signature_conflict,
    smuggle,
    valid_system,
    var_out_of_range,
)
from tests.solver.test_native_kernel import random_systems

pytestmark = pytest.mark.skipif(
    native.kernel is None,
    reason=f"native kernel unavailable: {native.build_error}")

#: The engine's envelope steps, by implementation.
STEPS = {
    "python": {
        "finalize_statistics": methodcaller("finalize_statistics"),
        "compute_least_solution": methodcaller("compute_least_solution"),
    },
}
if native.kernel is not None:
    STEPS["native"] = {
        "finalize_statistics": native.kernel.finalize_statistics,
        "compute_least_solution": native.kernel.compute_least_solution,
    }

LABELS = ("SF-Online", "IF-Online")
ORDER_SEEDS = (0, 1)
COUNTS = ("final_var_var_edges", "final_source_edges", "final_sink_edges")


def least_state(solution):
    """What a least-solution dict decides, iteration and sharing
    included: each entry names the first entry holding the same
    frozenset object."""
    first = {}
    return [(rep, list(terms), first.setdefault(id(terms), rep))
            for rep, terms in solution.items()]


def envelope_states(steps, system, label, seed, max_work=None):
    """What each finalize and least-solution step leaves behind, at every
    budget stop of a solve and at its end."""
    seen = []

    def finalize(graph):
        steps["finalize_statistics"](graph)
        seen.append(("finalize", list(graph.parent),
                     [getattr(graph.stats, name) for name in COUNTS]))

    def least(graph):
        solution = steps["compute_least_solution"](graph)
        seen.append(("least", list(graph.parent), least_state(solution)))
        return solution

    overrides = {}
    if max_work is not None:
        overrides = dict(budget=SolveBudget(max_work=max_work),
                         on_budget="partial", check_stride=7)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine_module, "finalize_statistics", finalize)
        patch.setattr(engine_module, "compute_least_solution", least)
        engine = SolverEngine(system, options_for(label, seed=seed,
                                                  **overrides))
        solution = engine.run()
        while solution.is_partial:
            solution = engine.resume()
    return seen


def assert_same_envelope(system, label, seed, max_work=None, where=""):
    python = envelope_states(STEPS["python"], system, label, seed, max_work)
    native_states = envelope_states(STEPS["native"], system, label, seed,
                                    max_work)
    assert len(native_states) == len(python), where
    for step, (got, expected) in enumerate(zip(native_states, python)):
        assert got == expected, (where, step, expected[0])
    return len(python)


def _quick_system(name):
    (benchmark,) = [b for b in suite("quick") if b.name == name]
    return benchmark.program.system


@pytest.mark.parametrize("seed", ORDER_SEEDS)
@pytest.mark.parametrize("label", LABELS)
@pytest.mark.parametrize("name", [b.name for b in suite("quick")])
def test_quick_suite(name, label, seed):
    system = _quick_system(name)
    assert_same_envelope(system, label, seed)
    total = SolverEngine(system, options_for(label, seed=seed)).run()
    stops = assert_same_envelope(system, label, seed,
                                 max(1, total.stats.work // 3))
    assert stops > 2  # finalize and least solution, at least twice


@pytest.mark.parametrize("label", LABELS)
def test_random_systems(label):
    for seed, system in random_systems():
        order = seed % len(ORDER_SEEDS)
        where = f"random system {seed}"
        assert_same_envelope(system, label, order, where=where)
        total = SolverEngine(system, options_for(label, seed=order)).run()
        assert_same_envelope(system, label, order,
                             max(1, total.stats.work // 3), where=where)


# ----------------------------------------------------------------------
# Graphs the engine does not build
# ----------------------------------------------------------------------
def chain_graph(graph_class):
    """Three variables, 2 -> 1 -> 0 in parent, with sources and edges."""
    graph = graph_class(3, CreationOrder(), SolverStats(),
                        emit=lambda op: None)
    # A bucket is EMPTY_BUCKET until its first insert makes a set.
    graph.sources[0] = {"a", "b"}
    graph.parent[1] = 0
    graph.parent[2] = 1
    graph.pred_vars[0] = {2}
    graph.succ_vars[0] = {1}
    return graph


def odd_bucket(graph):
    """A bucket holding a bool where the engine stores int indices."""
    graph.pred_vars[0].add(True)


def stale_index(graph):
    """A bucket member past the end of ``parent``."""
    graph.pred_vars[0].add(7)


def set_subclass(graph):
    class Bucket(set):
        pass

    graph.sources[0] = Bucket(graph.sources[0])


def parent_cycle(graph):
    """1 -> 2 -> 1 in ``parent``, on which the Python ``find`` would
    never return."""
    graph.parent[1] = 2


@pytest.mark.parametrize("graph_class", [StandardGraph, InductiveGraph])
@pytest.mark.parametrize("change",
                         [odd_bucket, stale_index, set_subclass, parent_cycle])
@pytest.mark.parametrize("step", ["finalize_statistics",
                                  "compute_least_solution"])
def test_handed_over(graph_class, change, step, monkeypatch):
    """Nothing is handed over to the Python reference: where a native
    step reads the changed state, it raises.  A standard-form least
    solution reads only ``sources`` and whether each ``parent`` entry
    points to itself, so it solves the graphs changed elsewhere as the
    reference does."""
    expected = None
    if (graph_class is StandardGraph and step == "compute_least_solution"
            and change is not set_subclass):
        graph = chain_graph(graph_class)
        change(graph)
        expected = least_state(graph.compute_least_solution())

    def reference(self):
        raise AssertionError("handed over to the Python reference")

    monkeypatch.setattr(graph_class, step, reference)
    graph = chain_graph(graph_class)
    change(graph)
    if expected is None:
        with pytest.raises((TypeError, IndexError, KeyError)):
            STEPS["native"][step](graph)
    else:
        assert least_state(STEPS["native"][step](graph)) == expected


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
def equal_constructor():
    """A term over a constructor equal to, not the same as, the
    registered one: valid."""
    system = valid_system()
    (v,) = system.fresh_vars(1)
    registered = system.constructor("c", (Variance.COVARIANT,))
    smuggle(system, Term(Constructor("c", registered.signature), (v,)), v)
    system.add(Term(registered, (v,)), v)
    return system


def int_subclass_index():
    """A variable index only the Python reference reads: valid."""
    system = valid_system()
    smuggle(system, Var(True, "one"), system.variables[0])
    return system


VALIDATION_CASES = [
    var_out_of_range, arity_mismatch, signature_conflict,
    not_an_expression, nested_fault, offender_at_index_two,
    valid_system, equal_constructor, int_subclass_index,
]


def validation_outcome(validate, build):
    system = build()
    try:
        return validate(system)
    except InvalidSystemError as error:
        return (error.reason, error.constraint_index, str(error))


@pytest.mark.parametrize("build", VALIDATION_CASES)
def test_validate(build):
    expected = validation_outcome(methodcaller("validate"), build)
    assert validation_outcome(native.kernel.validate, build) == expected


@pytest.mark.parametrize("name", [b.name for b in suite("quick")])
def test_validate_quick_suite_natively(name, monkeypatch):
    """Valid systems never reach the Python reference."""
    def reference(system):
        raise AssertionError("handed over a valid system")

    monkeypatch.setattr(ConstraintSystem, "validate", reference)
    assert native.kernel.validate(_quick_system(name)) is None
