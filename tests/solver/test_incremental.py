"""Tests for the incremental solver front-end."""

import pytest

from repro import ConstraintSystem, Variance
from repro.bench.measure import counters_of
from repro.experiments.config import options_for
from repro.graph.base import ConstraintGraphBase
from repro.resilience import (
    BudgetExceededError,
    GraphInvariantError,
    SolveCancelledError,
)
from repro.resilience.fuzz import solve_incremental
from repro.solver import (
    CancellationToken,
    CyclePolicy,
    GraphForm,
    SolveBudget,
    SolverOptions,
    SolveStatus,
    solve,
)
from repro.solver.incremental import IncrementalSolver
from repro.workloads.generator import RandomSystemConfig, random_system


def make_solver(**overrides):
    base = dict(form=GraphForm.INDUCTIVE, cycles=CyclePolicy.ONLINE)
    base.update(overrides)
    return IncrementalSolver(SolverOptions(**base))


class TestIncremental:
    def test_query_between_additions(self):
        solver = make_solver()
        box = solver.constructor("box", (Variance.COVARIANT,))
        x, y = solver.fresh_var("x"), solver.fresh_var("y")
        payload = solver.term(box, (solver.zero,), label="p")
        solver.add(payload, x)
        assert solver.least_solution(x) == frozenset({payload})
        assert solver.least_solution(y) == frozenset()
        solver.add(x, y)
        assert solver.least_solution(y) == frozenset({payload})

    def test_matches_batch_solving(self):
        edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 1)]
        # Batch.
        system = ConstraintSystem()
        box = system.constructor("box", (Variance.COVARIANT,))
        batch_vars = system.fresh_vars(4)
        source = system.term(box, (system.zero,), label="s")
        system.add(source, batch_vars[0])
        for left, right in edges:
            system.add(batch_vars[left], batch_vars[right])
        batch = solve(system, SolverOptions())
        # Incremental, one constraint at a time.
        solver = make_solver()
        solver.constructor("box", (Variance.COVARIANT,))
        inc_vars = [solver.fresh_var() for _ in range(4)]
        inc_source = solver.term("box", (solver.zero,), label="s")
        solver.add(inc_source, inc_vars[0])
        for left, right in edges:
            solver.add(inc_vars[left], inc_vars[right])
        for batch_var, inc_var in zip(batch_vars, inc_vars):
            assert {str(t) for t in batch.least_solution(batch_var)} == {
                str(t) for t in solver.least_solution(inc_var)
            }

    def test_online_collapse_happens_incrementally(self):
        solver = make_solver()
        x, y = solver.fresh_var(), solver.fresh_var()
        solver.add(x, y)
        assert not solver.same_component(x, y)
        solver.add(y, x)
        assert solver.same_component(x, y)
        assert solver.stats.vars_eliminated == 1

    def test_late_variables(self):
        solver = make_solver()
        box = solver.constructor("box", (Variance.COVARIANT,))
        x = solver.fresh_var()
        solver.add(solver.term(box, (solver.zero,), label="p"), x)
        # Create a variable only after solving has begun.
        y = solver.fresh_var()
        solver.add(x, y)
        assert len(solver.least_solution(y)) == 1

    def test_standard_form_supported(self):
        solver = make_solver(form=GraphForm.STANDARD)
        box = solver.constructor("box", (Variance.COVARIANT,))
        x, y = solver.fresh_var(), solver.fresh_var()
        solver.add(solver.term(box, (solver.zero,), label="p"), x)
        solver.add(x, y)
        assert len(solver.least_solution(y)) == 1

    def test_oracle_rejected(self):
        with pytest.raises(ValueError):
            IncrementalSolver(SolverOptions(cycles=CyclePolicy.ORACLE))

    def test_diagnostics_accumulate(self):
        solver = make_solver()
        a = solver.constructor("a", ())
        b = solver.constructor("b", ())
        x = solver.fresh_var()
        solver.add(solver.term(a), x)
        assert not solver.diagnostics
        solver.add(x, solver.term(b))
        assert solver.diagnostics

    def test_add_all(self):
        solver = make_solver()
        x, y, z = (solver.fresh_var() for _ in range(3))
        solver.add_all([(x, y), (y, z)])
        box = solver.constructor("box", (Variance.COVARIANT,))
        solver.add(solver.term(box, (solver.zero,)), x)
        assert len(solver.least_solution(z)) == 1


def _apply_script(script, add, term_for, variables):
    """Replay a construction script against one solver front-end."""
    for op in script:
        if op[0] == "edge":
            add(variables[op[1]], variables[op[2]])
        elif op[0] == "source":
            add(term_for(op[2]), variables[op[1]])
        else:  # sink
            add(variables[op[1]], term_for(op[2]))


def _make_script(seed, var_count=14, steps=60):
    import random

    rng = random.Random(seed)
    script = []
    for step in range(steps):
        roll = rng.random()
        if roll < 0.22:
            script.append(("source", rng.randrange(var_count), step))
        elif roll < 0.30:
            script.append(("sink", rng.randrange(var_count), step))
        else:
            script.append((
                "edge",
                rng.randrange(var_count),
                rng.randrange(var_count),
            ))
    return script, var_count


class TestStandardFormDifferential:
    """Pin SF-Online interleaved queries against the reference solver.

    Regression guard for the demand-driven ``least_solution``: queries
    issued between additions, and right after an online collapse
    absorbed source-carrying variables, must see every term.  The
    subclass below runs the same tests under IF-Online.
    """

    form = GraphForm.STANDARD

    def _run_differential(self, seed, query_stride):
        from repro.solver import solve_reference
        from repro import ConstraintSystem

        script, var_count = _make_script(seed)
        solver = make_solver(form=self.form)
        box = solver.constructor("box", (Variance.COVARIANT,))
        inc_vars = [solver.fresh_var(f"v{i}") for i in range(var_count)]

        def inc_term(step):
            return solver.term("box", (solver.zero,), label=f"t{step}")

        for prefix_end in range(1, len(script) + 1):
            op = script[prefix_end - 1]
            _apply_script([op], solver.add, inc_term, inc_vars)
            if prefix_end % query_stride and prefix_end != len(script):
                continue
            # Batch-solve the same prefix with the naive reference.
            batch = ConstraintSystem()
            batch.constructor("box", (Variance.COVARIANT,))
            batch_vars = batch.fresh_vars(var_count)

            def batch_term(step):
                return batch.term("box", (batch.zero,), label=f"t{step}")

            _apply_script(script[:prefix_end], batch.add, batch_term,
                          batch_vars)
            reference = solve_reference(batch)
            for inc_var, batch_var in zip(inc_vars, batch_vars):
                got = {str(t) for t in solver.least_solution(inc_var)}
                want = {
                    str(t) for t in reference.least_solution(batch_var)
                }
                assert got == want, (
                    f"seed={seed} prefix={prefix_end} var={inc_var}"
                )
        return solver

    def test_interleaved_queries_match_reference(self):
        cycles_seen = 0
        for seed in range(4):
            solver = self._run_differential(seed, query_stride=7)
            cycles_seen += solver.stats.cycles_found
        assert cycles_seen > 0, (
            "the differential never exercised an online collapse"
        )

    def test_query_immediately_after_collapse(self):
        """Crafted worst case: query the instant a collapse absorbs a
        variable that owns source terms."""
        solver = make_solver(form=self.form)
        box = solver.constructor("box", (Variance.COVARIANT,))
        a, b, c = (solver.fresh_var(n) for n in "abc")
        pa = solver.term(box, (solver.zero,), label="pa")
        pb = solver.term(box, (solver.one,), label="pb")
        # Sources live on the variables the collapse will absorb; the
        # c -> b -> a chain descends in rank, so closing a -> c is the
        # case SF-Online's partial (rank-decreasing) search must catch.
        solver.add(pa, c)
        solver.add(pb, b)
        solver.add(c, b)
        solver.add(b, a)
        before = {str(t) for t in solver.least_solution(a)}
        assert before == {"box[pa](0)", "box[pb](1)"}
        solver.add(a, c)
        assert solver.stats.cycles_found == 1
        assert solver.same_component(a, c)
        # The witness (a) absorbed b and c; their source buckets must
        # still be visible through every original variable.
        for var in (a, b, c):
            assert {str(t) for t in solver.least_solution(var)} \
                == {"box[pa](0)", "box[pb](1)"}, str(var)

    def test_every_add_matches_full_sweep(self):
        """After every ``add``, each variable's demand-driven answer
        equals the batch sweep's, read through ``find``."""
        import random

        for seed in range(4):
            script, var_count = _make_script(seed)
            solver = make_solver(form=self.form)
            solver.constructor("box", (Variance.COVARIANT,))
            variables = [solver.fresh_var() for _ in range(var_count)]

            def term(step):
                return solver.term("box", (solver.zero,), label=f"t{step}")

            rng = random.Random(seed)
            graph = solver._engine.graph
            for op in script:
                _apply_script([op], solver.add, term, variables)
                full = graph.compute_least_solution()
                # Random query order, so memoized cones get shared.
                for var in rng.sample(variables, len(variables)):
                    assert solver.least_solution(var) == full.get(
                        graph.find(var.index), frozenset()
                    ), (seed, op, str(var))


class TestInductiveFormDifferential(TestStandardFormDifferential):
    """The interleaved differential tests under IF-Online, where a
    query walks the variable's predecessor cone."""

    form = GraphForm.INDUCTIVE


def _chain_then_source(solver, length=40, descending=False):
    """Add a var chain ``x0 <= ... <= xn``, then a source at ``x0``.

    Under standard form every chain edge costs one work unit and the
    final source add costs one per chain variable, so only that last
    add can exhaust a small per-add budget.  ``descending`` creates the
    chain back to front, which gives inductive form the same costs.
    Returns the chain.
    """
    box = solver.constructor("box", (Variance.COVARIANT,))
    chain = [solver.fresh_var(f"x{i}") for i in range(length)]
    if descending:
        chain.reverse()
    for left, right in zip(chain, chain[1:]):
        solver.add(left, right)
    solver.add(solver.term(box, (solver.zero,), label="p"), chain[0])
    return chain


class TestSupervisedAdd:
    """Budgets, cancellation and stride audits apply to every ``add``."""

    def test_work_budget_raises_from_add(self):
        solver = make_solver(form=GraphForm.STANDARD,
                             budget=SolveBudget(max_work=5),
                             check_stride=1)
        with pytest.raises(BudgetExceededError) as excinfo:
            _chain_then_source(solver)
        assert excinfo.value.reason == "work"
        assert excinfo.value.limit == 5

    def test_partial_add_is_finished_by_a_later_add(self):
        plain = make_solver(form=GraphForm.STANDARD)
        plain_chain = _chain_then_source(plain)
        plain.add(plain.fresh_var(), plain.fresh_var())

        solver = make_solver(form=GraphForm.STANDARD,
                             budget=SolveBudget(max_work=25),
                             on_budget="partial", check_stride=1)
        chain = _chain_then_source(solver)
        assert solver.status is SolveStatus.BUDGET_EXHAUSTED
        assert solver.least_solution(chain[-1]) == frozenset()
        # A fresh per-add allowance drains the leftover worklist first.
        solver.add(solver.fresh_var(), solver.fresh_var())
        assert solver.status is SolveStatus.COMPLETE
        assert counters_of(solver) == counters_of(plain)
        assert len(solver.least_solution(chain[-1])) == 1
        assert len(plain.least_solution(plain_chain[-1])) == 1

    def test_cancelled_token_raises_from_add(self):
        token = CancellationToken()
        solver = make_solver(cancellation=token, check_stride=1)
        x, y = solver.fresh_var(), solver.fresh_var()
        solver.add(x, y)
        token.cancel()
        with pytest.raises(SolveCancelledError):
            solver.add(y, x)

    @pytest.mark.parametrize("label", ("SF-Online", "IF-Online"))
    def test_stride_audit_runs_during_add(self, monkeypatch, label):
        # Union without re-emitting or clearing the absorbed variable:
        # the nonrep-state invariant the auditor checks.
        def broken(self, absorbed, witness):
            self.parent[absorbed] = witness
            self.stats.vars_eliminated += 1

        monkeypatch.setattr(ConstraintGraphBase, "_absorb", broken)
        system = random_system(RandomSystemConfig(
            seed=0, sinks=0, structural=0, extremes=0.0, feedback=0.4,
        ))
        with pytest.raises(GraphInvariantError):
            solve_incremental(system, options_for(label, audit="stride-1"))

    def test_stride_audit_checks_inside_each_add(self, monkeypatch):
        from repro.solver import engine as engine_module

        calls = []
        real = engine_module.audit_graph

        def counting(graph):
            calls.append(1)
            return real(graph)

        monkeypatch.setattr(engine_module, "audit_graph", counting)
        system = random_system(RandomSystemConfig(seed=1))
        solve_incremental(system, options_for("IF-Online", audit="stride-2"))
        # The end-of-add audit alone would run once per constraint.
        assert len(calls) > len(system.constraints)


class TestDemandQueries:
    """The memoized per-variable query path of ``least_solution``."""

    def test_queries_are_timed_and_spanned(self):
        from repro.trace import CollectorSink

        sink = CollectorSink()
        solver = make_solver(sink=sink)
        x, y = solver.fresh_var(), solver.fresh_var()
        solver.add(x, y)
        assert solver.stats.least_solution_seconds == 0.0
        solver.least_solution(y)
        solver.least_solution(x)
        assert solver.stats.least_solution_seconds > 0.0
        spans = [
            event.name for event in sink.events
            if event.name.startswith("phase.")
            and event.args["name"] == "least-solution"
        ]
        assert spans == ["phase.begin", "phase.end"] * 2

    def test_pred_chain_longer_than_recursion_limit(self):
        import sys

        # Incrementally created variables are ranked by creation, so
        # every chain edge is a predecessor edge and the last
        # variable's cone is the whole chain.
        solver = make_solver()
        box = solver.constructor("box", (Variance.COVARIANT,))
        length = sys.getrecursionlimit() + 100
        chain = [solver.fresh_var() for _ in range(length)]
        payload = solver.term(box, (solver.zero,), label="p")
        solver.add(payload, chain[0])
        for left, right in zip(chain, chain[1:]):
            solver.add(left, right)
        assert solver.least_solution(chain[-1]) == frozenset({payload})

    @pytest.mark.parametrize("form", (GraphForm.STANDARD,
                                      GraphForm.INDUCTIVE))
    def test_add_growing_the_cone_invalidates(self, form):
        solver = make_solver(form=form)
        box = solver.constructor("box", (Variance.COVARIANT,))
        x, y, z = (solver.fresh_var(n) for n in "xyz")
        p = solver.term(box, (solver.zero,), label="p")
        q = solver.term(box, (solver.one,), label="q")
        solver.add(p, x)
        solver.add(x, y)
        assert solver.least_solution(y) == frozenset({p})
        solver.add(q, z)
        solver.add(z, x)
        assert solver.least_solution(y) == frozenset({p, q})

    @pytest.mark.parametrize("form", (GraphForm.STANDARD,
                                      GraphForm.INDUCTIVE))
    def test_restore_invalidates(self, form):
        # A chain against creation order is all successor edges, so
        # under both forms the budget stops the final source add
        # before the term reaches the end of the chain.
        partial = make_solver(form=form,
                              budget=SolveBudget(max_work=25),
                              on_budget="partial", check_stride=1)
        chain = _chain_then_source(partial, descending=True)
        assert partial.status is SolveStatus.BUDGET_EXHAUSTED
        assert partial.least_solution(chain[-1]) == frozenset()

        complete = make_solver(form=form, checkpointable=True)
        _chain_then_source(complete, descending=True)
        partial.restore(complete.checkpoint())
        assert len(partial.least_solution(chain[-1])) == 1


class TestForeignVariables:
    """Queries reject variables not made by this solver's ``fresh_var``
    (colliding index or past the end) instead of answering for another
    variable or raising IndexError."""

    def solver_and_foreign(self):
        solver = make_solver()
        box = solver.constructor("box", (Variance.COVARIANT,))
        x, y = solver.fresh_var("x"), solver.fresh_var("y")
        solver.add(solver.term(box, (solver.zero,), label="p"), x)
        solver.add(x, y)
        other = ConstraintSystem("other")
        foreign = [other.fresh_var() for _ in range(5)]
        return solver, x, (foreign[0], foreign[4])

    def test_least_solution_rejects_foreign_var(self):
        from repro.constraints import MalformedExpressionError

        solver, _, foreign = self.solver_and_foreign()
        for var in foreign:
            with pytest.raises(MalformedExpressionError):
                solver.least_solution(var)

    def test_representative_rejects_foreign_var(self):
        from repro.constraints import MalformedExpressionError

        solver, _, foreign = self.solver_and_foreign()
        for var in foreign:
            with pytest.raises(MalformedExpressionError):
                solver.representative(var)

    def test_same_component_rejects_foreign_var(self):
        from repro.constraints import MalformedExpressionError

        solver, x, foreign = self.solver_and_foreign()
        for var in foreign:
            with pytest.raises(MalformedExpressionError):
                solver.same_component(x, var)
            with pytest.raises(MalformedExpressionError):
                solver.same_component(var, x)


class TestJournalCompaction:
    """A journaling session drops its dead log records as it goes, on
    either kernel (each ``_absorb`` counts the records it kills)."""

    @pytest.fixture(autouse=True, params=["python", "native"])
    def _kernel(self, request, monkeypatch):
        from repro.solver import engine as engine_module
        from repro.solver import kernel, native

        if request.param == "python":
            monkeypatch.setattr(engine_module, "run_kernel",
                                kernel.run_kernel)
        elif native.kernel is None:
            pytest.skip(f"native kernel unavailable: {native.build_error}")

    def test_log_stays_within_twice_its_live_records(self, monkeypatch):
        from repro.graph.base import live_records
        from repro.workloads import suite

        (benchmark,) = [b for b in suite("medium") if b.name == "li"]
        seen = {"adds": 0}
        real_add = IncrementalSolver.add

        def add(self, left, right):
            graph = self._engine.graph
            real_add(self, left, right)
            journal = graph.journal
            records = len(journal) // 3
            live = records - graph.dead_records
            assert records <= 2 * live or records == 0, seen["adds"]
            if seen["adds"] % 97 == 0:
                # dead_records counts exactly what a capture would drop
                assert 3 * live == len(live_records(journal, graph.parent))
            seen["adds"] += 1

        monkeypatch.setattr(IncrementalSolver, "add", add)
        solver = solve_incremental(
            benchmark.program.system,
            options_for("IF-Online", checkpointable=True))
        assert seen["adds"] == len(benchmark.program.system)
        assert solver.stats.vars_eliminated > 0
        assert solver._engine.graph.dead_records > 0

    @pytest.mark.parametrize("form, descending", [
        (GraphForm.STANDARD, True), (GraphForm.INDUCTIVE, False),
    ])
    def test_a_collapse_of_most_records_compacts(self, form, descending):
        """A chain whose sources reach down it collapses into one
        variable: most records die, and the drain drops them."""
        from repro.graph import CreationOrder
        from repro.graph.base import live_records
        from repro.resilience import capture, restore

        options = SolverOptions(form=form, cycles=CyclePolicy.ONLINE,
                                order=CreationOrder(), checkpointable=True)
        solver = IncrementalSolver(options)
        box = solver.constructor("box", (Variance.COVARIANT,))
        chain = [solver.fresh_var(f"x{i}") for i in range(10)]
        for i, var in enumerate(chain):
            solver.add(solver.term(box, (solver.zero,), label=f"s{i}"), var)
        links = list(zip(chain, chain[1:]))
        if descending:
            links = [(right, left) for left, right in links]
        for left, right in links:
            solver.add(left, right)
        graph = solver._engine.graph
        before = len(graph.journal)
        # The edge that closes the chain into a cycle.
        if descending:
            solver.add(chain[0], chain[-1])
        else:
            solver.add(chain[-1], chain[0])
        assert solver.stats.vars_eliminated == len(chain) - 1
        assert len(graph.journal) < before
        assert graph.journal == live_records(graph.journal, graph.parent)
        assert graph.dead_records == 0
        restored = restore(solver.system, options, capture(solver._engine))
        assert [[list(bucket) for bucket in buckets]
                for buckets in restored.graph.buckets()] \
            == [[list(bucket) for bucket in buckets]
                for buckets in graph.buckets()]
