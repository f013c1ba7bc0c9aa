"""The benchmark's three workloads.

Each workload builds its inputs from the run seed in :meth:`setup`,
runs one complete pass over them in :meth:`run_pass` (one closed-loop
client, one thread: the next operation starts when the previous one
returns) and checks every output against the independent reference
solver in :meth:`failures`.  Only public entry points of the program
are called; every call into a layer sits inside a span of the
recorder it is given (a no-op recorder in the untraced run).

Why each workload exists is recorded in ``BENCHMARK.json``.
"""

from __future__ import annotations

import dataclasses
import random
import time
from typing import Dict, List, Optional, Tuple

from repro.andersen import PointsToResult, analyze_unit
from repro.cfront import parse
from repro.constraints import ConstraintSystem
from repro.constraints.expressions import Var, variables_of
from repro.solver import (
    GraphForm,
    IncrementalSolver,
    SolverOptions,
    solve,
    solve_reference,
)
from repro.workloads.generator import GeneratorConfig, generate_program
from repro.workloads.suite import FULL_SUITE

import reference

#: SolverStats counters that repeat exactly for one input and hash seed;
#: the exact-count guard compares them between passes and between runs.
COUNTERS = (
    "work", "redundant", "self_edges", "resolutions", "clashes",
    "cycle_searches", "cycle_search_visits", "cycles_found",
    "vars_eliminated", "final_var_var_edges", "final_source_edges",
    "final_sink_edges",
)

FORMS = {"sf_online": GraphForm.STANDARD, "if_online": GraphForm.INDUCTIVE}


def counters(stats) -> Tuple[int, ...]:
    return tuple(getattr(stats, name) for name in COUNTERS)


def suite_config(name: str) -> GeneratorConfig:
    for config in FULL_SUITE:
        if config.name == name:
            return config
    raise KeyError(name)


def reseeded(template: str, rng: random.Random, tag: str) -> GeneratorConfig:
    """A fresh draw of a Table-1 program's shape: same size knobs, new
    generator seed taken from ``rng``."""
    return dataclasses.replace(
        suite_config(template), name=tag, seed=rng.randrange(2 ** 31)
    )


@dataclasses.dataclass
class Op:
    """One timed operation and what it produced."""

    #: the operation's key, the same in every pass: the input's index
    #: (closure-online pairs it with the form solved)
    request: object
    #: seconds
    latency: float
    #: workload units the operation completed (throughput numerator)
    units: int
    #: input constraints handed to the solver
    constraints: int
    #: output rendering compared against the reference
    output: object
    #: deterministic counters (exact-count guard)
    counts: Tuple[int, ...]


@dataclasses.dataclass
class SolverRun:
    """One solver run's statistics, for the per-layer metrics."""

    form: str
    constraints: int
    stats: object


def _build_program(config: GeneratorConfig, recorder):
    with recorder.span("workloads.generate"):
        source = generate_program(config)
    return _analyze(source, config.name, recorder)


def _analyze(source: str, name: str, recorder):
    with recorder.span("cfront.parse"):
        unit = parse(source, filename=name)
    with recorder.span("andersen.analyze_unit"):
        program = analyze_unit(unit)
    recorder.count("cfront.nodes", program.ast_nodes)
    recorder.count("andersen.constraints", len(program.system))
    recorder.count("andersen.vars", program.system.num_vars)
    return program


def _validate(system: ConstraintSystem, recorder) -> None:
    """The traced run times ``validate`` by a separate call."""
    if recorder.enabled:
        with recorder.span("constraints.validate"):
            system.validate()


# ----------------------------------------------------------------------
# pointsto-batch
# ----------------------------------------------------------------------
class PointsToBatch:
    """Source text -> parse -> analyze_unit -> solve -> points-to graph.

    Per pass: 24 draws of the ``allroots`` shape (~400 AST nodes), 66 of
    ``ks`` (~800) and 14 of ``compiler`` (~2.6k), plus the fixed Table-1
    ``less-177`` (~10k nodes).  The counts put p50 in the middle of the
    ``ks`` stratum and p90 inside the ``compiler`` stratum rather than on
    a stratum boundary.  Larger programs are left out: one cvs-1.3 (55k
    nodes) takes 3.5 s, which leaves too few passes in a run.
    """

    name = "pointsto-batch"
    SEEDED = (("allroots", 24), ("ks", 66), ("compiler", 14))
    FIXED = ("less-177",)

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.inputs: List[Tuple[str, str]] = []

    def setup(self, recorder) -> None:
        rng = random.Random(f"{self.name}:{self.seed}")
        configs = [
            reseeded(template, rng, f"{template}#{index}")
            for template, count in self.SEEDED
            for index in range(count)
        ]
        configs.extend(suite_config(name) for name in self.FIXED)
        rng.shuffle(configs)
        inputs = []
        for config in configs:
            with recorder.span("workloads.generate"):
                inputs.append((config.name, generate_program(config)))
        self.inputs = inputs

    def run_pass(self, recorder, pass_index: int) -> List[Op]:
        ops = []
        for index, (name, source) in enumerate(self.inputs):
            with recorder.span("batch.program",
                               request=f"{pass_index}/{index}"):
                started = time.perf_counter()
                program = _analyze(source, name, recorder)
                with recorder.span("solver.solve"):
                    solution = solve(program.system)
                with recorder.span("pointsto.extract"):
                    result = PointsToResult(program, solution)
                    result.graph
                latency = time.perf_counter() - started
                _validate(program.system, recorder)
            ops.append(Op(index, latency,
                          program.ast_nodes,
                          len(program.system),
                          reference.points_to_digest(result),
                          counters(solution.stats)))
            recorder.solver_run(
                SolverRun("if_online", len(program.system), solution.stats)
            )
        return ops

    def failures(self, ops: List[Op]) -> int:
        expected = {}
        for index, (name, source) in enumerate(self.inputs):
            program = analyze_unit(parse(source, filename=name))
            expected[index] = reference.points_to_digest(
                PointsToResult(program, solve_reference(program.system))
            )
        return sum(op.output != expected[op.request] for op in ops)


# ----------------------------------------------------------------------
# closure-online
# ----------------------------------------------------------------------
class ClosureOnline:
    """Prebuilt constraint systems solved alternately under SF-Online and
    IF-Online, least solution included.

    Per pass: the Table-1 programs on either side of the suite's middle
    (``ML-typecheck`` and ``eqntott``: ~4.2k and ~5.7k AST nodes),
    solved under 30 and 20 seeded random variable orders o(.) and both
    forms: 100 solves, enough for a p90 with 10 samples beyond it.  The
    solves fall into four bands by program and form (fastest first:
    ML-typecheck SF and IF, eqntott IF and SF); the unequal order counts
    put p50 inside the second band and p90 inside the fourth rather than
    on a band boundary.  The programs are fixed so that a seed changes
    only the orders: a seeded draw of the programs moved the latencies
    by more than the bounds.  The order changes the solver's Work and
    cycle detection but not the least solution, so one reference solve
    per system checks all of its solves.  Outputs are rendered in the
    first pass only; later passes must repeat its exact counters.
    """

    name = "closure-online"
    #: program -> number of seeded variable orders it is solved under
    PROGRAMS = {"ML-typecheck": 30, "eqntott": 20}

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.systems: List[ConstraintSystem] = []
        self.order_seeds: List[List[int]] = []

    def setup(self, recorder) -> None:
        rng = random.Random(f"{self.name}:{self.seed}")
        self.order_seeds = [[rng.randrange(2 ** 31) for _ in range(orders)]
                            for orders in self.PROGRAMS.values()]
        self.systems = [_build_program(suite_config(name), recorder).system
                        for name in self.PROGRAMS]

    def run_pass(self, recorder, pass_index: int) -> List[Op]:
        forms = list(FORMS)
        if pass_index % 2:
            forms.reverse()
        ops = []
        for index, system in enumerate(self.systems):
            for order, order_seed in enumerate(self.order_seeds[index]):
                for form in forms:
                    options = SolverOptions(form=FORMS[form], seed=order_seed)
                    with recorder.span(
                        "closure.solve",
                        request=f"{pass_index}/{index}/{order}/{form}",
                    ):
                        started = time.perf_counter()
                        with recorder.span("solver.solve"):
                            solution = solve(system, options)
                        latency = time.perf_counter() - started
                        _validate(system, recorder)
                    output = (reference.least_solution_digest(system,
                                                              solution)
                              if pass_index == 0 else None)
                    ops.append(Op((index, order, form), latency,
                                  len(system), len(system), output,
                                  counters(solution.stats)))
                    recorder.solver_run(
                        SolverRun(form, len(system), solution.stats)
                    )
        return ops

    def failures(self, ops: List[Op]) -> int:
        expected = [
            reference.least_solution_digest(system, solve_reference(system))
            for system in self.systems
        ]
        return sum(op.output is not None
                   and op.output != expected[op.request[0]] for op in ops)


# ----------------------------------------------------------------------
# edit-stream
# ----------------------------------------------------------------------
class Replayer:
    """Re-creates another system's expressions through a builder's API.

    The builder is an :class:`IncrementalSolver` (timed replay) or a
    :class:`ConstraintSystem` (reference prefixes); both expose
    ``fresh_var``, ``constructor`` and ``term``.  Variables are created
    when they first appear.
    """

    def __init__(self, builder) -> None:
        self.builder = builder
        self.vars: Dict[int, Var] = {}
        self._constructors: Dict[str, object] = {}

    def expr(self, node):
        if isinstance(node, Var):
            var = self.vars.get(node.index)
            if var is None:
                var = self.vars[node.index] = self.builder.fresh_var(
                    node.name)
            return var
        ctor = self._constructors.get(node.constructor.name)
        if ctor is None:
            ctor = self._constructors[node.constructor.name] = (
                self.builder.constructor(node.constructor.name,
                                         node.constructor.signature)
            )
        return self.builder.term(
            ctor, tuple(self.expr(arg) for arg in node.args), node.label
        )


def _labels(terms) -> Tuple[str, ...]:
    return tuple(sorted(reference.term_text(term) for term in terms))


class EditStream:
    """One mid-size program's constraints replayed through an
    IF-Online :class:`IncrementalSolver` as seeded small batches.

    The program is the Table-1 ``ML-typecheck``, the middle of the suite
    (~4.2k AST nodes, ~1.1k constraints, ~530 edits); the seed cuts its
    constraints into batches and picks the queries.  An edit builds its batch (1-3 constraints) through the
    solver's API, adds it, then queries the least solution of a seeded
    random location whose variable already exists; every add invalidates
    the cached least solution, so each query recomputes it.  A pass is
    one full replay into a fresh solver.
    """

    name = "edit-stream"
    PROGRAM = "ML-typecheck"
    CHECKED_EDITS = 4

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.edits: List[Tuple[tuple, int]] = []
        self.checked: Dict[int, Optional[Tuple[str, ...]]] = {}
        self.last_solver: Optional[IncrementalSolver] = None

    def setup(self, recorder) -> None:
        rng = random.Random(f"{self.name}:{self.seed}")
        program = _build_program(suite_config(self.PROGRAM), recorder)
        locations = {var.index for var in program.points_to_var.values()}
        constraints = program.system.constraints
        seen_locations: List[int] = []
        seen = set()
        edits = []
        position = 0
        while position < len(constraints):
            batch = constraints[position:position + rng.randint(1, 3)]
            position += len(batch)
            for left, right in batch:
                for var in variables_of(left) + variables_of(right):
                    if var.index not in seen:
                        seen.add(var.index)
                        if var.index in locations:
                            seen_locations.append(var.index)
            pool = seen_locations or sorted(seen)
            edits.append((batch, rng.choice(pool)))
        self.edits = edits
        self.checked = dict.fromkeys(
            sorted(rng.sample(range(len(edits)), self.CHECKED_EDITS))
        )

    def run_pass(self, recorder, pass_index: int) -> List[Op]:
        solver = IncrementalSolver()
        replay = Replayer(solver)
        before = counters(solver.stats)
        ops = []
        for index, (batch, query) in enumerate(self.edits):
            with recorder.span("edit", request=f"{pass_index}/{index}"):
                started = time.perf_counter()
                with recorder.span("incremental.build"):
                    pairs = [(replay.expr(left), replay.expr(right))
                             for left, right in batch]
                with recorder.span("incremental.add"):
                    for left, right in pairs:
                        solver.add(left, right)
                with recorder.span("incremental.query"):
                    answer = solver.least_solution(replay.vars[query])
                latency = time.perf_counter() - started
            output = _labels(answer) if index in self.checked else None
            after = counters(solver.stats)
            ops.append(Op(index, latency, 1,
                          len(batch), output,
                          tuple(a - b for a, b in zip(after, before))))
            before = after
        _validate(solver.system, recorder)
        recorder.solver_run(
            SolverRun("if_online", len(solver.system), solver.stats)
        )
        self.last_solver = solver
        return ops

    def failures(self, ops: List[Op]) -> int:
        expected = {}
        for index in self.checked:
            prefix = ConstraintSystem("prefix")
            replay = Replayer(prefix)
            for batch, _ in self.edits[:index + 1]:
                for left, right in batch:
                    prefix.add(replay.expr(left), replay.expr(right))
            answer = solve_reference(prefix).least_solution(
                replay.vars[self.edits[index][1]]
            )
            expected[index] = _labels(answer)
        failed = sum(
            op.request in expected and op.output != expected[op.request]
            for op in ops
        )
        # Final state: every variable of the last replay.
        solver = self.last_solver
        final = solve_reference(solver.system)
        if any(
            _labels(solver.least_solution(var))
            != _labels(final.least_solution(var))
            for var in solver.system.variables
        ):
            failed += 1
        return failed


WORKLOADS = {
    workload.name: workload
    for workload in (PointsToBatch, ClosureOnline, EditStream)
}
