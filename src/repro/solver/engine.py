"""The resolution engine.

One engine drives all six experiment configurations: it drains a
worklist of atomic operations through the closure kernel
(:mod:`repro.solver.kernel`), which updates the active graph
representation and emits further operations.  Every processed
``vv``/``sv``/``vs`` operation is one unit of Work — the paper's cost
metric — and ``rr`` operations apply the resolution rules ``R`` to a
source/sink pair.

There is one closure loop, :meth:`SolverEngine.drain`: a batch solve is
a single drain of every constraint, an incremental solve one drain per
added constraint.
"""

from __future__ import annotations

import sys
import time
from collections import deque
from operator import methodcaller
from typing import Deque, Dict, FrozenSet, List, Optional

from ..constraints.errors import ConstraintDiagnostic
from ..constraints.expressions import Term
from ..constraints.system import ConstraintSystem
from ..graph.base import OP_RESOLVE, ConstraintGraphBase, Op
from ..graph.inductive import InductiveGraph
from ..graph.standard import StandardGraph
from ..graph.stats import SolverStats
from ..resilience.audit import AuditPolicy, audit_graph
from ..resilience.budget import SolveStatus, edge_estimate
from ..resilience.errors import (
    BudgetExceededError,
    GraphInvariantError,
    SolveCancelledError,
)
from . import kernel, native
from .options import CyclePolicy, GraphForm, SolverOptions
from .solution import Solution

#: Chunk length of an unsupervised drain: never reached.
_UNBOUNDED = sys.maxsize

#: The closure kernel and the steps of :meth:`SolverEngine.run` around
#: it: the native ones when they built (see :mod:`repro.solver.native`),
#: the Python ones, which they reproduce exactly, otherwise.
if native.kernel is not None:
    run_kernel = native.kernel.run_kernel
    validate_system = native.kernel.validate
    finalize_statistics = native.kernel.finalize_statistics
    compute_least_solution = native.kernel.compute_least_solution
else:
    run_kernel = kernel.run_kernel
    validate_system = methodcaller("validate")
    finalize_statistics = methodcaller("finalize_statistics")
    compute_least_solution = methodcaller("compute_least_solution")

#: The reference cycle collapse, as this module found it.  The native
#: kernel runs its own copy of it, so a graph class that replaces
#: either method (a test's fault injection) is closed by the Python
#: kernel, which calls the graph's methods.
_REFERENCE_COLLAPSE = (ConstraintGraphBase.collapse_path,
                       ConstraintGraphBase._absorb)


class SolverEngine:
    """Solve one constraint system under one configuration.

    Batch engines are single-use: construct, :meth:`run`, discard.
    :class:`~repro.solver.IncrementalSolver` keeps one engine alive and
    calls :meth:`drain` after each added constraint.  The oracle policy
    is handled one level up (:func:`repro.solver.solve`) because it
    needs two engine runs.
    """

    def __init__(self, system: ConstraintSystem,
                 options: SolverOptions,
                 alias_map: Optional[Dict[int, int]] = None) -> None:
        """``alias_map`` (variable index -> witness index) pre-collapses
        variables before any constraint is processed: the oracle's
        phase 2 (:func:`~repro.solver.oracle.solve_with_oracle`)."""
        if options.cycles is CyclePolicy.ORACLE:
            raise ValueError(
                "oracle runs must go through repro.solver.solve, which "
                "performs the two-phase witness computation"
            )
        self.system = system
        self.options = options
        self.stats = SolverStats()
        self.diagnostics: List[ConstraintDiagnostic] = []
        self.pending: Deque[Op] = deque()
        self.sink = options.sink
        graph_class = (
            StandardGraph
            if options.form is GraphForm.STANDARD
            else InductiveGraph
        )
        self.graph = graph_class(
            system.num_vars,
            options.order_spec(),
            self.stats,
            self.pending.append,
            online_cycles=options.cycles is CyclePolicy.ONLINE,
            search_mode=options.search_mode,
            sink=self.sink,
        )
        #: whether the module's ``run_kernel`` may close the graph
        #: (see :data:`_REFERENCE_COLLAPSE`)
        self._reference_collapse = (
            graph_class.collapse_path,
            graph_class._absorb,
        ) == _REFERENCE_COLLAPSE
        for name in ("periodic_interval", "check_stride"):
            value = getattr(options, name)
            if value < 1:
                raise ValueError(
                    f"SolverOptions.{name} must be at least 1, got {value!r}"
                )
        self._periodic = options.cycles is CyclePolicy.PERIODIC
        self._periodic_interval = options.periodic_interval
        self._since_sweep = 0
        # --- resilience layer -----------------------------------------
        # Inert unless a budget, cancellation token, or stride audit is
        # configured: an unsupervised drain runs in unbounded chunks.
        if options.on_budget not in ("raise", "partial"):
            raise ValueError(
                f"SolverOptions.on_budget must be 'raise' or 'partial', "
                f"got {options.on_budget!r}"
            )
        budget = options.budget
        self._budget = (
            budget if budget is not None and budget.bounded else None
        )
        self._cancellation = options.cancellation
        self._on_budget_partial = options.on_budget == "partial"
        #: operations between budget/cancellation checks; None = no checks
        self._check_stride = (
            options.check_stride
            if self._budget is not None or self._cancellation is not None
            else None
        )
        self._audit_policy = AuditPolicy.parse(options.audit)
        self._closure_started = 0.0
        self._segment_work = 0
        self._segment_edges = 0
        #: how the last :meth:`drain` ended
        self.status = SolveStatus.COMPLETE
        # Interruptible runs are the ones that get checkpointed, so they
        # journal bucket insertion order for exact resume.
        if (options.checkpointable
                or self._budget is not None
                or self._cancellation is not None):
            self.graph.enable_journal()
        if alias_map:
            for var_index, witness_index in alias_map.items():
                self.graph.alias(var_index, witness_index)

    # ------------------------------------------------------------------
    def run(self) -> Solution:
        """Validate the system, close the graph and compute the least
        solution."""
        validate_system(self.system)
        append = self.pending.append
        for left, right in self.system.constraints:
            append((OP_RESOLVE, left, right))
        return self._complete()

    def resume(self) -> Solution:
        """Finish a run from the engine's current state.

        Used after a partial stop (``on_budget="partial"``) or on an
        engine rebuilt by :func:`repro.resilience.checkpoint.restore`:
        drains whatever is pending and finalizes.  Budget limits are
        per segment (see :class:`~repro.resilience.budget.SolveBudget`),
        so each resume gets a fresh allowance and makes progress.
        """
        return self._complete()

    def _complete(self) -> Solution:
        """Drain the pending worklist, finalize, and build the solution."""
        self.drain()
        sink = self.sink
        if sink is not None:
            sink.phase_begin("finalize")
        finalize_statistics(self.graph)
        if sink is not None:
            sink.phase_end("finalize")
        started = time.perf_counter()
        if sink is not None:
            sink.phase_begin("least-solution")
        least = self._least_solution()
        self.stats.least_solution_seconds = time.perf_counter() - started
        if sink is not None:
            sink.phase_end("least-solution")
        return self._make_solution(least)

    # ------------------------------------------------------------------
    def drain(self) -> None:
        """Process the pending worklist as one closure segment.

        The single entry to the closure loop: batch runs
        (:meth:`run`/:meth:`resume`) and every
        :meth:`IncrementalSolver.add <repro.solver.IncrementalSolver.add>`
        go through here, so budgets, cancellation, audits, the
        ``closure`` phase span and ``closure_seconds`` apply to both.
        Budget limits bound this segment's growth, not the cumulative
        (possibly restored) counters.

        On a fixpoint the final audit runs (if configured) and
        :attr:`status` becomes ``COMPLETE`` (or ``INCONSISTENT`` when
        clashes were recorded).  On a limit the drain either raises
        (``on_budget="raise"``) or sets a partial :attr:`status` and
        returns with the remaining worklist intact, ready for
        :func:`repro.resilience.checkpoint.capture`, another drain, or
        :meth:`resume`.  A drain that returns ends by compacting the
        graph's insertion log (:meth:`~repro.graph.base.
        ConstraintGraphBase.compact_journal`).
        """
        sink = self.sink
        stats = self.stats
        started = time.perf_counter()
        self._closure_started = started
        self._segment_work = stats.work
        self._segment_edges = edge_estimate(stats)
        if sink is not None:
            sink.phase_begin("closure")
        try:
            self.status = self._dispatch()
            self.graph.compact_journal()
        finally:
            # += so interrupted closure time survives checkpoint/resume
            # and accumulates across incremental batches.
            stats.closure_seconds += time.perf_counter() - started
            if sink is not None:
                sink.phase_end("closure")

    def _dispatch(self) -> SolveStatus:
        """Run the closure kernel in chunks between supervision checks.

        Budget/cancellation checks (before the first operation, then
        every ``check_stride``) and stride audits (every ``N``
        operations) happen only at chunk boundaries; an unsupervised
        run is one unbounded chunk.  Chunks count atomic operations,
        not worklist entries (:func:`~repro.solver.kernel.run_kernel`
        splits a fan-out entry at a chunk boundary).  The checks
        observe and stop — they never reorder or skip operations — so
        counters are identical to an unsupervised run.

        The kernel is the module's ``run_kernel`` (the native one when
        it built), or the Python kernel when the graph's class replaced
        the reference collapse (:data:`_REFERENCE_COLLAPSE`).
        """
        pending = self.pending
        run = run_kernel if self._reference_collapse else kernel.run_kernel
        check_stride = self._check_stride
        audit_stride = self._audit_policy.stride
        until_check = 0 if check_stride is not None else _UNBOUNDED
        until_audit = audit_stride or _UNBOUNDED
        while pending:
            if until_check == 0:
                stopped = self._check_limits()
                if stopped is not None:
                    return stopped
                until_check = check_stride
            if until_audit == 0:
                self._run_audit()
                until_audit = audit_stride
            done = run(self, min(until_check, until_audit))
            until_check -= done
            until_audit -= done
        if self._audit_policy.final:
            self._run_audit()
        return (
            SolveStatus.INCONSISTENT
            if self.diagnostics
            else SolveStatus.COMPLETE
        )

    def _sweep(self) -> None:
        """One periodic SCC sweep (``CyclePolicy.PERIODIC``)."""
        self.stats.periodic_sweeps += 1
        eliminated = self.graph.collapse_all_sccs()
        if self.sink is not None:
            self.sink.sweep(eliminated)

    def _check_limits(self) -> Optional[SolveStatus]:
        """Poll cancellation and budget; a status means stop (partial)."""
        sink = self.sink
        cancellation = self._cancellation
        if cancellation is not None and cancellation.cancelled:
            if sink is not None:
                sink.budget_stop("cancelled", 0.0, self.stats.work)
            if self._on_budget_partial:
                return SolveStatus.CANCELLED
            raise SolveCancelledError(self.stats.work)
        budget = self._budget
        if budget is not None:
            elapsed = time.perf_counter() - self._closure_started
            hit = budget.exceeded(
                self.stats.work - self._segment_work,
                edge_estimate(self.stats) - self._segment_edges,
                elapsed,
            )
            if hit is not None:
                reason, limit, value = hit
                if sink is not None:
                    sink.budget_stop(reason, limit, value)
                if self._on_budget_partial:
                    return SolveStatus.BUDGET_EXHAUSTED
                raise BudgetExceededError(
                    reason, limit, value, self.stats.work
                )
        return None

    def _run_audit(self) -> None:
        """Audit graph invariants; report failures and raise on any."""
        failures = audit_graph(self.graph)
        if not failures:
            return
        sink = self.sink
        if sink is not None:
            for failure in failures:
                sink.audit_failure(failure)
        raise GraphInvariantError(failures)

    def _least_solution(self) -> Dict[int, FrozenSet[Term]]:
        # Both graph forms compute it: IF sweeps predecessors in rank
        # order (equation (1)); SF reads the explicit source buckets.
        return compute_least_solution(self.graph)

    def _make_solution(self, least: Dict[int, FrozenSet[Term]]) -> Solution:
        return Solution(
            self.system,
            self.options,
            self.graph,
            least,
            self.stats,
            self.diagnostics,
            num_vars=self.system.num_vars,
            status=self.status,
        )
