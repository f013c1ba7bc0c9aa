"""Incremental solving.

The whole point of *online* cycle elimination is that the solver never
needs to see the constraint set up front — so expose that: an
:class:`IncrementalSolver` accepts constraints one at a time (closing
the graph after each batch) and answers least-solution queries between
additions.  Batch solving is the special case of one big batch.

Queries are demand-driven: ``least_solution(v)`` evaluates the paper's
equation (1) only on ``v``'s predecessor cone (inductive form) or reads
``v``'s representative's source bucket (standard form), memoized per
representative until the next :meth:`IncrementalSolver.add`.  An edit
followed by a query therefore costs in proportion to the edit and the
cone, not to the whole graph; batch solving keeps its one full sweep.

Each addition runs through the same engine drain as a batch solve, so
budgets, cancellation and audits apply per addition (the ``final``
audit after every closed addition).  Whole-system validation stays
batch-only: ``ConstraintSystem.add`` already checks each expression,
and re-validating the system would cost O(n) per edit.

Restrictions: the oracle policy needs the final graph and therefore
cannot run incrementally (use NONE or ONLINE), and variables must be
created through :meth:`fresh_var` so the graph can grow with them.
"""

from __future__ import annotations

import time
from typing import Dict, FrozenSet, List, Optional

from ..constraints.errors import ConstraintDiagnostic
from ..constraints.expressions import SetExpression, Term, Var
from ..constraints.system import ConstraintSystem
from ..graph.base import OP_RESOLVE
from ..resilience.budget import SolveStatus
from .engine import SolverEngine
from .options import CyclePolicy, SolverOptions


class IncrementalSolver:
    """Add constraints and query solutions at any time."""

    def __init__(self, options: Optional[SolverOptions] = None) -> None:
        if options is None:
            options = SolverOptions()
        if options.cycles is CyclePolicy.ORACLE:
            raise ValueError(
                "the oracle needs the complete constraint set; use "
                "CyclePolicy.NONE or CyclePolicy.ONLINE incrementally"
            )
        self.system = ConstraintSystem("incremental")
        self.options = options
        self._engine = SolverEngine(self.system, options)
        #: solved representatives since the last change to the graph
        self._memo: Dict[int, FrozenSet[Term]] = {}

    # ------------------------------------------------------------------
    # Construction API (delegates to the underlying system)
    # ------------------------------------------------------------------
    def constructor(self, name, signature=()):
        return self.system.constructor(name, signature)

    def term(self, constructor, args=(), label=None) -> Term:
        return self.system.term(constructor, args, label)

    def fresh_var(self, name: str = "") -> Var:
        var = self.system.fresh_var(name)
        self._engine.graph.grow(self.system.num_vars)
        return var

    @property
    def zero(self) -> Term:
        return self.system.zero

    @property
    def one(self) -> Term:
        return self.system.one

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def add(self, left: SetExpression, right: SetExpression) -> None:
        """Add one constraint and immediately close the graph.

        The closure is one :meth:`SolverEngine.drain` segment, so the
        options' budget, cancellation token and audit policy apply to
        each ``add``.  After a partial stop (``on_budget="partial"``,
        see :attr:`status`) the unprocessed worklist is kept, and the
        next ``add`` finishes it before its own constraint.
        """
        self.system.add(left, right)
        self._memo = {}
        self._engine.pending.append((OP_RESOLVE, left, right))
        self._engine.drain()

    def add_all(self, pairs) -> None:
        for left, right in pairs:
            self.add(left, right)

    def least_solution(self, var: Var) -> FrozenSet[Term]:
        """Current least solution of ``var``.

        Answered by the graph's :meth:`~repro.graph.base.
        ConstraintGraphBase.least_solution_of` from the memo kept since
        the last :meth:`add`.  After a partial drain the answer is a
        subset of the complete one (see :attr:`status`).  The time is
        added to ``stats.least_solution_seconds`` and, with a trace
        sink, spanned as a ``least-solution`` phase.
        """
        self.system.check_var(var)
        engine = self._engine
        sink = engine.sink
        started = time.perf_counter()
        if sink is not None:
            sink.phase_begin("least-solution")
        answer = engine.graph.least_solution_of(var.index, self._memo)
        engine.stats.least_solution_seconds += (
            time.perf_counter() - started
        )
        if sink is not None:
            sink.phase_end("least-solution")
        return answer

    # ------------------------------------------------------------------
    # Checkpoint / restore between batches
    # ------------------------------------------------------------------
    def checkpoint(self):
        """Snapshot the engine between batches (see
        :mod:`repro.resilience.checkpoint`); requires
        ``SolverOptions(checkpointable=True)``."""
        from ..resilience.checkpoint import capture

        return capture(self._engine)

    def restore(self, checkpoint) -> None:
        """Replace the engine with one rebuilt from ``checkpoint``.

        The system may have grown (``fresh_var``) since the capture;
        restore keeps the checkpoint's materialized variable order for
        the saved prefix and extends it deterministically, so
        continuing to ``add`` after a restore reproduces the exact
        counters of a never-interrupted run.
        """
        from ..resilience.checkpoint import restore as restore_engine

        self._engine = restore_engine(
            self.system, self.options, checkpoint
        )
        self._memo = {}

    def representative(self, var: Var) -> int:
        """Index of the component ``var`` was collapsed into.

        Like :meth:`least_solution` and :meth:`same_component`, accepts
        only variables made by :meth:`fresh_var`
        (:class:`~repro.constraints.errors.MalformedExpressionError`
        otherwise).
        """
        self.system.check_var(var)
        return self._engine.graph.find(var.index)

    def same_component(self, a: Var, b: Var) -> bool:
        return self.representative(a) == self.representative(b)

    @property
    def stats(self):
        return self._engine.stats

    @property
    def status(self) -> SolveStatus:
        """How the last :meth:`add` ended (partial after a budget stop)."""
        return self._engine.status

    @property
    def diagnostics(self) -> List[ConstraintDiagnostic]:
        return self._engine.diagnostics
