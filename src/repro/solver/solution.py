"""Solved constraint systems.

A :class:`Solution` bundles the least solution, the final graph, the
statistics of the run, and any inconsistency diagnostics.  It is
immutable from the caller's perspective; all queries are read-only.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..constraints.errors import (
    ConstraintDiagnostic,
    InconsistentConstraintError,
    MalformedExpressionError,
)
from ..constraints.expressions import Term, Var
from ..constraints.system import ConstraintSystem
from ..graph.base import ConstraintGraphBase
from ..graph.scc import SccSummary, summarize_sccs
from ..graph.stats import SolverStats
from ..resilience.budget import SolveStatus
from .options import CyclePolicy, SolverOptions


class Solution:
    """The result of solving a constraint system.

    :attr:`status` records how the run ended.  For a partial status
    (:attr:`SolveStatus.is_partial` — budget exhausted or cancelled) the
    graph may not be fully closed, and every query degrades to a *sound
    lower bound*: :meth:`least_solution` returns a subset of the true
    least solution (closure only derives facts implied by the input, so
    nothing reported can be wrong — but facts may be missing), and
    :meth:`same_component` may answer ``False`` for variables a complete
    run would have collapsed (``True`` answers remain correct).
    Diagnostics recorded so far are genuine inconsistencies, but absence
    of diagnostics on a partial run proves nothing.
    """

    def __init__(
        self,
        system: ConstraintSystem,
        options: SolverOptions,
        graph: ConstraintGraphBase,
        least: Dict[int, FrozenSet[Term]],
        stats: SolverStats,
        diagnostics: List[ConstraintDiagnostic],
        num_vars: int = 0,
        status: SolveStatus = SolveStatus.COMPLETE,
    ) -> None:
        #: the solved system; queries accept only its own variables
        self.system = system
        self.options = options
        self.graph = graph
        self._least = least
        self.stats = stats
        self.diagnostics = diagnostics
        #: how the run ended (see the class docstring for the partial
        #: soundness contract)
        self.status = status
        self.num_vars = num_vars
        #: filled by the oracle driver: the phase-1 (plain) solution
        self.oracle_phase1: Optional["Solution"] = None
        #: number of variables pre-collapsed by the oracle witness map
        self.oracle_witnessed: int = 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def least_solution(self, var: Var) -> FrozenSet[Term]:
        """The least solution of ``var``: a set of source terms.

        ``var`` must belong to the solved system
        (:class:`~repro.constraints.errors.MalformedExpressionError`
        otherwise), as for :meth:`representative` and
        :meth:`same_component`.
        """
        return self._least.get(self._find(var), frozenset())

    def least_solution_by_index(self, index: int) -> FrozenSet[Term]:
        """The least solution of the variable numbered ``index``.

        ``index`` must lie in ``[0, num_vars)``
        (:class:`~repro.constraints.errors.MalformedExpressionError`
        otherwise), as :meth:`least_solution` accepts only the solved
        system's own variables.
        """
        if not 0 <= index < self.num_vars:
            raise MalformedExpressionError(
                f"variable index {index!r} is outside [0, {self.num_vars})"
            )
        rep = self.graph.find(index)
        return self._least.get(rep, frozenset())

    def representative(self, var: Var) -> int:
        """The witness index ``var`` was collapsed onto (itself if none)."""
        return self._find(var)

    def same_component(self, a: Var, b: Var) -> bool:
        """Whether two variables were collapsed together."""
        return self._find(a) == self._find(b)

    def _find(self, var: Var) -> int:
        self.system.check_var(var)
        return self.graph.find(var.index)

    @property
    def ok(self) -> bool:
        return not self.diagnostics

    @property
    def is_partial(self) -> bool:
        """Whether the run stopped before reaching a fixed point."""
        return self.status.is_partial

    def raise_on_errors(self) -> None:
        """Raise on the first recorded inconsistency, if any."""
        if self.diagnostics:
            raise InconsistentConstraintError(self.diagnostics[0])

    # ------------------------------------------------------------------
    # Final-graph SCC statistics (Table 1 / Figure 11 denominators)
    # ------------------------------------------------------------------
    @property
    def var_edges(self) -> Optional[Set[Tuple[int, int]]]:
        """The final var-var constraint graph over original variable ids.

        Defined for runs that collapsed nothing (``CyclePolicy.NONE``,
        and no variable forwarded in ``parent``, as the oracle's phase
        2 forwards them): their graph stores every processed var-var
        constraint except self loops, at its original ids.  ``None``
        for every other run, whose stored edges are between
        representatives.
        """
        if self.options.cycles is not CyclePolicy.NONE or any(
                up != var for var, up in enumerate(self.graph.parent)):
            return None
        succ_vars = self.graph.succ_vars
        pred_vars = self.graph.pred_vars
        edges = set()
        for var in range(self.graph.num_vars):
            edges.update((var, succ) for succ in succ_vars[var])
            edges.update((pred, var) for pred in pred_vars[var])
        return edges

    def final_scc_summary(self) -> SccSummary:
        """SCC summary of the final var-var constraint graph.

        Only for runs that collapsed nothing (see :attr:`var_edges`).
        """
        edges = self.var_edges
        if edges is None:
            raise ValueError(
                "final SCCs need a run that collapsed nothing; re-solve "
                "with CyclePolicy.NONE"
            )
        return summarize_sccs(range(self.num_vars), edges)

    def __repr__(self) -> str:
        if self.status is not SolveStatus.COMPLETE:
            return (
                f"Solution({self.options.label}, "
                f"status={self.status.value}, work={self.stats.work}, "
                f"edges={self.stats.final_edges}, "
                f"eliminated={self.stats.vars_eliminated})"
            )
        return (
            f"Solution({self.options.label}, work={self.stats.work}, "
            f"edges={self.stats.final_edges}, "
            f"eliminated={self.stats.vars_eliminated})"
        )
