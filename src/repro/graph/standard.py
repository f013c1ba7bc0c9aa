"""Standard form (SF) — paper Section 2.3.

All variable-variable constraints are successor edges; sources live in
predecessor position, sinks in successor position.  The closure rule

    L ...-> X -> R   =>   L <= R      (L always a source term)

propagates source terms forward to every reachable variable, so the
final graph contains the least solution explicitly: ``LS(X)`` is exactly
the source set of ``X``.

Online cycle elimination for SF (Section 2.5): when adding a successor
edge ``X -> Y``, search along successor edges *from Y* for a successor
chain back to ``X``, following only edges that point to lower-indexed
variables.  The paper's "increasing chains" ablation flips that
restriction.  The insertion itself is in the solver's closure kernel
(:mod:`repro.solver.kernel`); this class holds the least solution.
"""

from __future__ import annotations

from typing import Dict, FrozenSet

from ..constraints.expressions import Term
from .base import ConstraintGraphBase


class StandardGraph(ConstraintGraphBase):
    """Constraint graph in standard form."""

    # ------------------------------------------------------------------
    # Least solution: explicit in SF.
    # ------------------------------------------------------------------
    def least_solution_of(
        self, var_index: int, memo: Dict[int, FrozenSet[Term]]
    ) -> FrozenSet[Term]:
        """``LS`` of one variable: its representative's source bucket.

        The closure kernel stores sources at the representative, and
        ``_absorb`` empties every bucket it absorbs (re-emitting the
        terms against the witness), so ``sources[find(var_index)]`` is what
        :meth:`compute_least_solution` reads for the component, also
        after a partial drain, where terms still on the worklist are
        missing from both.  The frozen copy is kept in ``memo`` until
        the graph next changes.
        """
        rep = self.find(var_index)
        solved = memo.get(rep)
        if solved is None:
            solved = memo[rep] = frozenset(self.sources[rep])
        return solved

    def compute_least_solution(self) -> Dict[int, FrozenSet[Term]]:
        """``LS`` for every representative — explicit in standard form.

        The source bucket of each representative, frozen: absorbed
        buckets are empty (see :meth:`least_solution_of`), so the
        component's terms are all at its representative.  Pure read —
        no counters or log entries are touched.
        """
        parent = self.parent
        sources = self.sources
        return {
            rep: frozenset(sources[rep])
            for rep in range(self.num_vars)
            if parent[rep] == rep
        }
