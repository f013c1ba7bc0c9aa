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
restriction.
"""

from __future__ import annotations

from typing import Dict, FrozenSet

from ..constraints.expressions import Term
from .base import (
    ConstraintGraphBase,
    OP_SOURCE,
)


class StandardGraph(ConstraintGraphBase):
    """Constraint graph in standard form."""

    form_name = "standard"

    def add_var_var(self, left: int, right: int) -> None:
        """Process the atomic constraint ``X <= Y`` (a successor edge)."""
        stats = self.stats
        stats.work += 1
        sink = self.sink
        parent = self._uf_parent
        find = self.find
        if parent[left] != left:
            left = find(left)
        if parent[right] != right:
            right = find(right)
        if left == right:
            stats.self_edges += 1
            if sink is not None:
                sink.edge("vv", left, right, "self")
            return
        bucket = self.succ_vars[left]
        if right in bucket:
            stats.redundant += 1
            if sink is not None:
                sink.edge("vv", left, right, "redundant")
            return
        if self.online_cycles:
            # Search for a successor chain right -> ... -> left; together
            # with the new edge left -> right it forms a cycle.
            collapsed = self._search_and_collapse(
                self.succ_vars, right, left, self.search_mode
            )
            if collapsed:
                # left and right are now the same vertex; the new edge
                # would be a self loop.
                left = find(left)
                right = find(right)
                if left == right:
                    if sink is not None:
                        sink.edge("vv", left, right, "cycle")
                    return
                bucket = self.succ_vars[left]
        bucket.add(right)
        if self._journal_succ is not None:
            self._journal_succ[left].append(right)
        if sink is not None:
            sink.edge("vv", left, right, "added")
        emit = self.emit
        for term in self.sources[left]:
            emit((OP_SOURCE, term, right))

    # ------------------------------------------------------------------
    # Least solution: explicit in SF.
    # ------------------------------------------------------------------
    def least_solution_of(
        self, var_index: int, memo: Dict[int, FrozenSet[Term]]
    ) -> FrozenSet[Term]:
        """``LS`` of one variable: its representative's source bucket.

        ``add_source`` stores at the representative and ``_absorb``
        empties every bucket it absorbs (re-emitting the terms against
        the witness), so ``sources[find(var_index)]`` is what
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

        Source terms are accumulated from every variable's bucket onto
        its representative.  Absorbed buckets are empty (see
        :meth:`least_solution_of`), so this equals reading
        ``sources[rep]``.  Pure read — no counters or journals are
        touched.
        """
        find = self.find
        sources = self.sources
        merged: Dict[int, set] = {
            rep: set()
            for rep in self.unionfind.representatives()
            if rep < self.num_vars
        }
        for index in range(self.num_vars):
            bucket = sources[index]
            if bucket:
                merged[find(index)].update(bucket)
        return {
            rep: frozenset(terms) for rep, terms in merged.items()
        }
