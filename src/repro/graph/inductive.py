"""Inductive form (IF) — paper Section 2.4.

A variable-variable constraint ``X <= Y`` is stored according to the
total order ``o(.)``:

* ``o(X) > o(Y)``: successor edge ``Y in succ(X)``;
* ``o(X) < o(Y)``: predecessor edge ``X in pred(Y)``.

Either way the edge lives at the *higher*-ordered endpoint, which is
what makes the graph "inductive".  The closure rule pairs the
predecessors of a variable (sources **or** variables) with its
successors (sinks **or** variables):

    L ...-> X -> R   =>   L <= R

so — unlike SF — closure adds transitive variable-variable edges.  The
least solution is *not* explicit; it is computed by equation (1) of the
paper, either for every variable by one sweep in increasing order
(batch solving) or for one variable over its predecessor cone
(incremental queries).

Online cycle elimination (Figure 3): inserting a successor edge
``X -> Y`` searches the predecessor chains of ``X`` for ``Y``;
inserting a predecessor edge searches the successor chains.  The
decreasing-rank restriction is implied by the representation.  The
insertion itself, edge routing included, is in the solver's closure
kernel (:mod:`repro.solver.kernel`); this class holds the least
solution.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set

from ..constraints.expressions import Term
from .base import ConstraintGraphBase


class InductiveGraph(ConstraintGraphBase):
    """Constraint graph in inductive form."""

    inductive = True

    # ------------------------------------------------------------------
    # Least solution — equation (1) of the paper.
    # ------------------------------------------------------------------
    def compute_least_solution(self) -> Dict[int, FrozenSet[Term]]:
        """Compute ``LS`` for every representative variable.

        ``LS(Y) = sources(Y) ∪ ⋃ { LS(X) | X in pred(Y) }`` evaluated in
        increasing order of ``o(.)`` — every variable predecessor has a
        strictly smaller rank, so a single sweep suffices.
        """
        parent = self.parent
        canonical = self.canonical_bucket
        pred_vars = self.pred_vars
        sources = self.sources
        reps: List[int] = [
            rep for rep in range(self.num_vars) if parent[rep] == rep
        ]
        reps.sort(key=self.ranks.__getitem__)
        solution: Dict[int, FrozenSet[Term]] = {}
        for rep in reps:
            raw_preds = pred_vars[rep]
            if raw_preds:
                preds = canonical(rep, raw_preds)
            else:
                preds = raw_preds
            own = sources[rep]
            if not preds:
                solution[rep] = frozenset(own)
            elif not own and len(preds) == 1:
                # LS(rep) is its one predecessor's: share the frozenset.
                for pred in preds:
                    solution[rep] = solution[pred]
            else:
                merged = set(own)
                for pred in preds:
                    merged.update(solution[pred])
                solution[rep] = frozenset(merged)
        return solution

    def least_solution_of(
        self, var_index: int, memo: Dict[int, FrozenSet[Term]]
    ) -> FrozenSet[Term]:
        """``LS`` of one variable, evaluated on its predecessor cone.

        The same equation (1) as :meth:`compute_least_solution`, but
        only over the representatives ``find(var_index)`` reaches along
        canonical predecessors, in post-order.  Every solved
        representative is stored in ``memo``, which stays valid until
        the graph next changes, so later queries reuse shared parts of
        their cones.  The walk keeps an explicit stack: predecessor
        chains can be longer than the recursion limit.  Canonical
        predecessors have strictly smaller rank, so the cone is acyclic
        and every representative on it is solved exactly once.
        """
        find = self.find
        root = find(var_index)
        solved = memo.get(root)
        if solved is not None:
            return solved
        canonical = self.canonical_bucket
        pred_vars = self.pred_vars
        sources = self.sources
        # rep -> its canonical predecessors, once the walk has expanded it
        expanded: Dict[int, Set[int]] = {}
        stack = [root]
        while stack:
            rep = stack[-1]
            preds = expanded.get(rep)
            if preds is None:
                if rep in memo:
                    stack.pop()
                    continue
                preds = canonical(rep, pred_vars[rep])
                expanded[rep] = preds
                waiting = [pred for pred in preds if pred not in memo]
                if waiting:
                    stack.extend(waiting)
                    continue
            # Everything pushed above `rep` has been solved.
            stack.pop()
            if rep in memo:  # a second stack entry for a solved rep
                continue
            if not preds:
                memo[rep] = frozenset(sources[rep])
                continue
            merged = set(sources[rep])
            for pred in preds:
                merged.update(memo[pred])
            memo[rep] = frozenset(merged)
        return memo[root]
