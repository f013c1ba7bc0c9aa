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
decreasing-rank restriction is implied by the representation.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set

from ..constraints.expressions import Term
from .base import (
    ConstraintGraphBase,
    OP_SINK,
    OP_SOURCE,
    OP_VAR_VAR,
)
from .cycles import SearchMode


class InductiveGraph(ConstraintGraphBase):
    """Constraint graph in inductive form."""

    form_name = "inductive"

    def add_var_var(self, left: int, right: int) -> None:
        """Process ``X <= Y``, routing the edge by the variable order.

        The bodies of ``_add_successor`` / ``_add_predecessor`` are
        inlined here: this method runs once per ``vv`` worklist
        operation — by far the most frequent operation under IF, whose
        closure adds transitive var-var edges — and the extra method
        call plus repeated `find` frames were measurable in profiles.
        """
        stats = self.stats
        stats.work += 1
        sink = self.sink
        parent = self._uf_parent
        if parent[left] != left:
            left = self.find(left)
        if parent[right] != right:
            right = self.find(right)
        if left == right:
            stats.self_edges += 1
            if sink is not None:
                sink.edge("vv", left, right, "self")
            return
        ranks = self._ranks
        if ranks[left] > ranks[right]:
            # Successor edge stored at `left`.
            bucket = self.succ_vars[left]
            if right in bucket:
                stats.redundant += 1
                if sink is not None:
                    sink.edge("vv", left, right, "redundant")
                return
            if self.online_cycles:
                # A predecessor chain right -> ... -> left plus the new
                # edge left -> right closes a cycle.
                if self._search_and_collapse(
                    self.pred_vars, left, right, SearchMode.DECREASING
                ):
                    if sink is not None:
                        sink.edge("vv", left, right, "cycle")
                    return
            bucket.add(right)
            if self._journal_succ is not None:
                self._journal_succ[left].append(right)
            if sink is not None:
                sink.edge("vv", left, right, "added")
            emit = self.emit
            for pred in self.pred_vars[left]:
                emit((OP_VAR_VAR, pred, right))
            for term in self.sources[left]:
                emit((OP_SOURCE, term, right))
        else:
            # Predecessor edge stored at `right`.
            bucket = self.pred_vars[right]
            if left in bucket:
                stats.redundant += 1
                if sink is not None:
                    sink.edge("vv", left, right, "redundant")
                return
            if self.online_cycles:
                # A successor chain right -> ... -> left plus the new
                # edge closes a cycle.
                if self._search_and_collapse(
                    self.succ_vars, right, left, SearchMode.DECREASING
                ):
                    if sink is not None:
                        sink.edge("vv", left, right, "cycle")
                    return
            bucket.add(left)
            if self._journal_pred is not None:
                self._journal_pred[right].append(left)
            if sink is not None:
                sink.edge("vv", left, right, "added")
            emit = self.emit
            for succ in self.succ_vars[right]:
                emit((OP_VAR_VAR, left, succ))
            for term in self.sinks[right]:
                emit((OP_SINK, left, term))

    # ------------------------------------------------------------------
    # Least solution — equation (1) of the paper.
    # ------------------------------------------------------------------
    def compute_least_solution(self) -> Dict[int, FrozenSet[Term]]:
        """Compute ``LS`` for every representative variable.

        ``LS(Y) = sources(Y) ∪ ⋃ { LS(X) | X in pred(Y) }`` evaluated in
        increasing order of ``o(.)`` — every variable predecessor has a
        strictly smaller rank, so a single sweep suffices.
        """
        reps: List[int] = [
            rep for rep in self.unionfind.representatives()
            if rep < self.num_vars
        ]
        reps.sort(key=self.rank)
        solution: Dict[int, FrozenSet[Term]] = {}
        for rep in reps:
            preds = self.canonical_predecessors(rep)
            if not preds:
                solution[rep] = frozenset(self.sources[rep])
                continue
            merged = set(self.sources[rep])
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
                preds = {find(raw) for raw in pred_vars[rep]}
                preds.discard(rep)
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
