"""Shared machinery of the two constraint-graph representations.

Both standard form and inductive form keep, per variable:

* ``sources`` — source terms known to flow into the variable,
* ``sinks`` — sink terms the variable flows into,
* ``succ_vars`` / ``pred_vars`` — variable-variable adjacency (SF uses
  only successor lists; IF splits edges by the order ``o(.)``).

Adjacency sets store raw integer variable ids.  Collapsed variables are
forwarded through a union-find; stale ids in adjacency sets are resolved
lazily via ``find`` whenever they are read.  The graphs hold state; the
solver's closure kernel (:mod:`repro.solver.kernel`) performs every
insertion.  Propagation never mutates the graph directly — it *emits*
atomic operations onto the engine's worklist (cycle collapse included),
which keeps the closure incremental and makes the Work metric (one unit
per processed operation) well defined.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Callable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..constraints.expressions import Term
from .cycles import SearchMode, find_chain_path

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (trace ← graph)
    from ..trace.sinks import TraceSink
from .order import VariableOrder
from .stats import SolverStats
from .unionfind import UnionFind

#: Operation tags understood by the solver engine's worklist.
OP_VAR_VAR = "vv"
OP_SOURCE = "sv"
OP_SINK = "vs"
OP_RESOLVE = "rr"

#: A worklist operation: (tag, payload, payload).
Op = Tuple[str, object, object]


class ConstraintGraphBase:
    """State and behaviour common to SF and IF graphs."""

    #: set by subclasses; used in reports
    form_name = "base"

    def __init__(
        self,
        num_vars: int,
        order: VariableOrder,
        stats: SolverStats,
        emit: Callable[[Op], None],
        online_cycles: bool = False,
        search_mode: SearchMode = SearchMode.DECREASING,
        sink: Optional["TraceSink"] = None,
    ) -> None:
        self.num_vars = num_vars
        self.order = order
        self.stats = stats
        self.emit = emit
        self.online_cycles = online_cycles
        self.search_mode = search_mode
        self.sink = sink
        self.unionfind = UnionFind(num_vars)
        # Hot-path bindings: `find` and `rank` are called several times
        # per worklist operation, so shadow the convenience methods below
        # with direct bound callables (one call frame less per lookup).
        # `_uf_parent` and `_ranks` alias the underlying arrays so the
        # closure kernel can test "is already a representative" and
        # compare ranks with plain list indexing instead of a call.  All
        # of these stay valid across `grow` because UnionFind and
        # VariableOrder extend their backing lists in place.
        self.find = self.unionfind.find
        self.rank = order.ranks.__getitem__
        self._uf_parent = self.unionfind._parent
        self._ranks = order.ranks
        self.succ_vars: List[Set[int]] = [set() for _ in range(num_vars)]
        self.pred_vars: List[Set[int]] = [set() for _ in range(num_vars)]
        self.sources: List[Set[Term]] = [set() for _ in range(num_vars)]
        self.sinks: List[Set[Term]] = [set() for _ in range(num_vars)]
        # Insertion journals (checkpoint support): parallel per-variable
        # lists recording each bucket's successful insertions in order.
        # A set's iteration order — which the solver's Work counts depend
        # on — is a function of its insertion sequence, so reproducing a
        # set exactly after a checkpoint requires replaying that
        # sequence, not just the final contents.  ``None`` (the default)
        # disables journaling; the cost when enabled is one list append
        # per *stored* edge, nothing per redundant attempt.
        self._journal_succ: Optional[List[List[int]]] = None
        self._journal_pred: Optional[List[List[int]]] = None
        self._journal_sources: Optional[List[List[Term]]] = None
        self._journal_sinks: Optional[List[List[Term]]] = None

    def enable_journal(self) -> None:
        """Start recording bucket insertion order (for checkpoints).

        Must be called before any constraint is processed — journals
        begun mid-run would miss earlier insertions.
        """
        if self._journal_succ is not None:
            return
        if any(self.succ_vars) or any(self.pred_vars) \
                or any(self.sources) or any(self.sinks):
            raise ValueError(
                "enable_journal must be called on a pristine graph"
            )
        count = self.num_vars
        self._journal_succ = [[] for _ in range(count)]
        self._journal_pred = [[] for _ in range(count)]
        self._journal_sources = [[] for _ in range(count)]
        self._journal_sinks = [[] for _ in range(count)]

    # ------------------------------------------------------------------
    # Small helpers
    # ------------------------------------------------------------------
    def find(self, var_index: int) -> int:  # shadowed in __init__
        return self.unionfind.find(var_index)

    def rank(self, var_index: int) -> int:  # shadowed in __init__
        return self.order.ranks[var_index]

    def grow(self, num_vars: int) -> None:
        """Admit late-created variables (used by incremental clients)."""
        if num_vars <= self.num_vars:
            return
        self.order.ensure(num_vars)
        self.unionfind.grow(num_vars)
        for collection in (
            self.succ_vars,
            self.pred_vars,
            self.sources,
            self.sinks,
        ):
            while len(collection) < num_vars:
                collection.append(set())
        for journal in (
            self._journal_succ,
            self._journal_pred,
            self._journal_sources,
            self._journal_sinks,
        ):
            if journal is not None:
                while len(journal) < num_vars:
                    journal.append([])
        self.num_vars = num_vars

    def alias(self, var_index: int, witness_index: int) -> None:
        """Pre-collapse a variable onto a witness (oracle experiments).

        Must be called before any constraint touching ``var_index`` is
        processed; no constraint migration is performed.
        """
        self.unionfind.union_into(witness_index, var_index)

    # ------------------------------------------------------------------
    # Cycle collapse (shared by both forms)
    # ------------------------------------------------------------------
    def collapse_path(self, path: Sequence[int]) -> int:
        """Collapse the distinct representatives on ``path``.

        The witness is the lowest vertex in the order ``o(.)`` (this
        preserves inductive form, Section 2.5).  Every absorbed vertex's
        constraints are re-emitted against the witness through the normal
        insertion path, so the closure remains correct without a special
        cross-product step.  Returns the witness id.
        """
        nodes = []
        seen = set()
        for raw in path:
            node = self.find(raw)
            if node not in seen:
                seen.add(node)
                nodes.append(node)
        witness = min(nodes, key=self.rank)
        self.stats.cycles_found += 1
        if self.sink is not None and len(nodes) > 1:
            self.sink.collapse(witness, tuple(nodes))
        for node in nodes:
            if node != witness:
                self._absorb(node, witness)
        return witness

    def _absorb(self, absorbed: int, witness: int) -> None:
        """Forward ``absorbed`` into ``witness`` and re-emit its edges."""
        self.unionfind.union_into(witness, absorbed)
        self.stats.vars_eliminated += 1
        emit = self.emit
        for term in self.sources[absorbed]:
            emit((OP_SOURCE, term, witness))
        for term in self.sinks[absorbed]:
            emit((OP_SINK, witness, term))
        for succ in self.succ_vars[absorbed]:
            emit((OP_VAR_VAR, witness, succ))
        for pred in self.pred_vars[absorbed]:
            emit((OP_VAR_VAR, pred, witness))
        self.sources[absorbed] = set()
        self.sinks[absorbed] = set()
        self.succ_vars[absorbed] = set()
        self.pred_vars[absorbed] = set()
        if self._journal_succ is not None:
            self._journal_succ[absorbed] = []
            self._journal_pred[absorbed] = []
            self._journal_sources[absorbed] = []
            self._journal_sinks[absorbed] = []

    def collapse_all_sccs(self) -> int:
        """Collapse every non-trivial SCC of the current var-var graph.

        This is the *periodic simplification* baseline from the paper's
        introduction (cf. [FA96, FF97, MW97]): a full offline pass,
        run every so often, as opposed to the partial online search.
        Returns the number of variables eliminated by this sweep.
        """
        from .scc import strongly_connected_components

        vertices = [
            rep for rep in self.unionfind.representatives()
            if rep < self.num_vars
        ]
        edges = []
        for rep in vertices:
            for succ in self.canonical_successors(rep):
                edges.append((rep, succ))
            for pred in self.canonical_predecessors(rep):
                edges.append((pred, rep))
        eliminated_before = self.stats.vars_eliminated
        for component in strongly_connected_components(vertices, edges):
            if len(component) >= 2:
                self.collapse_path(component)
        return self.stats.vars_eliminated - eliminated_before

    def _search_and_collapse(
        self,
        adjacency: Sequence[Set[int]],
        start: int,
        target: int,
        mode: SearchMode,
    ) -> bool:
        """Run the partial chain search; collapse and report any cycle."""
        path = find_chain_path(
            adjacency,
            self.find,
            self.rank,
            start,
            target,
            mode,
            self.stats,
            self.sink,
        )
        if path is None:
            return False
        self.collapse_path(path)
        return True

    # ------------------------------------------------------------------
    # Final-graph accounting
    # ------------------------------------------------------------------
    def canonical_successors(self, var_index: int) -> Set[int]:
        """Deduplicated, find-resolved successor set (no self loops)."""
        rep = self.find(var_index)
        return self.canonical_bucket(rep, self.succ_vars[rep])

    def canonical_predecessors(self, var_index: int) -> Set[int]:
        rep = self.find(var_index)
        return self.canonical_bucket(rep, self.pred_vars[rep])

    def canonical_bucket(self, rep: int, bucket: Set[int]) -> Set[int]:
        """The raw indices of ``rep``'s ``bucket`` resolved through
        ``find``, without ``rep`` itself.

        Reads the union-find array directly: a raw index that is its
        own parent needs no ``find`` call.
        """
        parent = self._uf_parent
        find = self.find
        out = {raw if parent[raw] == raw else find(raw) for raw in bucket}
        out.discard(rep)
        return out

    def finalize_statistics(self) -> None:
        """Fill the final edge counts into the stats object.

        Counts what :meth:`canonical_successors` and
        :meth:`canonical_predecessors` return for every representative.
        """
        var_var = 0
        source_edges = 0
        sink_edges = 0
        parent = self._uf_parent
        canonical = self.canonical_bucket
        succ_vars = self.succ_vars
        pred_vars = self.pred_vars
        sources = self.sources
        sinks = self.sinks
        for rep in range(self.num_vars):
            if parent[rep] != rep:
                continue
            for adjacency in (succ_vars[rep], pred_vars[rep]):
                if adjacency:
                    var_var += len(canonical(rep, adjacency))
            source_edges += len(sources[rep])
            sink_edges += len(sinks[rep])
        self.stats.finalize_edges(var_var, source_edges, sink_edges)

    def representatives(self) -> List[int]:
        return [rep for rep in self.unionfind.representatives()]

    def compute_least_solution(self):
        """``LS`` for every representative; implemented per graph form.

        Standard form reads it off the explicit source buckets
        (canonicalized through ``find``); inductive form evaluates
        equation (1) in rank order.  Batch solving calls this once,
        after the closure.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not compute least solutions"
        )

    def least_solution_of(self, var_index: int, memo):
        """``LS`` of one variable on demand; implemented per graph form.

        ``memo`` maps representatives to solved sets; implementations
        read and fill it, and it is valid until the graph next changes.
        Incremental queries call this instead of
        :meth:`compute_least_solution`.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not compute least solutions"
        )
