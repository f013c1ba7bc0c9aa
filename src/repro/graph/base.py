"""Shared machinery of the two constraint-graph representations.

Both standard form and inductive form keep, per variable:

* ``sources`` — source terms known to flow into the variable,
* ``sinks`` — sink terms the variable flows into,
* ``succ_vars`` / ``pred_vars`` — variable-variable adjacency (SF uses
  only successor lists; IF splits edges by the order ``o(.)``).

Adjacency sets store raw integer variable ids.  Collapsed variables are
forwarded onto their witness through the ``parent`` list (a union-find
with caller-chosen witnesses, paper Section 2.5); stale ids in
adjacency sets are resolved lazily via :meth:`~ConstraintGraphBase.find`
whenever they are read.  The order ``o(.)`` is the ``ranks`` list:
``ranks[i]`` is ``o(X_i)``.  The graphs hold state; the
solver's closure kernel (:mod:`repro.solver.kernel`) performs every
insertion.  Propagation never mutates the graph directly — it *emits*
atomic operations onto the engine's worklist (cycle collapse included),
which keeps the closure incremental and makes the Work metric (one unit
per processed operation) well defined.

A checkpointable graph also keeps one insertion log, ``journal``: three
items per stored edge, the bucket number (:data:`SUCC_BUCKET` ...
:data:`SINKS_BUCKET`), the variable and the item.  A set's iteration
order, which Work counts depend on, is a function of its insertion
sequence, so replaying the log into fresh sets rebuilds every bucket
exactly (:mod:`repro.resilience.checkpoint`).

Buckets are made on first insert.  A bucket that was never written is
the one shared :data:`EMPTY_BUCKET`, an empty ``frozenset``: it
iterates, tests false and has length 0, so readers take it as any empty
set, and a writer that forgets to replace it raises on ``add``.  Every
writer (both closure kernels, :meth:`ConstraintGraphBase.grow` and
checkpoint restore) swaps it for a new ``set`` before its first insert,
and ``_absorb`` puts it back into the four buckets of the variable it
absorbs.  A set's iteration order depends only on its insertion
sequence, so a set made on first insert iterates as one made up front
would, and every counter is unchanged.  Most variables keep most
buckets empty (SF never writes ``pred_vars``), so the graph's memory is
mostly the sets that hold something.

The log keeps an absorbed variable's records; ``dead_records`` counts
them, and :meth:`ConstraintGraphBase.compact_journal` drops them once
they are more than half of the log.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Callable,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..constraints.expressions import Term
from .cycles import SearchMode
from .order import OrderSpec
from .stats import SolverStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (trace ← graph)
    from ..trace.sinks import TraceSink

#: Kinds of atomic edge: ``decompose``'s atoms and trace-sink events.
OP_VAR_VAR = "vv"
OP_SOURCE = "sv"
#: Worklist tags: unit sink insertions and resolutions ...
OP_SINK = "vs"
OP_RESOLVE = "rr"
#: ... and fan-outs, ``(tag, fixed, members)``, one insertion per member
#: in tuple order (see :mod:`repro.solver.kernel`).
#: ``(OP_SOURCE_FAN, term, vars)``: ``term`` flows into every var
OP_SOURCE_FAN = "sv*"
#: ``(OP_SOURCES_FAN, var, terms)``: every term flows into ``var``
OP_SOURCES_FAN = "*sv"
#: ``(OP_SUCC_FAN, left, rights)``: ``left <= r`` for every r
OP_SUCC_FAN = "vv*"
#: ``(OP_PRED_FAN, right, lefts)``: ``l <= right`` for every l
OP_PRED_FAN = "*vv"

#: A worklist operation: (tag, payload, payload).
Op = Tuple[str, object, object]

#: Bucket numbers of the insertion log's records, in the order of
#: :meth:`ConstraintGraphBase.buckets`.
SUCC_BUCKET = 0
PRED_BUCKET = 1
SOURCES_BUCKET = 2
SINKS_BUCKET = 3


#: The bucket of every variable that holds nothing: replaced by a new
#: ``set`` on the first insert (see the module docstring).
EMPTY_BUCKET: FrozenSet = frozenset()


def live_records(journal: List[object], parent: List[int]) -> List[object]:
    """The records of an insertion log whose variable is a
    representative, in log order: the ones that still describe a bucket
    (an absorbed variable's buckets were emptied by ``_absorb``)."""
    live: List[object] = []
    records = iter(journal)
    for bucket, var, item in zip(records, records, records):
        if parent[var] == var:
            live += (bucket, var, item)
    return live


class ConstraintGraphBase:
    """State and behaviour common to SF and IF graphs.

    The graph owns all per-variable solver state as plain lists indexed
    by variable id: the forwarding pointers ``parent`` (a representative
    is its own parent), the order ``ranks``, and the four buckets, each
    a ``set`` or :data:`EMPTY_BUCKET`.  The closure kernel, the
    least-solution code, the auditor and checkpoints read these lists
    directly.
    """

    #: which solved form the graph keeps: ``True`` for inductive form
    inductive = False

    def __init__(
        self,
        num_vars: int,
        order: OrderSpec,
        stats: SolverStats,
        emit: Callable[[Op], None],
        online_cycles: bool = False,
        search_mode: SearchMode = SearchMode.DECREASING,
        sink: Optional["TraceSink"] = None,
    ) -> None:
        self.num_vars = num_vars
        self.stats = stats
        self.emit = emit
        self.online_cycles = online_cycles
        self.search_mode = search_mode
        self.sink = sink
        #: forwarding pointers: ``parent[i] == i`` for a representative
        self.parent: List[int] = list(range(num_vars))
        #: the order o(.): ``ranks[i] = o(X_i)``, a permutation
        self.ranks: List[int] = order.ranks(num_vars)
        self.succ_vars: List[Set[int]] = [EMPTY_BUCKET] * num_vars
        self.pred_vars: List[Set[int]] = [EMPTY_BUCKET] * num_vars
        self.sources: List[Set[Term]] = [EMPTY_BUCKET] * num_vars
        self.sinks: List[Set[Term]] = [EMPTY_BUCKET] * num_vars
        #: the insertion log (``bucket, var, item`` per stored edge),
        #: or ``None`` when not journaling; the cost when enabled is
        #: three appends per *stored* edge, nothing per redundant one
        self.journal: Optional[List[object]] = None
        #: records of absorbed variables: the log's dead weight
        self.dead_records = 0

    def buckets(self) -> Tuple[List[Set], ...]:
        """The four bucket lists, indexed by the log's bucket numbers."""
        return (self.succ_vars, self.pred_vars, self.sources, self.sinks)

    def enable_journal(self) -> None:
        """Start logging bucket insertions (for checkpoints).

        Must be called before any constraint is processed — a log begun
        mid-run would miss earlier insertions.
        """
        if self.journal is not None:
            return
        if any(any(buckets) for buckets in self.buckets()):
            raise ValueError(
                "enable_journal must be called on a pristine graph"
            )
        self.journal = []

    def compact_journal(self) -> None:
        """Drop the absorbed variables' records from the log once they
        are more than half of it.

        Called at the end of each drain.  Keeps the live records in log
        order (:func:`live_records`, the filter a checkpoint capture
        applies), so the log stays at most twice its live records
        between drains, and a capture holds the same records either
        way.
        """
        journal = self.journal
        if journal is None or 6 * self.dead_records <= len(journal):
            return
        self.journal = live_records(journal, self.parent)
        self.dead_records = 0

    # ------------------------------------------------------------------
    # Forwarding and growth
    # ------------------------------------------------------------------
    def find(self, var_index: int) -> int:
        """The representative of ``var_index``, with path compression."""
        parent = self.parent
        root = parent[var_index]
        if root == var_index:
            # Fast path: most finds hit a representative directly.
            return root
        while parent[root] != root:
            root = parent[root]
        while parent[var_index] != root:
            parent[var_index], var_index = root, parent[var_index]
        return root

    def grow(self, num_vars: int) -> None:
        """Admit late-created variables (used by incremental clients).

        New variables are their own representatives and take the next
        ranks, above every existing one.
        """
        if num_vars <= self.num_vars:
            return
        self.parent.extend(range(len(self.parent), num_vars))
        self.ranks.extend(range(len(self.ranks), num_vars))
        for collection in self.buckets():
            collection.extend([EMPTY_BUCKET] * (num_vars - len(collection)))
        self.num_vars = num_vars

    def alias(self, var_index: int, witness_index: int) -> bool:
        """Pre-collapse a variable onto a witness (oracle experiments).

        Must be called before any constraint touching ``var_index`` is
        processed; no constraint migration is performed.  Either index
        may be a non-representative: their roots are linked.  Returns
        ``False`` when the two were already one set.
        """
        absorbed = self.find(var_index)
        witness = self.find(witness_index)
        if absorbed == witness:
            return False
        self.parent[absorbed] = witness
        return True

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

        The native kernel runs a C transliteration of this method and
        :meth:`_absorb` for the collapses of an online search, as long
        as neither is replaced; periodic sweeps and the Python kernel
        call them here.
        """
        nodes = []
        seen = set()
        for raw in path:
            node = self.find(raw)
            if node not in seen:
                seen.add(node)
                nodes.append(node)
        witness = min(nodes, key=self.ranks.__getitem__)
        self.stats.cycles_found += 1
        if self.sink is not None and len(nodes) > 1:
            self.sink.collapse(witness, tuple(nodes))
        for node in nodes:
            if node != witness:
                self._absorb(node, witness)
        return witness

    def _absorb(self, absorbed: int, witness: int) -> None:
        """Forward ``absorbed`` into ``witness`` and re-emit its edges.

        Both are representatives (``collapse_path`` resolves the path).
        Sources, successors and predecessors go out as fan-outs, sinks as
        unit operations, and the four buckets become
        :data:`EMPTY_BUCKET`.  The log keeps ``absorbed``'s records, one
        per bucket member, and ``dead_records`` counts them: a capture
        or :meth:`compact_journal` drops those of every
        non-representative.
        """
        self.parent[absorbed] = witness
        self.stats.vars_eliminated += 1
        emit = self.emit
        terms = self.sources[absorbed]
        sink_terms = self.sinks[absorbed]
        succs = self.succ_vars[absorbed]
        preds = self.pred_vars[absorbed]
        self.dead_records += (
            len(terms) + len(sink_terms) + len(succs) + len(preds))
        if terms:
            emit((OP_SOURCES_FAN, witness, tuple(terms)))
        for term in sink_terms:
            emit((OP_SINK, witness, term))
        if succs:
            emit((OP_SUCC_FAN, witness, tuple(succs)))
        if preds:
            emit((OP_PRED_FAN, witness, tuple(preds)))
        self.sources[absorbed] = EMPTY_BUCKET
        self.sinks[absorbed] = EMPTY_BUCKET
        self.succ_vars[absorbed] = EMPTY_BUCKET
        self.pred_vars[absorbed] = EMPTY_BUCKET

    def collapse_all_sccs(self) -> int:
        """Collapse every non-trivial SCC of the current var-var graph.

        This is the *periodic simplification* baseline from the paper's
        introduction (cf. [FA96, FF97, MW97]): a full offline pass,
        run every so often, as opposed to the partial online search.
        Returns the number of variables eliminated by this sweep.
        """
        from .scc import strongly_connected_components

        parent = self.parent
        vertices = [
            rep for rep in range(self.num_vars) if parent[rep] == rep
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

        Reads ``parent`` directly: a raw index that is its own parent
        needs no ``find`` call.
        """
        parent = self.parent
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
        parent = self.parent
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
