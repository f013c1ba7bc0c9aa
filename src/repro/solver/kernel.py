"""The closure kernel: one loop that executes worklist operations.

:meth:`SolverEngine._dispatch <repro.solver.engine.SolverEngine._dispatch>`
supervises the closure (budget and cancellation checks, stride audits)
and hands each stretch between two checks to :func:`run_kernel`.  The
kernel executes atomic operations in worklist order with every handler
inlined: source insertion, sink insertion (``vs``), the var-var
insertion of either graph form (with online cycle search and periodic
sweeps) and the resolution rules (``rr``).  The kernel reads and writes
the graph's plain state lists (``parent``, ``ranks`` and the four
buckets) and appends to its insertion log; a bucket's first insert
replaces the shared :data:`~repro.graph.base.EMPTY_BUCKET` with a new
``set``.  Standard versus inductive
form is a local boolean, and tracing and the log are local
``is not None`` checks, so there is one code path for every
configuration.

Worklist entries are 3-tuples ``(tag, first, second)``.  Sinks and
resolutions are unit operations; every source and var-var insertion
travels in a *fan-out* entry, which carries a ``tuple`` of members
(:mod:`repro.graph.base` defines the tags).  The fixed operand is
``first`` and the members are ``second``:

======================  ==========================  ==================
tag                     entry                       one insertion each
======================  ==========================  ==================
:data:`OP_SOURCE_FAN`   ``(tag, term, vars)``       ``term <= v``
:data:`OP_SOURCES_FAN`  ``(tag, var, terms)``       ``t <= var``
:data:`OP_SUCC_FAN`     ``(tag, left, rights)``     ``left <= r``
:data:`OP_PRED_FAN`     ``(tag, right, lefts)``     ``l <= right``
======================  ==========================  ==================

When an insertion propagates to every member of a bucket, the kernel
appends one entry carrying a snapshot of the bucket; a single operation
(from the resolution rules) is a fan-out of one, and a cycle collapse
re-emits an absorbed variable's buckets as fan-outs too.  Every member
pays its own ``find``, redundancy check and unit of Work, in tuple
order, so order and counters are those of one unit operation per
member.  Checkpoints store the worklist as it is.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..constraints.constructors import ONE_CONSTRUCTOR, ZERO_CONSTRUCTOR
from ..constraints.expressions import Term, Var
from ..constraints.resolution import decompose, flat_plan
from ..graph.base import (
    EMPTY_BUCKET,
    OP_PRED_FAN,
    OP_RESOLVE,
    OP_SINK,
    OP_SOURCE,
    OP_SOURCE_FAN,
    OP_SOURCES_FAN,
    OP_SUCC_FAN,
    OP_VAR_VAR,
    PRED_BUCKET,
    SINKS_BUCKET,
    SOURCES_BUCKET,
    SUCC_BUCKET,
)
from ..graph.cycles import SearchMode, find_chain_path

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import SolverEngine

_DECREASING = SearchMode.DECREASING


def run_kernel(engine: "SolverEngine", limit: int) -> int:
    """Execute up to ``limit`` atomic operations; return how many ran.

    Stops early when the worklist empties.  A fan-out entry that does
    not fit in what is left of ``limit`` is split: the members that fit
    run, and the rest go back to the head of the worklist as a shorter
    fan-out, so supervision checks land every ``limit`` operations as
    with unit entries.  Counters are kept in locals and added to
    ``engine.stats`` when the kernel returns or raises.  If an
    operation raises, the members of its fan-out that had not started
    go back to the head of the worklist, as their unit operations would
    have stayed there.
    """
    pending = engine.pending
    popleft = pending.popleft
    appendleft = pending.appendleft
    append = pending.append
    graph = engine.graph
    sink = engine.sink
    stats = engine.stats
    find = graph.find
    parent = graph.parent
    ranks = graph.ranks
    rank = ranks.__getitem__
    succ_vars = graph.succ_vars
    pred_vars = graph.pred_vars
    sources = graph.sources
    sinks = graph.sinks
    journal = graph.journal
    inductive = graph.inductive
    online = graph.online_cycles
    collapse_path = graph.collapse_path
    search_mode = graph.search_mode
    periodic = engine._periodic
    since_sweep = engine._since_sweep
    interval = engine._periodic_interval

    work = redundant = self_edges = resolutions = 0
    room = limit
    # The fan-out being executed (its current member is `x`), so that
    # an exception can put the members after `x` back.
    members = None
    try:
        while room > 0 and pending:
            tag, first, second = popleft()

            # ---- sources: c(...) <= X -------------------------------
            if tag == OP_SOURCE_FAN or tag == OP_SOURCES_FAN:
                count = len(second)
                if count > room:
                    appendleft((tag, first, second[room:]))
                    second = second[:room]
                    count = room
                room -= count
                members = second
                fixed_term = tag == OP_SOURCE_FAN
                for x in second:
                    if fixed_term:
                        term = first
                        var = x
                    else:
                        term = x
                        var = first
                    work += 1
                    if parent[var] != var:
                        var = find(var)
                    bucket = sources[var]
                    if bucket is EMPTY_BUCKET:
                        bucket = sources[var] = set()
                    # Single-probe redundancy check: `add` reports a
                    # duplicate through an unchanged size.
                    size = len(bucket)
                    bucket.add(term)
                    if len(bucket) == size:
                        redundant += 1
                        if sink is not None:
                            sink.edge(OP_SOURCE, term, var, "redundant")
                        continue
                    if journal is not None:
                        journal += (SOURCES_BUCKET, var, term)
                    if sink is not None:
                        sink.edge(OP_SOURCE, term, var, "added")
                    succs = succ_vars[var]
                    if succs:
                        append((OP_SOURCE_FAN, term, tuple(succs)))
                    for sink_term in sinks[var]:
                        append((OP_RESOLVE, term, sink_term))
                members = None

            # ---- resolution rules R ---------------------------------
            elif tag == OP_RESOLVE:
                room -= 1
                resolutions += 1
                if sink is not None:
                    sink.resolve(first, second)
                left_type = type(first)
                right_type = type(second)
                if left_type is Term and right_type is Term:
                    left_ctor = first.constructor
                    right_ctor = second.constructor
                    if left_ctor is right_ctor or left_ctor == right_ctor:
                        left_plan = first._plan
                        if left_plan is None:
                            left_plan = first._plan = flat_plan(first)
                        right_plan = second._plan
                        if right_plan is None:
                            right_plan = second._plan = flat_plan(second)
                        if left_plan is not False and right_plan is not False:
                            # decompose's operations for the pair, in
                            # its order (the plans are reversed).
                            emitted = 0
                            for covariant, left_arg, right_arg in zip(
                                    left_plan[0], left_plan[1],
                                    right_plan[1]):
                                if covariant:
                                    low = left_arg
                                    high = right_arg
                                else:
                                    low = right_arg
                                    high = left_arg
                                if type(low) is int:
                                    if type(high) is int:
                                        append((OP_SUCC_FAN, low, (high,)))
                                    elif high.constructor is ONE_CONSTRUCTOR:
                                        continue
                                    else:
                                        append((OP_SINK, low, high))
                                elif low.constructor is ZERO_CONSTRUCTOR:
                                    continue
                                elif type(high) is int:
                                    append((OP_SOURCE_FAN, low, (high,)))
                                elif high.constructor is ONE_CONSTRUCTOR:
                                    continue
                                elif (low.constructor is not high.constructor
                                        and low.constructor
                                        != high.constructor):
                                    break  # a clash
                                else:
                                    continue  # same nullary constructor
                                emitted += 1
                            else:
                                continue
                            # Take back what the pair emitted; decompose
                            # resolves it again and reports the clash.
                            for _ in range(emitted):
                                pending.pop()
                elif left_type is Var:
                    if right_type is Var:
                        append((OP_SUCC_FAN, first.index, (second.index,)))
                        continue
                    if right_type is Term:
                        if second.constructor is not ONE_CONSTRUCTOR:
                            append((OP_SINK, first.index, second))
                        continue
                elif right_type is Var and left_type is Term:
                    if first.constructor is not ZERO_CONSTRUCTOR:
                        append((OP_SOURCE_FAN, first, (second.index,)))
                    continue
                _resolve_generic(engine, first, second)

            # ---- var-var: X <= Y ------------------------------------
            elif tag == OP_SUCC_FAN or tag == OP_PRED_FAN:
                count = len(second)
                if count > room:
                    appendleft((tag, first, second[room:]))
                    second = second[:room]
                    count = room
                room -= count
                members = second
                fixed_left = tag == OP_SUCC_FAN
                for x in second:
                    if fixed_left:
                        left = first
                        right = x
                    else:
                        left = x
                        right = first
                    work += 1
                    if parent[left] != left:
                        left = find(left)
                    if parent[right] != right:
                        right = find(right)
                    if left == right:
                        self_edges += 1
                        if sink is not None:
                            sink.edge(OP_VAR_VAR, left, right, "self")
                    elif not inductive or ranks[left] > ranks[right]:
                        # Successor edge stored at `left`.
                        bucket = succ_vars[left]
                        if right in bucket:
                            redundant += 1
                            if sink is not None:
                                sink.edge(OP_VAR_VAR, left, right,
                                          "redundant")
                        else:
                            path = None
                            if online:
                                # IF searches predecessor chains left ->
                                # right, SF successor chains right ->
                                # left; either closes a cycle with the
                                # new edge.
                                if inductive:
                                    path = find_chain_path(
                                        pred_vars, find, rank, left,
                                        right, _DECREASING, stats, sink)
                                else:
                                    path = find_chain_path(
                                        succ_vars, find, rank, right,
                                        left, search_mode, stats, sink)
                            if path is not None:
                                collapse_path(path)
                                # The path held both endpoints, so they
                                # are one vertex now.
                                if sink is not None:
                                    if not inductive:
                                        left = right = find(left)
                                    sink.edge(OP_VAR_VAR, left, right,
                                              "cycle")
                            else:
                                if bucket is EMPTY_BUCKET:
                                    bucket = succ_vars[left] = set()
                                bucket.add(right)
                                if journal is not None:
                                    journal += (SUCC_BUCKET, left, right)
                                if sink is not None:
                                    sink.edge(OP_VAR_VAR, left, right,
                                              "added")
                                if inductive:
                                    preds = pred_vars[left]
                                    if preds:
                                        append((OP_PRED_FAN, right,
                                                tuple(preds)))
                                terms = sources[left]
                                if terms:
                                    append((OP_SOURCES_FAN, right,
                                            tuple(terms)))
                    else:
                        # Inductive predecessor edge stored at `right`.
                        bucket = pred_vars[right]
                        if left in bucket:
                            redundant += 1
                            if sink is not None:
                                sink.edge(OP_VAR_VAR, left, right,
                                          "redundant")
                        else:
                            path = None
                            if online:
                                path = find_chain_path(
                                    succ_vars, find, rank, right, left,
                                    _DECREASING, stats, sink)
                            if path is not None:
                                collapse_path(path)
                                if sink is not None:
                                    sink.edge(OP_VAR_VAR, left, right,
                                              "cycle")
                            else:
                                if bucket is EMPTY_BUCKET:
                                    bucket = pred_vars[right] = set()
                                bucket.add(left)
                                if journal is not None:
                                    journal += (PRED_BUCKET, right, left)
                                if sink is not None:
                                    sink.edge(OP_VAR_VAR, left, right,
                                              "added")
                                succs = succ_vars[right]
                                if succs:
                                    append((OP_SUCC_FAN, left,
                                            tuple(succs)))
                                for term in sinks[right]:
                                    append((OP_SINK, left, term))
                    if periodic:
                        since_sweep += 1
                        if since_sweep >= interval:
                            since_sweep = 0
                            engine._sweep()
                members = None

            # ---- sink: X <= c(...) ----------------------------------
            elif tag == OP_SINK:
                room -= 1
                var = first
                term = second
                work += 1
                if parent[var] != var:
                    var = find(var)
                bucket = sinks[var]
                if bucket is EMPTY_BUCKET:
                    bucket = sinks[var] = set()
                size = len(bucket)
                bucket.add(term)
                if len(bucket) == size:
                    redundant += 1
                    if sink is not None:
                        sink.edge(OP_SINK, var, term, "redundant")
                    continue
                if journal is not None:
                    journal += (SINKS_BUCKET, var, term)
                if sink is not None:
                    sink.edge(OP_SINK, var, term, "added")
                # Passed back to the variable predecessors (IF only:
                # SF never stores any) and resolved against the sources.
                for pred in pred_vars[var]:
                    append((OP_SINK, pred, term))
                for source in sources[var]:
                    append((OP_RESOLVE, source, term))

            else:
                raise ValueError(f"unknown worklist operation {tag!r}")
    except BaseException:
        if members is not None:
            # `x` raised; the members after it have not started.
            rest = members[members.index(x) + 1:]
            if rest:
                appendleft((tag, first, rest))
        raise
    finally:
        stats.work += work
        stats.redundant += redundant
        stats.self_edges += self_edges
        stats.resolutions += resolutions
        engine._since_sweep = since_sweep
    return limit - room


def resolution_entries(constraints) -> list:
    """The worklist entries that start a batch solve of ``constraints``:
    one ``(OP_RESOLVE, left, right)`` per constraint, in order."""
    return [(OP_RESOLVE, left, right) for left, right in constraints]


def _resolve_generic(engine: "SolverEngine", left, right) -> None:
    """Resolve one pair through ``decompose`` and report its clashes."""
    diagnostics = engine.diagnostics
    atoms = []
    before = len(diagnostics)
    decompose(left, right, atoms, diagnostics)
    new_clashes = len(diagnostics) - before
    if new_clashes:
        engine.stats.clashes += new_clashes
        sink = engine.sink
        if sink is not None:
            for diagnostic in diagnostics[before:]:
                sink.clash(diagnostic)
    append = engine.pending.append
    for tag, a, b in atoms:
        if tag == OP_VAR_VAR:
            append((OP_SUCC_FAN, a.index, (b.index,)))
        elif tag == OP_SOURCE:
            append((OP_SOURCE_FAN, a, (b.index,)))
        else:
            append((OP_SINK, a.index, b))
