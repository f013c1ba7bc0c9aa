"""Graphviz (DOT) export for constraint graphs and points-to graphs.

Purely textual — no graphviz dependency; feed the output to ``dot``::

    from repro.viz import constraint_graph_dot
    open("graph.dot", "w").write(constraint_graph_dot(solution))

:func:`traced_constraint_graph_dot` additionally takes the event list of
a traced run (see :mod:`repro.trace`) and highlights where online cycle
elimination fired: collapse witnesses are drawn filled, annotated with
how many variables were forwarded into them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .solver.solution import Solution
    from .trace.events import TraceEvent


def _quote(text: str) -> str:
    escaped = text.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def constraint_graph_dot(
    solution: "Solution",
    max_nodes: Optional[int] = 200,
    name: str = "constraints",
    collapse_counts: Optional[dict] = None,
) -> str:
    """Render the final constraint graph of a solved system.

    Variable-variable successor edges are solid, predecessor edges
    dotted (the paper's drawing convention); sources and sinks appear as
    box nodes.  Collapsed variables are shown merged (only
    representatives are drawn).

    ``collapse_counts`` maps variable index -> number of variables
    eliminated into it; those nodes are drawn filled and annotated.
    Callers usually get this from a traced run via
    :func:`traced_constraint_graph_dot` rather than passing it directly.
    """
    graph = solution.graph
    collapse_counts = collapse_counts or {}
    lines = [f"digraph {_quote(name)} {{", "  rankdir=LR;"]
    reps = [
        rep for rep, parent in enumerate(graph.parent) if rep == parent
    ]
    if max_nodes is not None:
        reps = reps[:max_nodes]
    shown = set(reps)
    for rep in reps:
        eliminated = collapse_counts.get(rep, 0)
        if eliminated:
            label = f"v{rep} (+{eliminated} collapsed)"
            lines.append(
                f"  v{rep} [label={_quote(label)} shape=ellipse "
                f"style=filled fillcolor=lightsalmon];"
            )
        else:
            lines.append(
                f"  v{rep} [label={_quote(f'v{rep}')} shape=ellipse];"
            )
    term_ids = {}

    def term_node(term) -> str:
        """Intern a term as a box node, returning its DOT id."""
        key = (str(term),)
        node = term_ids.get(key)
        if node is None:
            node = f"t{len(term_ids)}"
            term_ids[key] = node
            lines.append(
                f"  {node} [label={_quote(str(term))} shape=box];"
            )
        return node

    for rep in reps:
        for succ in sorted(graph.canonical_successors(rep)):
            if succ in shown:
                lines.append(f"  v{rep} -> v{succ};")
        for pred in sorted(graph.canonical_predecessors(rep)):
            if pred in shown:
                lines.append(f"  v{pred} -> v{rep} [style=dotted];")
        for term in sorted(graph.sources[rep], key=str):
            lines.append(
                f"  {term_node(term)} -> v{rep} [style=dotted];"
            )
        for term in sorted(graph.sinks[rep], key=str):
            lines.append(f"  v{rep} -> {term_node(term)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def traced_constraint_graph_dot(
    solution: "Solution",
    events: Iterable["TraceEvent"],
    max_nodes: Optional[int] = 200,
    name: str = "constraints",
) -> str:
    """Render a solved graph with its trace's collapse events marked.

    ``events`` is a recorded event list — from a
    :class:`repro.trace.CollectorSink` attached to the same run, or
    loaded back with :func:`repro.trace.read_jsonl`.  Every ``collapse``
    event credits its witness (resolved to the final representative,
    since witnesses can themselves be collapsed later) with the cycle
    members eliminated into it, and those nodes come out filled and
    annotated in the drawing.
    """
    find = solution.graph.find
    collapse_counts: dict = {}
    for event in events:
        if event.name != "collapse":
            continue
        witness = event.args.get("witness")
        members = event.args.get("members", ())
        if not isinstance(witness, int):
            continue
        rep = find(witness)
        eliminated = max(0, len(members) - 1)
        collapse_counts[rep] = collapse_counts.get(rep, 0) + eliminated
    return constraint_graph_dot(
        solution,
        max_nodes=max_nodes,
        name=name,
        collapse_counts=collapse_counts,
    )


def points_to_dot(result, name: str = "points_to") -> str:
    """Render an Andersen points-to graph (paper Figure 5 style)."""
    lines = [f"digraph {_quote(name)} {{"]
    for location, targets in sorted(
        result.graph.items(), key=lambda item: item[0].name
    ):
        if not targets:
            continue
        lines.append(
            f"  {_quote(location.name)} [shape=ellipse];"
        )
        for target in sorted(targets, key=lambda t: t.name):
            lines.append(
                f"  {_quote(location.name)} -> {_quote(target.name)};"
            )
    lines.append("}")
    return "\n".join(lines) + "\n"
