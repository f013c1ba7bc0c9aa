"""The graph-invariant auditor.

Validates the structural invariants the paper's algorithms rely on:

* **Union-find well-formedness** — parent indices in range and the
  forwarding forest acyclic (paper Section 2.5's witness forwarding).
* **Representative-only state** — a collapsed (non-representative)
  variable must hold no sources, sinks, or adjacency: ``_absorb``
  re-emits and clears them, so anything left behind means lost
  constraints.
* **Inductive-form edge placement** (Section 2.4 / the Section 4
  invariant) — every stored variable-variable edge lives at its
  *higher*-``o()`` endpoint: each raw neighbour recorded at a
  representative ``x`` must resolve to a variable ranked strictly below
  ``x`` (or to ``x`` itself — a stale self loop left by a collapse).
* **Standard-form shape** — SF stores all variable edges as successor
  edges; a non-empty predecessor set means a representation mix-up.

The auditor is read-only and duck-typed over
:class:`~repro.graph.base.ConstraintGraphBase` (it imports no graph
module), so it can also audit checkpoint-restored or hand-built graphs.
Run it through ``SolverOptions(audit=...)`` — ``"off"``, ``"final"``
(after closure), or ``"stride-N"`` (every N processed operations, plus
final) — or call :func:`audit_graph` directly.  Failures are emitted as
``audit.failure`` events through any attached trace sink before the
engine raises :class:`~repro.resilience.errors.GraphInvariantError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .errors import ResilienceError

#: Audit check identifiers (the ``check`` field of a failure).
CHECK_UF_RANGE = "unionfind-range"
CHECK_UF_CYCLE = "unionfind-cycle"
CHECK_NONREP_STATE = "nonrep-state"
CHECK_IF_PLACEMENT = "inductive-placement"
CHECK_SF_SHAPE = "standard-shape"


@dataclass(frozen=True)
class AuditFailure:
    """One violated invariant.

    Attributes:
        check: which invariant failed (one of the ``CHECK_*`` tags).
        subject: the variable index the failure is anchored at.
        detail: human-readable description of the violation.
    """

    check: str
    subject: int
    detail: str

    def __str__(self) -> str:
        return f"{self.check}@v{self.subject}: {self.detail}"


@dataclass(frozen=True)
class AuditPolicy:
    """When the engine audits: parsed from ``off | final | stride-N``."""

    final: bool = False
    stride: Optional[int] = None

    @classmethod
    def parse(cls, spec: Optional[str]) -> "AuditPolicy":
        if spec is None or spec == "off":
            return cls(final=False, stride=None)
        if spec == "final":
            return cls(final=True, stride=None)
        if spec.startswith("stride-"):
            try:
                stride = int(spec[len("stride-"):])
            except ValueError:
                stride = 0
            if stride > 0:
                # A stride policy also audits once more after closure so
                # the tail below one stride is never unchecked.
                return cls(final=True, stride=stride)
        raise ResilienceError(
            f"bad audit mode {spec!r}; expected 'off', 'final', or "
            f"'stride-N' with positive N"
        )

    @property
    def enabled(self) -> bool:
        return self.final or self.stride is not None


def _audit_unionfind(graph, failures: List[AuditFailure]) -> bool:
    """Check the forwarding forest; returns False when it is unusable."""
    parent = graph.parent
    size = len(parent)
    ok = True
    for element, p in enumerate(parent):
        if not 0 <= p < size:
            failures.append(AuditFailure(
                CHECK_UF_RANGE, element,
                f"parent pointer {p} outside [0, {size})",
            ))
            ok = False
    if not ok:
        return False
    # Acyclicity: walk each chain, memoizing nodes proven to reach a
    # root (state 2).  State 1 marks the current walk, so re-meeting a
    # state-1 node means the forwarding pointers loop.
    state = bytearray(size)
    for element in range(size):
        if state[element]:
            continue
        path = []
        node = element
        while state[node] == 0 and parent[node] != node:
            state[node] = 1
            path.append(node)
            node = parent[node]
            if state[node] == 1:
                failures.append(AuditFailure(
                    CHECK_UF_CYCLE, node,
                    "forwarding pointers form a cycle "
                    f"(reached v{node} twice)",
                ))
                ok = False
                break
        for visited in path:
            state[visited] = 2
        state[node] = 2
    return ok


def audit_graph(graph) -> List[AuditFailure]:
    """Validate every invariant of ``graph``; return all failures.

    Read-only.  An empty list means the graph is well-formed.
    """
    failures: List[AuditFailure] = []
    uf_ok = _audit_unionfind(graph, failures)
    if not uf_ok:
        # find() could loop forever on a cyclic forest; the remaining
        # checks depend on it, so stop at the union-find verdict.
        return failures

    num_vars = graph.num_vars
    parent = graph.parent
    find = graph.find
    ranks = graph.ranks
    inductive = graph.inductive

    for var in range(num_vars):
        is_rep = parent[var] == var
        if not is_rep:
            for label, bucket in (
                ("sources", graph.sources[var]),
                ("sinks", graph.sinks[var]),
                ("successor edges", graph.succ_vars[var]),
                ("predecessor edges", graph.pred_vars[var]),
            ):
                if bucket:
                    failures.append(AuditFailure(
                        CHECK_NONREP_STATE, var,
                        f"collapsed variable still holds {len(bucket)} "
                        f"{label} (forwarded to v{find(var)})",
                    ))
            continue
        if not inductive and graph.pred_vars[var]:
            failures.append(AuditFailure(
                CHECK_SF_SHAPE, var,
                f"standard form stores no predecessor edges, found "
                f"{len(graph.pred_vars[var])}",
            ))
        if inductive:
            own_rank = ranks[var]
            for kind, bucket in (
                ("succ", graph.succ_vars[var]),
                ("pred", graph.pred_vars[var]),
            ):
                for raw in bucket:
                    neighbour = find(raw)
                    if neighbour == var:
                        continue  # stale self loop left by a collapse
                    if ranks[neighbour] >= own_rank:
                        failures.append(AuditFailure(
                            CHECK_IF_PLACEMENT, var,
                            f"{kind} edge to v{raw} (rep v{neighbour}, "
                            f"rank {ranks[neighbour]}) stored at v{var} "
                            f"(rank {own_rank}); inductive form keeps "
                            f"each edge at its higher-o() endpoint",
                        ))
    return failures
