"""Constraint-graph representations and cycle machinery.

The two solved forms of the paper — standard form (Section 2.3) and
inductive form (Section 2.4) — plus the partial online cycle detection
of Section 2.5, variable orders, and offline SCC utilities.  Each graph
owns its union-find forwarding (``parent``) and rank (``ranks``) lists.
"""

from .base import (
    ConstraintGraphBase,
    OP_RESOLVE,
    OP_SINK,
    OP_SOURCE,
    OP_VAR_VAR,
    Op,
)
from .cycles import SearchMode, find_chain_path
from .inductive import InductiveGraph
from .order import (
    CreationOrder,
    OrderSpec,
    RandomOrder,
    ReverseCreationOrder,
)
from .scc import (
    SccSummary,
    strongly_connected_components,
    summarize_sccs,
    witness_map,
)
from .standard import StandardGraph
from .stats import SolverStats

__all__ = [
    "ConstraintGraphBase",
    "CreationOrder",
    "InductiveGraph",
    "OP_RESOLVE",
    "OP_SINK",
    "OP_SOURCE",
    "OP_VAR_VAR",
    "Op",
    "OrderSpec",
    "RandomOrder",
    "ReverseCreationOrder",
    "SccSummary",
    "SearchMode",
    "SolverStats",
    "StandardGraph",
    "find_chain_path",
    "strongly_connected_components",
    "summarize_sccs",
    "witness_map",
]
