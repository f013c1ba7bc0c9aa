"""Oracle cycle elimination (paper Section 4).

The oracle experiments measure a *lower bound*: perfect cycle
elimination at zero detection cost.  The paper implements it by letting
an oracle predict, at variable-creation time, which strongly connected
component the variable will eventually join, and substituting the
component's witness.

We realize the oracle in two phases:

1. **Phase 1** solves the system plainly (no elimination).  A plain
   run collapses nothing, so its final graph stores every var-var
   constraint over original variable ids (:attr:`Solution.var_edges`);
   Tarjan over that graph yields the final SCCs and a witness map.
2. **Phase 2** re-solves the same system with every SCC member
   pre-collapsed onto its witness before any constraint is processed.

Phase 2's statistics are the oracle numbers; phase 1 is attached to the
returned solution for inspection but its cost is *not* charged to the
oracle (matching the paper's zero-cost idealization).  An attached
``options.sink`` likewise observes phase 2 only, so its telemetry
agrees with the returned counters.
"""

from __future__ import annotations

from ..constraints.system import ConstraintSystem
from ..graph.scc import witness_map
from .engine import SolverEngine
from .options import CyclePolicy, SolverOptions
from .solution import Solution


def solve_with_oracle(
    system: ConstraintSystem, options: SolverOptions
) -> Solution:
    """Run the two-phase oracle experiment for ``options.form``."""
    plain = options.replace(cycles=CyclePolicy.NONE)
    phase1 = SolverEngine(system, plain.replace(sink=None)).run()
    mapping = witness_map(range(system.num_vars), phase1.var_edges)
    solution = SolverEngine(system, plain, alias_map=mapping).run()
    # Present the run under its true label (e.g. "IF-Oracle").
    solution.options = options
    solution.oracle_phase1 = phase1
    solution.oracle_witnessed = len(mapping)
    return solution
