"""Solver configuration.

The cross product of :class:`GraphForm` and :class:`CyclePolicy` yields
the six experiments of paper Table 4:

=============  ==================  =================================
Experiment     form                cycles
=============  ==================  =================================
SF-Plain       ``STANDARD``        ``NONE``
IF-Plain       ``INDUCTIVE``       ``NONE``
SF-Oracle      ``STANDARD``        ``ORACLE``
IF-Oracle      ``INDUCTIVE``       ``ORACLE``
SF-Online      ``STANDARD``        ``ONLINE``
IF-Online      ``INDUCTIVE``       ``ONLINE``
=============  ==================  =================================
"""

from __future__ import annotations

import dataclasses
import enum
from typing import TYPE_CHECKING, Optional

from ..graph.cycles import SearchMode
from ..graph.order import OrderSpec, RandomOrder

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (trace ← solver)
    from ..resilience.budget import CancellationToken, SolveBudget
    from ..trace.sinks import TraceSink


class GraphForm(enum.Enum):
    """Which solved form the solver maintains (paper Sections 2.3/2.4)."""

    STANDARD = "SF"
    INDUCTIVE = "IF"


class CyclePolicy(enum.Enum):
    """How cycles in the constraint graph are treated."""

    #: no cycle elimination at all (the "Plain" experiments)
    NONE = "plain"
    #: partial online detection and elimination at every edge insertion
    ONLINE = "online"
    #: perfect, zero-cost elimination via the two-phase oracle (Section 4)
    ORACLE = "oracle"
    #: offline SCC collapse every N edge additions — the *periodic
    #: simplification* strategy of prior work the paper's introduction
    #: argues against ([FA96, FF97, MW97])
    PERIODIC = "periodic"


@dataclasses.dataclass
class SolverOptions:
    """Options accepted by :func:`repro.solver.solve`."""

    form: GraphForm = GraphForm.INDUCTIVE
    cycles: CyclePolicy = CyclePolicy.ONLINE
    #: variable order o(.); defaults to a seeded random order
    order: Optional[OrderSpec] = None
    #: seed for the default random order
    seed: int = 0
    #: chain-search direction (only meaningful for SF online; the paper's
    #: algorithm is DECREASING, INCREASING is the Section 4 ablation)
    search_mode: SearchMode = SearchMode.DECREASING
    #: for CyclePolicy.PERIODIC: run a full SCC sweep every this many
    #: processed variable-variable edge additions
    periodic_interval: int = 1000
    #: full-fidelity event sink (see :mod:`repro.trace`): edge
    #: insertions, resolutions, partial cycle searches, collapses,
    #: phase spans.  None (the default) disables tracing at the cost of
    #: one attribute check per instrumented operation.
    sink: Optional["TraceSink"] = None
    #: bounds on each closure segment (work units / wall clock / edge
    #: estimate): a batch run or resume, or one incremental add; None
    #: (the default) leaves the run unbounded and unchecked
    budget: Optional["SolveBudget"] = None
    #: cooperative cancellation flag polled on ``check_stride``
    cancellation: Optional["CancellationToken"] = None
    #: what happens when the budget is exhausted or the run is
    #: cancelled: "raise" (BudgetExceededError / SolveCancelledError) or
    #: "partial" (return a partial Solution whose status reports
    #: BUDGET_EXHAUSTED / CANCELLED; least-solution queries on it are
    #: sound lower bounds)
    on_budget: str = "raise"
    #: how many worklist operations between budget/cancellation checks;
    #: smaller = tighter enforcement, larger = less overhead
    check_stride: int = 256
    #: graph-invariant auditing: "off" (or None), "final", or
    #: "stride-N" (audit every N processed operations, plus final); see
    #: :mod:`repro.resilience.audit`
    audit: Optional[str] = None
    #: record bucket insertion order so the engine can be checkpointed
    #: with exact counter reproduction on resume (see
    #: :mod:`repro.resilience.checkpoint`); implied by setting a budget
    #: or cancellation token, since those are how runs get interrupted
    checkpointable: bool = False

    def order_spec(self) -> OrderSpec:
        return self.order if self.order is not None else RandomOrder(self.seed)

    def replace(self, **changes: object) -> "SolverOptions":
        return dataclasses.replace(self, **changes)

    @property
    def label(self) -> str:
        """Experiment-style label, e.g. ``"IF-Online"``."""
        if self.cycles is CyclePolicy.PERIODIC:
            return (
                f"{self.form.value}-Periodic({self.periodic_interval})"
            )
        policy = {
            CyclePolicy.NONE: "Plain",
            CyclePolicy.ONLINE: "Online",
            CyclePolicy.ORACLE: "Oracle",
        }[self.cycles]
        return f"{self.form.value}-{policy}"
