"""The one measurement primitive every benchmark path goes through.

Both the experiment runner (:class:`repro.experiments.SuiteResults`,
which feeds the paper's tables and figures) and the counter gate
(:mod:`repro.bench.harness`) solve through :func:`measure_system`.
Keeping a single code path means a recorded baseline and a reproduced
table can never disagree about *how* a number was measured.

A measurement solves the same system ``repeats`` times and keeps the
best-timed solution (the paper's best-of convention for CPU times).
The deterministic counters — ``work``, ``redundant``,
``cycle_search_visits``, ... — must be identical across repeats; a
mismatch means the solver lost reproducibility and raises
:class:`NondeterministicRunError` rather than silently recording noise.
Cyclic garbage collection is paused during each timed solve: a
collection pause landing in one solve would stretch that one time and
could reorder the configurations' totals (Figure 8).
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from typing import Dict

from ..constraints.system import ConstraintSystem
from ..solver import Solution, SolverOptions, solve

#: SolverStats fields that must be bit-identical across repeated runs of
#: the same system/options (everything except wall-clock times).
COUNTER_FIELDS = (
    "work",
    "redundant",
    "self_edges",
    "resolutions",
    "clashes",
    "cycle_searches",
    "cycle_search_visits",
    "cycles_found",
    "vars_eliminated",
    "periodic_sweeps",
    "final_edges",
)


class NondeterministicRunError(RuntimeError):
    """Raised when repeated runs disagree on a deterministic counter."""


def counters_of(solution: Solution) -> Dict[str, int]:
    """The deterministic counter snapshot of one solved run."""
    stats = solution.stats
    return {name: getattr(stats, name) for name in COUNTER_FIELDS}


@dataclass
class Measurement:
    """One system solved under one config: the best-timed repeat."""

    solution: Solution

    @property
    def counters(self) -> Dict[str, int]:
        return counters_of(self.solution)


def measure_system(
    system: ConstraintSystem,
    options: SolverOptions,
    repeats: int = 1,
) -> Measurement:
    """Solve ``system`` ``repeats`` times and collect the measurements.

    Returns the best-timed solution (all repeats are verified to agree
    on every deterministic counter, so which solution is kept only
    affects the attached wall-clock stats).  An attached
    ``options.sink`` observes the first repeat only, so its telemetry
    describes one solve; later repeats run without it.  Cyclic garbage
    collection is off during each solve and back in its previous state
    after it.
    """
    repeats = max(1, repeats)
    best: Solution = None  # type: ignore[assignment]
    best_time = float("inf")
    reference: Dict[str, int] = {}
    for attempt in range(repeats):
        if attempt == 1:
            options = options.replace(sink=None)
        collecting = gc.isenabled()
        gc.disable()
        try:
            solution = solve(system, options)
        finally:
            if collecting:
                gc.enable()
        elapsed = solution.stats.total_seconds
        counters = counters_of(solution)
        if attempt == 0:
            reference = counters
        elif counters != reference:
            drifted = sorted(
                name for name in COUNTER_FIELDS
                if counters[name] != reference[name]
            )
            raise NondeterministicRunError(
                f"{options.label}: counters {drifted} changed between "
                f"repeat 0 and repeat {attempt} on the same system"
            )
        if elapsed < best_time:
            best, best_time = solution, elapsed
    return Measurement(solution=best)
