"""Output renderings checked against the independent reference solver.

Every output the benchmark times is compared with what
:func:`repro.solver.solve_reference` (naive fixed-point saturation, no
graph machinery) gives for the same input, never with an engine
configuration under test.  The reference solves each input once per
run, after the timed passes.
"""

from __future__ import annotations

import hashlib
import json


def term_text(term) -> str:
    """A term of an Andersen least solution is identified by its
    constructor and its location label."""
    return f"{term.constructor.name}:{term.label}"


def least_solution_digest(system, solution) -> str:
    """Digest of the least solution of every variable, in index order.

    ``solution`` is a :class:`~repro.solver.Solution` or the reference
    solver's result; both answer ``least_solution(var)``.
    """
    digest = hashlib.sha256()
    for var in system.variables:
        line = "|".join(sorted(term_text(term)
                               for term in solution.least_solution(var)))
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def points_to_digest(result) -> str:
    """Digest of a :class:`~repro.andersen.PointsToResult` graph, by
    location name."""
    graph = sorted(result.as_name_graph().items())
    return hashlib.sha256(json.dumps(graph).encode("utf-8")).hexdigest()
