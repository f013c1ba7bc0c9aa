#!/usr/bin/env python
"""Incremental solving: add constraints one at a time, query in between.

An :class:`IncrementalSolver` closes the graph after every ``add`` and
answers ``least_solution(v)`` from ``v``'s predecessor cone, memoized
until the next ``add``.  The loop below grows a chain, closes it into a
cycle (which online elimination collapses), and queries after each
step.

Run:  python examples/incremental_queries.py
"""

from repro import Variance
from repro.solver import (
    CyclePolicy,
    GraphForm,
    IncrementalSolver,
    SolverOptions,
)


def main() -> None:
    solver = IncrementalSolver(SolverOptions(
        form=GraphForm.INDUCTIVE, cycles=CyclePolicy.ONLINE,
    ))
    box = solver.constructor("box", (Variance.COVARIANT,))
    a, b, c, out = (solver.fresh_var(name) for name in ("a", "b", "c",
                                                        "out"))

    def show(step: str) -> None:
        answer = sorted(str(term) for term in solver.least_solution(out))
        print(f"  {step:18s} LS(out) = {answer}")

    steps = [
        ("box[p] <= a", solver.term(box, (solver.zero,), label="p"), a),
        ("a <= b", a, b),
        ("b <= c", b, c),
        ("c <= out", c, out),
        ("box[q] <= b", solver.term(box, (solver.one,), label="q"), b),
        ("c <= a  (cycle)", c, a),
    ]
    print("Adding constraints one at a time, querying after each:")
    for step, left, right in steps:
        solver.add(left, right)
        show(step)

    stats = solver.stats
    print(
        f"\nThe cycle a -> b -> c -> a collapsed online: "
        f"same_component(a, c) = {solver.same_component(a, c)}, "
        f"{stats.vars_eliminated} variables eliminated."
    )
    print(
        f"work={stats.work}  closure={stats.closure_seconds * 1e3:.2f} ms  "
        f"queries={stats.least_solution_seconds * 1e3:.2f} ms"
    )


if __name__ == "__main__":
    main()
