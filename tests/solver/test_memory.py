"""The solver's memory on the largest suite program.

Buckets are made on first insert (:data:`repro.graph.base.EMPTY_BUCKET`
until then), so a graph's memory is mostly the sets that hold
something.  On cvs-1.3 (23,051 variables) an IF-Online solve peaked at
32.9 MB under tracemalloc while every variable had four sets from the
start, 85 % of them never written.
"""

import tracemalloc

import pytest

from repro.experiments.config import options_for
from repro.solver import solve
from repro.workloads import suite

#: 60 % of the 32.9 MB that four sets per variable took
IF_ONLINE_PEAK_BYTES = 19.7e6


@pytest.mark.slow
def test_if_online_peak_on_cvs():
    (benchmark,) = [b for b in suite("full") if b.name == "cvs-1.3"]
    system = benchmark.program.system
    tracemalloc.start()
    try:
        solution = solve(system, options_for("IF-Online"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert solution.stats.vars_eliminated > 0
    assert peak <= IF_ONLINE_PEAK_BYTES, peak
