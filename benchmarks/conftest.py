"""Shared fixtures for the benchmark harness.

The suite defaults to "medium" (16 programs up to ~14k AST nodes, the
regime where the paper's factors are visible) and can be overridden::

    REPRO_BENCH_SUITE=quick pytest benchmarks/ --benchmark-only
    REPRO_BENCH_SUITE=full  pytest benchmarks/ --benchmark-only

One ``SuiteResults`` instance is shared by the whole session so each
(benchmark, experiment) pair is solved exactly once no matter how many
tables and figures read it.  ``SuiteResults`` solves through
:func:`repro.bench.measure.measure_system`, the measurement path the
counter gate (``python -m repro.bench``) uses too.
"""

from __future__ import annotations

import os

import pytest

from repro.bench.harness import bench_once
from repro.experiments import SuiteResults


def suite_name() -> str:
    return os.environ.get("REPRO_BENCH_SUITE", "medium")


@pytest.fixture(scope="session")
def results() -> SuiteResults:
    return SuiteResults.for_suite(suite_name())


@pytest.fixture(scope="session")
def large_benchmark(results):
    """The largest benchmark in the active suite (for headline claims)."""
    return max(results.benchmarks, key=lambda bench: bench.ast_nodes)


#: Re-exported for the ``bench_*.py`` scripts; the implementation lives
#: in :mod:`repro.bench.harness` next to the rest of the harness.
once = bench_once
