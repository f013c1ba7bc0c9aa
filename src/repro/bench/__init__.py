"""Counter-identity gate (``python -m repro.bench``).

Solves a pinned suite under the six Table-4 configurations and requires
every deterministic solver counter to equal the committed baseline.
Wall time belongs to ``perfbench/``, not to this package.

Layout:

* :mod:`repro.bench.measure` — the one measurement primitive shared
  with the experiment runner (kept import-light; only this module is
  imported eagerly so ``repro.experiments`` can depend on it without a
  cycle);
* :mod:`repro.bench.harness` — suite runner producing schema-versioned
  :class:`~repro.bench.harness.BenchReport` objects;
* :mod:`repro.bench.baseline` — report / baseline JSON I/O;
* :mod:`repro.bench.compare` — the exact counter comparison;
* :mod:`repro.bench.__main__` — the CLI.
"""

from __future__ import annotations

from .measure import (
    COUNTER_FIELDS,
    Measurement,
    NondeterministicRunError,
    counters_of,
    measure_system,
)

__all__ = [
    "COUNTER_FIELDS",
    "Measurement",
    "NondeterministicRunError",
    "counters_of",
    "measure_system",
    # lazily importable (see __getattr__):
    "BenchRecord",
    "BenchReport",
    "ComparisonResult",
    "compare_reports",
    "load_report",
    "run_bench",
    "write_report",
]

_LAZY = {
    "BenchRecord": "harness",
    "BenchReport": "harness",
    "run_bench": "harness",
    "load_report": "baseline",
    "write_report": "baseline",
    "ComparisonResult": "compare",
    "compare_reports": "compare",
}


def __getattr__(name: str):
    """Lazy re-exports of the harness layers.

    ``repro.experiments.runner`` imports :mod:`repro.bench.measure`
    while :mod:`repro.bench.harness` imports ``repro.experiments`` —
    deferring the heavier imports here keeps that dependency DAG free of
    an import cycle.
    """
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    return getattr(module, name)
