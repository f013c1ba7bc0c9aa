"""Solver observability: event tracing, profiling, and telemetry.

The subsystem has three layers:

* **Events** (:mod:`repro.trace.events`): the vocabulary of structured
  solver events — edge insertions with their outcome, resolution-rule
  firings, partial-cycle-search start/visit/hit, collapses, periodic
  sweeps, and phase spans.
* **Sinks** (:mod:`repro.trace.sinks`): where events go.
  ``CollectorSink`` keeps them in memory, ``JsonlSink`` streams them
  to disk.  Aggregation — bounded-memory histograms, counts and
  per-phase wall-time spans — is :class:`repro.metrics.sink.MetricsSink`,
  the one sink that keeps totals.  Tracing is enabled by setting
  ``SolverOptions(sink=...)``; when no sink is attached the
  instrumentation costs one attribute check per operation.
* **Export & reporting** (:mod:`repro.trace.chrome`,
  :mod:`repro.trace.report`): Chrome/Perfetto trace export and the
  ``python -m repro.trace`` CLI, which records traced suite runs and
  reports the paper's per-operation quantities (mean partial-search
  visits vs Theorem 5.2's ≈2.2, IF vs SF online detection rates).

Quick use::

    from repro import ConstraintSystem, SolverOptions, solve
    from repro.trace import CollectorSink

    sink = CollectorSink()
    solve(system, SolverOptions(sink=sink))
    [e for e in sink.events if e.name == "collapse"]

See ``docs/OBSERVABILITY.md`` for the full event schema and workflows.
"""

from __future__ import annotations

from .chrome import (
    chrome_document,
    convert_jsonl,
    events_from_chrome,
    events_to_chrome,
    runs_to_chrome,
    spans_to_chrome,
    write_chrome,
)
from .events import EVENT_NAMES, TraceEvent
from .sinks import (
    NULL_SINK,
    CollectorSink,
    JsonlSink,
    TraceSink,
    events_to_jsonl_text,
    read_jsonl,
)

__all__ = [
    "CollectorSink",
    "EVENT_NAMES",
    "JsonlSink",
    "NULL_SINK",
    "TraceEvent",
    "TraceSink",
    "chrome_document",
    "convert_jsonl",
    "events_from_chrome",
    "events_to_chrome",
    "events_to_jsonl_text",
    "read_jsonl",
    "runs_to_chrome",
    "spans_to_chrome",
    "write_chrome",
]
