"""Aggregated solver metrics: registry, sink, exporters.

Where :mod:`repro.trace` answers "what did this one run do, event by
event", ``repro.metrics`` answers "what has this *process* done so
far" — the always-on, low-overhead aggregation layer a long-running
service is monitored through:

* **Instruments** (:mod:`repro.metrics.instruments`): ``Counter``,
  ``Gauge`` and ``Histogram`` families labeled by graph form, cycle
  policy, suite and benchmark.  ``Histogram`` is the repo's only
  histogram (exact below 16, power-of-two buckets above).
* **Registry** (:mod:`repro.metrics.registry`): a process-wide
  :class:`MetricsRegistry` with Prometheus text exposition
  (:meth:`~MetricsRegistry.expose`), JSON snapshots, and periodic
  flush-to-file for batch runs.
* **Sink** (:mod:`repro.metrics.sink`): :class:`MetricsSink` adapts
  the registry onto the :class:`repro.trace.sinks.TraceSink` protocol,
  so metrics reuse the solver's existing instrumentation points and
  disabled metrics keep the one-attribute-check overhead guarantee.
  It is the only sink that aggregates: the trace report and
  ``repro.bench --trace`` read its per-run ``summary()`` and spans.
* **Exporters** (:mod:`repro.metrics.exposition`,
  :mod:`repro.metrics.server`): exposition rendering + validation and
  a stdlib-only HTTP scrape endpoint
  (``python -m repro.metrics serve``).

Quick use::

    from repro import solve
    from repro.metrics import MetricsRegistry, MetricsSink

    registry = MetricsRegistry()
    options = options.replace(
        sink=MetricsSink.for_options(options, registry, suite="adhoc")
    )
    solve(system, options)
    print(registry.expose())

See ``docs/METRICS.md`` for the instrument catalog and workflows.
"""

from __future__ import annotations

from .exposition import (
    CONTENT_TYPE,
    ExpositionError,
    render,
    validate_exposition,
)
from .instruments import Counter, Family, Gauge, Histogram
from .registry import (
    SNAPSHOT_SCHEMA_VERSION,
    MetricsRegistry,
    PeriodicFlusher,
    default_registry,
    reset_default_registry,
)
from .sink import BASE_LABELS, MetricsSink
from .server import serve, serve_in_thread

__all__ = [
    "BASE_LABELS",
    "CONTENT_TYPE",
    "Counter",
    "ExpositionError",
    "Family",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSink",
    "PeriodicFlusher",
    "SNAPSHOT_SCHEMA_VERSION",
    "default_registry",
    "render",
    "reset_default_registry",
    "serve",
    "serve_in_thread",
    "validate_exposition",
]
