"""The bridge from solver events to metric instruments.

:class:`MetricsSink` is a :class:`repro.trace.sinks.TraceSink`, which
is the whole trick: the solver core has exactly one set of
instrumentation points (the trace call sites in ``solver/engine`` and
``graph/{base,standard,inductive,cycles}``), and metrics ride those
points instead of adding a second, driftable set.  Attach one with
``SolverOptions(sink=MetricsSink.for_options(options, ...))``.

It is also the only sink that aggregates: besides feeding the registry
it keeps the per-run views the trace side reports — :meth:`summary`,
the raw phase :attr:`~MetricsSink.spans` for Chrome export, and the
per-variable fan-out distribution (:meth:`fanout_histogram`).  The
views are computed from the sink's own label series, so a caller that
wants per-run numbers gives each run its own labels or registry.

Overhead:

* **No sink attached** — the solver pays one attribute check per
  operation, exactly as before; metrics code is never reached.
* **Sink attached, registry disabled** — every event method returns
  after one attribute read (``registry.enabled``); instruments are
  registered but receive nothing, and deterministic solver counters
  are byte-identical to an untraced run (tested against
  ``benchmarks/BASELINE.json``).
* **Sink attached, registry enabled** — label resolution happened at
  construction: each event is a dict-cached child lookup plus a couple
  of integer adds (an added var-var edge also bumps its source's
  fan-out count; a phase end appends one span).

Every instrument carries the base labels ``form`` (``SF``/``IF``),
``mode`` (the cycle policy: ``plain``/``online``/``oracle``/
``periodic``), ``suite`` and ``benchmark`` — the dimensions the
paper's Tables 2–4 break results down by.  See ``docs/METRICS.md`` for
the full catalog.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..trace.sinks import TraceSink
from .instruments import Family, Histogram
from .registry import MetricsRegistry, default_registry

if TYPE_CHECKING:  # pragma: no cover - avoid solver <-> metrics cycle
    from ..solver.options import SolverOptions

#: Base label names every solver instrument carries, in order.
BASE_LABELS = ("form", "mode", "suite", "benchmark")

#: Attributes holding this sink's prebound scalar counter children.
_SCALARS = ("_resolutions", "_clashes", "_searches", "_search_hits",
            "_collapses", "_vars_eliminated", "_sweeps", "_swept_vars")

#: Attributes holding families with labels beyond :data:`BASE_LABELS`.
_LABELED = ("_edges", "_audit_failures", "_budget_stops",
            "_phase_seconds")


class MetricsSink(TraceSink):
    """Fold solver events into a registry's instruments."""

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 form: str = "", mode: str = "", suite: str = "",
                 benchmark: str = "", label: str = "") -> None:
        if registry is None:
            registry = default_registry()
        self.registry = registry
        #: free-form run name echoed by :meth:`summary` (not a metric
        #: label; e.g. ``"allroots/IF-Online"``)
        self.label = label
        self.labels: Dict[str, str] = {
            "form": form, "mode": mode, "suite": suite,
            "benchmark": benchmark,
        }
        base = (form, mode, suite, benchmark)
        reg = registry

        def counter(name: str, help_: str, extra: Tuple[str, ...] = ()):
            return reg.counter(name, help_, BASE_LABELS + extra)

        def histogram(name: str, help_: str):
            return reg.histogram(name, help_, BASE_LABELS)

        self._edges = counter(
            "repro_solver_edges_total",
            "Attempted atomic edge additions by kind and outcome; "
            "summed over outcomes this is the paper's Work metric "
            "(Tables 2 and 3).",
            ("kind", "outcome"),
        )
        #: (kind, outcome) -> prebound counter child
        self._edge_children: Dict[Tuple[str, str], object] = {}
        self._resolutions = counter(
            "repro_solver_resolutions_total",
            "Applications of the resolution rules R.",
        ).labels(*base)
        self._clashes = counter(
            "repro_solver_clashes_total",
            "Inconsistent constraints recorded.",
        ).labels(*base)
        self._searches = counter(
            "repro_solver_searches_total",
            "Partial online cycle searches started.",
        ).labels(*base)
        self._search_hits = counter(
            "repro_solver_search_hits_total",
            "Partial searches that found a cycle (detection rate "
            "numerator; Figure 11).",
        ).labels(*base)
        self.search_visits: Histogram = histogram(
            "repro_solver_search_visits",
            "Nodes visited per partial cycle search; Theorem 5.2 bounds "
            "the mean at about 2.2.",
        ).labels(*base)
        self.cycle_lengths: Histogram = histogram(
            "repro_solver_cycle_length",
            "Length of each collapsed cycle.",
        ).labels(*base)
        self._collapses = counter(
            "repro_solver_collapses_total",
            "Detected cycles collapsed onto a witness.",
        ).labels(*base)
        self._vars_eliminated = counter(
            "repro_solver_vars_eliminated_total",
            "Variables forwarded into a witness by collapsing (the Elim "
            "column of Table 3).",
        ).labels(*base)
        self._sweeps = counter(
            "repro_solver_sweeps_total",
            "Offline SCC sweeps (periodic policy only).",
        ).labels(*base)
        self._swept_vars = counter(
            "repro_solver_swept_vars_total",
            "Variables eliminated by offline sweeps.",
        ).labels(*base)
        self._audit_failures = counter(
            "repro_solver_audit_failures_total",
            "Graph-invariant audit failures, by failed check.",
            ("check",),
        )
        self._audit_children: Dict[str, object] = {}
        self._budget_stops = counter(
            "repro_solver_budget_stops_total",
            "Solver drains stopped early, by reason "
            "(work/deadline/edges/cancelled).",
            ("reason",),
        )
        self._budget_children: Dict[str, object] = {}
        self._phase_seconds = counter(
            "repro_solver_phase_seconds_total",
            "Wall-clock seconds spent per solver phase.",
            ("phase",),
        )
        self._phase_children: Dict[str, object] = {}
        self._base = base
        self._open_phases: List[Tuple[str, float]] = []
        #: raw (name, begin, end) phase spans; perf_counter timebase
        self.spans: List[Tuple[str, float, float]] = []
        #: source variable id -> added outgoing var-var edges
        self._fanout: Dict[int, int] = {}

    @classmethod
    def for_options(cls, options: "SolverOptions",
                    registry: Optional[MetricsRegistry] = None,
                    suite: str = "",
                    benchmark: str = "",
                    label: str = "") -> "MetricsSink":
        """A sink labeled from one run's solver configuration."""
        return cls(
            registry,
            form=options.form.value,
            mode=options.cycles.value,
            suite=suite,
            benchmark=benchmark,
            label=label,
        )

    # -- events ---------------------------------------------------------
    def edge(self, kind, src, dst, outcome):
        if not self.registry.enabled:
            return
        key = (kind, outcome)
        child = self._edge_children.get(key)
        if child is None:
            child = self._edges.labels(*self._base, kind, outcome)
            self._edge_children[key] = child
        child.value += 1.0
        if kind == "vv" and outcome == "added":
            fanout = self._fanout
            fanout[src] = fanout.get(src, 0) + 1

    def resolve(self, left, right):
        if not self.registry.enabled:
            return
        self._resolutions.value += 1.0

    def clash(self, diagnostic):
        if not self.registry.enabled:
            return
        self._clashes.value += 1.0

    def search_start(self, start, target):
        if not self.registry.enabled:
            return
        self._searches.value += 1.0

    def search_end(self, found, visits, length):
        if not self.registry.enabled:
            return
        self.search_visits.observe(visits)
        if found:
            self._search_hits.value += 1.0
            self.cycle_lengths.observe(length)

    def collapse(self, witness, members):
        if not self.registry.enabled:
            return
        self._collapses.value += 1.0
        eliminated = len(members) - 1
        if eliminated > 0:
            self._vars_eliminated.value += float(eliminated)

    def sweep(self, eliminated):
        if not self.registry.enabled:
            return
        self._sweeps.value += 1.0
        self._swept_vars.value += float(eliminated)

    def audit_failure(self, failure):
        if not self.registry.enabled:
            return
        check = str(getattr(failure, "check", "unknown"))
        child = self._audit_children.get(check)
        if child is None:
            child = self._audit_failures.labels(*self._base, check)
            self._audit_children[check] = child
        child.value += 1.0

    def budget_stop(self, reason, limit, value):
        if not self.registry.enabled:
            return
        child = self._budget_children.get(reason)
        if child is None:
            child = self._budget_stops.labels(*self._base, reason)
            self._budget_children[reason] = child
        child.value += 1.0

    def phase_begin(self, name):
        if not self.registry.enabled:
            return
        self._open_phases.append((name, perf_counter()))

    def phase_end(self, name):
        if not self.registry.enabled:
            return
        now = perf_counter()
        for index in range(len(self._open_phases) - 1, -1, -1):
            open_name, began = self._open_phases[index]
            if open_name == name:
                del self._open_phases[index]
                child = self._phase_children.get(name)
                if child is None:
                    child = self._phase_seconds.labels(*self._base, name)
                    self._phase_children[name] = child
                child.value += now - began
                self.spans.append((name, began, now))
                return
        # Unmatched end (e.g. the registry was enabled mid-phase): a
        # zero-length span, no seconds — metrics must never take the
        # solver down.
        self.spans.append((name, now, now))

    # -- per-run views --------------------------------------------------
    def _own_series(self, family: Family) -> list:
        """``(extra_label_values, child)`` pairs under this sink's base
        labels, label-sorted."""
        width = len(BASE_LABELS)
        return [
            (values[width:], child)
            for values, child in family.series()
            if values[:width] == self._base
        ]

    def _totals(self, family: Family, index: int) -> Dict[str, float]:
        """Own series summed by the ``index``-th extra label."""
        totals: Dict[str, float] = {}
        for extra, child in self._own_series(family):
            key = extra[index]
            totals[key] = totals.get(key, 0.0) + child.value
        return dict(sorted(totals.items()))

    def phase_seconds(self) -> Dict[str, float]:
        """Phase name -> accumulated wall-clock seconds."""
        return self._totals(self._phase_seconds, 0)

    def fanout_histogram(self) -> Histogram:
        """Distribution of per-variable added var-var out-degree."""
        hist = Histogram()
        for degree in self._fanout.values():
            hist.observe(degree)
        return hist

    def merge(self, other: "MetricsSink") -> None:
        """Fold another sink's per-run series into this sink's labels."""
        for name in _SCALARS:
            getattr(self, name).value += getattr(other, name).value
        self.search_visits.merge(other.search_visits)
        self.cycle_lengths.merge(other.cycle_lengths)
        for name in _LABELED:
            mine = getattr(self, name)
            for extra, child in other._own_series(getattr(other, name)):
                mine.labels(*self._base, *extra).value += child.value
        for src, degree in other._fanout.items():
            self._fanout[src] = self._fanout.get(src, 0) + degree
        self.spans.extend(other.spans)

    def summary(self) -> dict:
        """JSON-ready per-run snapshot (the ``trace_summary`` layout)."""
        searches = int(self._searches.value)
        hits = int(self._search_hits.value)
        edges = self._edges
        return {
            "label": self.label,
            "searches": searches,
            "search_hits": hits,
            "hit_rate": hits / searches if searches else 0.0,
            "mean_search_visits": self.search_visits.mean,
            "search_visits": _histogram_summary(self.search_visits),
            "cycle_lengths": _histogram_summary(self.cycle_lengths),
            "fanout": _histogram_summary(self.fanout_histogram()),
            "collapses": int(self._collapses.value),
            "sweeps": int(self._sweeps.value),
            "swept_vars": int(self._swept_vars.value),
            "resolutions": int(self._resolutions.value),
            "clashes": int(self._clashes.value),
            "edge_outcomes": {
                outcome: int(count)
                for outcome, count in self._totals(edges, 1).items()
            },
            "edge_kinds": {
                kind: int(count)
                for kind, count in self._totals(edges, 0).items()
            },
            "phase_seconds": self.phase_seconds(),
        }


def _histogram_summary(hist: Histogram) -> dict:
    return {
        "count": hist.count,
        "total": hist.sum,
        "min": hist.min,
        "max": hist.max,
        "mean": hist.mean,
        "buckets": {str(k): v for k, v in sorted(hist.buckets.items())},
    }
