"""Trace sinks: where solver events go.

:class:`TraceSink` is the protocol the solver core is instrumented
against — one method per event, so the hot paths never build event
objects or dispatch on strings.  The base class implements every method
as a no-op, which makes it simultaneously the protocol definition and
the null sink.

The overhead contract: the solver carries a ``sink`` attribute that is
``None`` when tracing is disabled; every instrumented call site loads it
once into a local and tests ``is not None``, so a disabled trace costs
one attribute read plus one or two pointer comparisons per worklist
operation — nothing is formatted, allocated, or timestamped.  Sinks that
need timestamps take them themselves (see :class:`CollectorSink`), so
the price of a clock read is paid only by sinks that want one.

This module deliberately imports nothing from the solver packages, so
``repro.solver`` can depend on it without cycles.
"""

from __future__ import annotations

import io
import json
import time
from typing import Iterable, List, Optional, Sequence, TextIO

from .events import (
    EV_AUDIT,
    EV_BUDGET_STOP,
    EV_CLASH,
    EV_COLLAPSE,
    EV_EDGE,
    EV_PHASE_BEGIN,
    EV_PHASE_END,
    EV_RESOLVE,
    EV_SEARCH_END,
    EV_SEARCH_START,
    EV_SEARCH_VISIT,
    EV_SWEEP,
    TraceEvent,
)

#: JSONL format version written by :class:`JsonlSink`.
JSONL_SCHEMA_VERSION = 1


class TraceSink:
    """Receiver of solver events; the base class ignores everything.

    Subclasses override only the events they care about.  An instance of
    this class *is* the null sink (:data:`NULL_SINK`): attaching it must
    leave every deterministic solver counter byte-identical to running
    untraced — the sink API observes, never steers.
    """

    # -- edges and resolution ------------------------------------------
    def edge(self, kind: str, src: object, dst: object,
             outcome: str) -> None:
        """One attempted atomic edge addition (one unit of Work)."""

    def resolve(self, left: object, right: object) -> None:
        """The resolution rules R fired on a source/sink pair."""

    def clash(self, diagnostic: object) -> None:
        """An inconsistent constraint was recorded."""

    # -- partial cycle search ------------------------------------------
    def search_start(self, start: int, target: int) -> None:
        """A partial online cycle search began."""

    def search_visit(self, node: int) -> None:
        """The search popped (visited) one node."""

    def search_end(self, found: bool, visits: int, length: int) -> None:
        """The search finished; ``length`` is the cycle length on a hit."""

    # -- elimination ----------------------------------------------------
    def collapse(self, witness: int, members: Sequence[int]) -> None:
        """A detected cycle was collapsed onto ``witness``."""

    def sweep(self, eliminated: int) -> None:
        """A periodic offline SCC sweep ran (PERIODIC policy only)."""

    # -- auditing -------------------------------------------------------
    def audit_failure(self, failure: object) -> None:
        """The invariant auditor found a violation (an
        :class:`repro.resilience.audit.AuditFailure`); emitted for every
        failure of an audit pass before the engine raises."""

    def budget_stop(self, reason: str, limit: float, value: float) -> None:
        """A solver drain stopped early: a budget dimension
        (``"work"``/``"deadline"``/``"edges"``) hit ``limit`` at
        ``value``, or the run was ``"cancelled"``.  Emitted before the
        engine raises or returns a partial solution."""

    # -- phases ---------------------------------------------------------
    def phase_begin(self, name: str) -> None:
        """A solver phase (closure / finalize / least-solution) began."""

    def phase_end(self, name: str) -> None:
        """The most recently begun phase of that name ended."""

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Flush and release resources; idempotent."""


#: The shared no-op sink (for call sites that want a non-None default).
NULL_SINK = TraceSink()


class _EmittingSink(TraceSink):
    """Every event as one ``_emit(event_name, **args)`` call.

    The per-event argument mapping lives here once, shared by
    :class:`CollectorSink` and :class:`JsonlSink`, so no event can
    reach one of them and be missed by the other.
    """

    def _emit(self, _event: str, **args: object) -> None:
        raise NotImplementedError

    def edge(self, kind, src, dst, outcome):
        self._emit(EV_EDGE, kind=kind, src=src, dst=dst, outcome=outcome)

    def resolve(self, left, right):
        self._emit(EV_RESOLVE, left=left, right=right)

    def clash(self, diagnostic):
        self._emit(
            EV_CLASH,
            kind=getattr(diagnostic, "kind", "unknown"),
            message=str(diagnostic),
        )

    def search_start(self, start, target):
        self._emit(EV_SEARCH_START, start=start, target=target)

    def search_visit(self, node):
        self._emit(EV_SEARCH_VISIT, node=node)

    def search_end(self, found, visits, length):
        self._emit(EV_SEARCH_END, found=found, visits=visits,
                   length=length)

    def collapse(self, witness, members):
        self._emit(EV_COLLAPSE, witness=witness, members=list(members))

    def sweep(self, eliminated):
        self._emit(EV_SWEEP, eliminated=eliminated)

    def audit_failure(self, failure):
        self._emit(
            EV_AUDIT,
            check=getattr(failure, "check", "unknown"),
            subject=getattr(failure, "subject", -1),
            detail=getattr(failure, "detail", str(failure)),
        )

    def budget_stop(self, reason, limit, value):
        self._emit(EV_BUDGET_STOP, reason=reason, limit=limit, value=value)

    def phase_begin(self, name):
        self._emit(EV_PHASE_BEGIN, name=name)

    def phase_end(self, name):
        self._emit(EV_PHASE_END, name=name)


class CollectorSink(_EmittingSink):
    """Record every event in memory as :class:`TraceEvent` objects.

    Timestamps are ``time.perf_counter()`` relative to construction.
    Intended for tests, the traced viz renderer, and small recordings —
    a full medium-suite run emits millions of events; use
    :class:`repro.metrics.sink.MetricsSink` for those.
    """

    def __init__(self) -> None:
        self.epoch = time.perf_counter()
        self.events: List[TraceEvent] = []

    def _emit(self, _event: str, **args: object) -> None:
        self.events.append(
            TraceEvent(_event, time.perf_counter() - self.epoch, args)
        )


def _jsonable(value: object) -> object:
    """Terms, diagnostics and set expressions serialize as their str."""
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return str(value)


class JsonlSink(_EmittingSink):
    """Stream events to a JSON-Lines file, one object per line.

    The first line is a meta record ``{"ev": "meta", "schema": 1}``;
    every following line is ``{"ev": <name>, "ts": <seconds>, ...args}``
    (see :mod:`repro.trace.events` for the per-event args).  Non-scalar
    payloads (terms, diagnostics) are stringified.  Use
    :func:`repro.trace.chrome.convert_jsonl` to turn the log into a
    Chrome/Perfetto trace.

    I/O failure policy (``on_error``): tracing must never take a solver
    run down with it.  Each record is serialized fully before a single
    ``write`` call, so a failure never leaves the sink's own partial
    fragment interleaved with later records.  On the first write/flush
    error the sink permanently disables itself (:attr:`disabled`,
    :attr:`last_error`), then either re-raises (``"raise"``, the
    default) or swallows the error and drops all further events
    (``"disable"`` — the run completes, the trace is truncated).
    """

    def __init__(self, target, on_error: str = "raise") -> None:
        """``target`` is a path or an open text file."""
        if on_error not in ("raise", "disable"):
            raise ValueError(
                f"JsonlSink.on_error must be 'raise' or 'disable', "
                f"got {on_error!r}"
            )
        self.on_error = on_error
        #: set permanently on the first I/O failure
        self.disabled = False
        #: the exception that disabled the sink, if any
        self.last_error: Optional[BaseException] = None
        if isinstance(target, (str, bytes)):
            self._file: TextIO = open(target, "w", encoding="utf-8")
            self._owns_file = True
        else:
            self._file = target
            self._owns_file = False
        self.epoch = time.perf_counter()
        self._write_line(json.dumps(
            {"ev": "meta", "schema": JSONL_SCHEMA_VERSION}
        ))

    def _write_line(self, line: str) -> None:
        """Write one complete record with a single ``write`` call."""
        if self.disabled:
            return
        try:
            self._file.write(line + "\n")
        except Exception as error:
            self.disabled = True
            self.last_error = error
            if self.on_error == "raise":
                raise

    def _emit(self, _event: str, **args: object) -> None:
        if self.disabled:
            return
        obj = {"ev": _event, "ts": time.perf_counter() - self.epoch}
        for key, value in args.items():
            obj[key] = _jsonable(value)
        self._write_line(json.dumps(obj))

    def close(self):
        if self._file is None:
            return
        file, self._file = self._file, None  # type: ignore[assignment]
        try:
            file.flush()
            if self._owns_file:
                file.close()
        except Exception as error:
            self.disabled = True
            self.last_error = error
            if self.on_error == "raise":
                raise


def read_jsonl(source) -> List[TraceEvent]:
    """Load a JSONL trace (path or open file) back into events.

    The leading meta record is validated and dropped.
    """
    if isinstance(source, (str, bytes)):
        handle: TextIO = open(source, "r", encoding="utf-8")
        owns = True
    else:
        handle = source
        owns = False
    try:
        events: List[TraceEvent] = []
        for line in handle:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            if obj.get("ev") == "meta":
                schema = obj.get("schema")
                if schema != JSONL_SCHEMA_VERSION:
                    raise ValueError(
                        f"unsupported trace schema {schema!r} "
                        f"(expected {JSONL_SCHEMA_VERSION})"
                    )
                continue
            events.append(TraceEvent.from_jsonl_obj(obj))
        return events
    finally:
        if owns:
            handle.close()


def events_to_jsonl_text(events: Iterable[TraceEvent]) -> str:
    """Serialize events to JSONL text (meta line included)."""
    buffer = io.StringIO()
    buffer.write(json.dumps(
        {"ev": "meta", "schema": JSONL_SCHEMA_VERSION}
    ) + "\n")
    for event in events:
        obj = {"ev": event.name, "ts": event.ts}
        for key, value in event.args.items():
            obj[key] = _jsonable(value)
        buffer.write(json.dumps(obj) + "\n")
    return buffer.getvalue()
