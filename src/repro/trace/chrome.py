"""Chrome / Perfetto trace-format export.

The Trace Event Format (the JSON understood by ``chrome://tracing`` and
https://ui.perfetto.dev) represents a profile as a list of events with
microsecond timestamps: ``B``/``E`` pairs open and close duration
spans, ``i`` marks instants.  We map solver events onto it:

* ``phase.begin``/``phase.end`` and ``search.start``/``search.end``
  become duration spans (phases named by the phase, searches named
  ``cycle-search``);
* everything else becomes an instant event.

Every exported event embeds the original event name and args under
``args`` so the conversion is lossless: :func:`events_from_chrome`
reconstructs the exact event list, which the round-trip tests rely on.

High-frequency instants (``edge``/``resolve``/``search.visit``) can be
downsampled with ``max_instants``; when events are dropped the export
says so in ``otherData`` instead of silently thinning the view.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .events import (
    EV_PHASE_BEGIN,
    EV_PHASE_END,
    EV_SEARCH_END,
    EV_SEARCH_START,
    TraceEvent,
)
from .sinks import _jsonable, read_jsonl

#: Events eligible for downsampling (unbounded per-operation instants).
HIGH_FREQUENCY = ("edge", "resolve", "search.visit")


def _us(seconds: float) -> float:
    return seconds * 1_000_000.0


def events_to_chrome(
    events: Iterable[TraceEvent],
    pid: int = 1,
    tid: int = 1,
    process_name: str = "repro-solver",
    thread_name: str = "run",
    max_instants: Optional[int] = None,
) -> dict:
    """Convert recorded events into a Chrome trace document (a dict)."""
    trace_events: List[dict] = [
        {"name": "process_name", "ph": "M", "pid": pid, "tid": tid,
         "args": {"name": process_name}},
        {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
         "args": {"name": thread_name}},
    ]
    instants = 0
    dropped: Dict[str, int] = {}
    for event in events:
        args = {key: _jsonable(value) for key, value in event.args.items()}
        args["ev"] = event.name
        common = {"pid": pid, "tid": tid, "ts": _us(event.ts),
                  "cat": "solver", "args": args}
        if event.name == EV_PHASE_BEGIN:
            trace_events.append(
                {"name": str(event.args.get("name", "phase")),
                 "ph": "B", **common}
            )
        elif event.name == EV_PHASE_END:
            trace_events.append(
                {"name": str(event.args.get("name", "phase")),
                 "ph": "E", **common}
            )
        elif event.name == EV_SEARCH_START:
            trace_events.append({"name": "cycle-search", "ph": "B",
                                 **common})
        elif event.name == EV_SEARCH_END:
            trace_events.append({"name": "cycle-search", "ph": "E",
                                 **common})
        else:
            if (max_instants is not None
                    and event.name in HIGH_FREQUENCY):
                if instants >= max_instants:
                    dropped[event.name] = dropped.get(event.name, 0) + 1
                    continue
                instants += 1
            trace_events.append(
                {"name": event.name, "ph": "i", "s": "t", **common}
            )
    other: Dict[str, object] = {"source": "repro.trace"}
    if dropped:
        other["dropped_instants"] = dropped
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def events_from_chrome(document: dict) -> List[TraceEvent]:
    """Invert :func:`events_to_chrome` (metadata events are skipped)."""
    events: List[TraceEvent] = []
    for entry in document.get("traceEvents", ()):
        if entry.get("ph") == "M":
            continue
        args = dict(entry.get("args", {}))
        name = args.pop("ev", entry.get("name"))
        events.append(
            TraceEvent(
                name=str(name),
                ts=float(entry["ts"]) / 1_000_000.0,
                args=args,
            )
        )
    return events


def spans_to_chrome(
    spans: Sequence[Tuple[str, float, float]],
    pid: int = 1,
    tid: int = 1,
    process_name: str = "repro-solver",
    thread_name: str = "run",
    time_origin: Optional[float] = None,
    args: Optional[dict] = None,
) -> List[dict]:
    """Render ``(name, begin, end)`` wall-time spans as ``X`` events.

    ``begin``/``end`` share one monotonic timebase (``perf_counter``);
    ``time_origin`` rebases them so multiple runs align on one timeline.
    Returns a plain event list so callers can concatenate several runs
    into one document (see :func:`chrome_document`).
    """
    if time_origin is None:
        time_origin = min((span[1] for span in spans), default=0.0)
    events: List[dict] = [
        {"name": "process_name", "ph": "M", "pid": pid, "tid": tid,
         "args": {"name": process_name}},
        {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
         "args": {"name": thread_name}},
    ]
    for name, began, ended in spans:
        events.append({
            "name": name,
            "ph": "X",
            "pid": pid,
            "tid": tid,
            "cat": "solver",
            "ts": _us(began - time_origin),
            "dur": _us(ended - began),
            "args": dict(args or {}),
        })
    return events


def runs_to_chrome(
    runs: Sequence[Tuple[str, str, Sequence[Tuple[str, float, float]]]],
    process_name: str,
    other_data: Optional[dict] = None,
) -> dict:
    """A span timeline with one track per ``(benchmark, experiment,
    spans)`` run.

    Every run is rebased on one shared origin (the earliest span
    begin), so runs recorded one after another — or concurrently in
    worker processes, whose ``perf_counter`` is the same monotonic
    clock — line up on one timeline.
    """
    origin = min(
        (span[1] for _, _, spans in runs for span in spans), default=0.0
    )
    events: List[dict] = []
    for tid, (benchmark, experiment, spans) in enumerate(runs, start=1):
        events.extend(spans_to_chrome(
            spans,
            pid=1,
            tid=tid,
            process_name=process_name,
            thread_name=f"{benchmark} {experiment}",
            time_origin=origin,
            args={"benchmark": benchmark, "experiment": experiment},
        ))
    return chrome_document(events, other_data)


def chrome_document(trace_events: List[dict],
                    other_data: Optional[dict] = None) -> dict:
    """Wrap a raw event list in the Chrome trace JSON envelope."""
    other: Dict[str, object] = {"source": "repro.trace"}
    if other_data:
        other.update(other_data)
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def write_chrome(document: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
        handle.write("\n")


def convert_jsonl(
    jsonl_path: str,
    out_path: str,
    max_instants: Optional[int] = None,
) -> dict:
    """Convert a saved JSONL event log to a Chrome trace file.

    Returns the written document (handy for tests and callers that want
    the event count).
    """
    events = read_jsonl(jsonl_path)
    document = events_to_chrome(events, max_instants=max_instants)
    write_chrome(document, out_path)
    return document
