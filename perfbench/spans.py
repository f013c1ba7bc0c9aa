"""In-memory span recording for the traced benchmark run.

A span is ``(name, start, end, parent, request)``: ``parent`` is the
index of the enclosing span (or ``None``) and ``request`` identifies
the workload operation (one program, one solve, one edit) the span
belongs to.  Spans are opened only by the benchmark's own files, around
each call into a layer of the program, and written out once the run
ends.

The untraced run uses :class:`NullRecorder`, whose ``span`` does
nothing, so the same workload code serves both runs.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from typing import Dict, List, Optional


class NullRecorder:
    """Recorder for the untraced run: records nothing."""

    enabled = False

    def span(self, name: str, request: Optional[str] = None):
        return contextlib.nullcontext()

    def count(self, name: str, value: int) -> None:
        pass

    def solver_run(self, run) -> None:
        pass


class SpanRecorder:
    """Keeps every span, count and solver run in memory until the run
    ends."""

    enabled = True

    def __init__(self) -> None:
        #: [name, start, end, parent index, request id]
        self.spans: List[list] = []
        self._open: List[int] = []
        #: counts taken at layer boundaries (AST nodes, constraints, ...)
        self.counts: Dict[str, int] = defaultdict(int)
        #: statistics of every solver run, for the per-layer ratios
        self.solver_runs: list = []

    def count(self, name: str, value: int) -> None:
        self.counts[name] += value

    def solver_run(self, run) -> None:
        self.solver_runs.append(run)

    @contextlib.contextmanager
    def span(self, name: str, request: Optional[str] = None):
        parent = self._open[-1] if self._open else None
        if request is None and parent is not None:
            request = self.spans[parent][4]
        record = [name, time.perf_counter(), 0.0, parent, request]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> List[float]:
        """Wall durations (s) of every span called ``name``."""
        return [end - start for n, start, end, _, _ in self.spans
                if n == name]

    def self_times(self) -> Dict[str, float]:
        """Total self time (s) per span name.

        A span's self time is its duration minus the durations of its
        direct children (children never overlap: one thread).
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += (end - start) - child_time[index]
        return dict(totals)

    def write(self, path: str) -> None:
        """Write the spans as a Chrome trace (``chrome://tracing``)."""
        if not self.spans:
            return
        origin = self.spans[0][1]
        events = [
            {
                "name": name,
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "args": {"span": index, "parent": parent,
                         "request": request},
            }
            for index, (name, start, end, parent, request)
            in enumerate(self.spans)
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events}, handle)
