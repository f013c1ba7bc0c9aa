"""Top-level worker functions for :func:`repro.parallel.pool.run_tasks`.

Workers must be importable module-level callables (the ``spawn`` start
method pickles them by reference) and must rebuild their inputs from
small picklable payloads: a worker re-derives its benchmark from the
suite registry (:func:`repro.workloads.benchmark`) and its fuzz systems
from the seed stream, rather than receiving megabytes of constraint
system over the pipe.  Everything a worker returns is a plain
dict/list/tuple structure the parent merges deterministically.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List

from ..experiments.config import options_for
from ..resilience.budget import SolveBudget
from ..resilience.errors import BudgetExceededError


def bench_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Measure one (benchmark, experiment) pair; the bench worker.

    Payload keys: ``benchmark`` (a :data:`repro.workloads.FULL_SUITE`
    name), ``experiment`` (Table-4 label), ``seed``, ``repeats``,
    ``suite`` (label metadata only), ``trace`` / ``metrics`` (bools —
    attach one :class:`~repro.metrics.sink.MetricsSink` on a
    per-task registry and return its trace summary and spans / its
    registry snapshot), ``budget_seconds`` (optional per-solve
    :class:`~repro.resilience.budget.SolveBudget` deadline).

    Returns ``{"status": "ok", "counters", "telemetry", "metrics"}`` —
    the exact ingredients of one serial
    :class:`~repro.bench.harness.BenchRecord` — or ``{"status":
    "timeout", "detail"}`` when the budget expires mid-solve.
    """
    from ..bench.measure import measure_system
    from ..workloads import benchmark

    bench = benchmark(payload["benchmark"])
    system = bench.program.system
    label = payload["experiment"]
    options = options_for(label, seed=payload["seed"])
    budget_seconds = payload.get("budget_seconds")
    if budget_seconds is not None:
        options = options.replace(
            budget=SolveBudget(deadline_seconds=budget_seconds)
        )
    registry = sink = None
    if payload.get("trace") or payload.get("metrics"):
        from ..metrics.registry import MetricsRegistry
        from ..metrics.sink import MetricsSink

        registry = MetricsRegistry()
        sink = MetricsSink.for_options(
            options,
            registry=registry,
            suite=payload.get("suite", ""),
            benchmark=bench.name,
            label=f"{bench.name}/{label}",
        )
        options = options.replace(sink=sink)
    try:
        measured = measure_system(
            system, options, repeats=payload["repeats"]
        )
    except BudgetExceededError as error:
        return {"status": "timeout", "detail": str(error)}
    result: Dict[str, Any] = {
        "status": "ok",
        "counters": measured.counters,
        "telemetry": None,
        "metrics": None,
    }
    if payload.get("trace"):
        result["telemetry"] = {
            "summary": sink.summary(),
            "spans": [tuple(span) for span in sink.spans],
        }
    if payload.get("metrics"):
        result["metrics"] = registry.snapshot()
    return result


def fuzz_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Differentially check one contiguous index shard; the fuzz worker.

    Payload keys: ``count`` / ``seed`` (the *whole run's* parameters —
    the shape stream is keyed by ``seed`` and consumed in index order,
    so every worker re-derives the full stream and only *checks* the
    indices in ``[start, stop)``), ``labels``, ``shrink``.

    Returns ``{"checked": n, "disagreements": [...]}`` where each
    disagreement carries its (shrunk) reproducer as corpus JSON; the
    parent owns corpus writing and metrics counting so files and
    counters are produced exactly once, in index order.
    """
    from ..workloads.generator import random_system
    from ..resilience.fuzz import (
        _config_for,
        check_system,
        shrink_constraints,
        system_to_json,
    )

    count = payload["count"]
    seed = payload["seed"]
    labels = payload.get("labels")
    start, stop = payload["start"], payload["stop"]
    rng = random.Random(seed)
    checked = 0
    found: List[Dict[str, Any]] = []
    for index in range(count):
        system_seed = seed * 1_000_003 + index
        config = _config_for(index, system_seed, rng)
        if not (start <= index < stop):
            continue
        checked += 1
        system = random_system(config)
        disagreement = check_system(system, labels=labels)
        if disagreement is None:
            continue
        reproducer = system
        if payload.get("shrink", True):
            reproducer = shrink_constraints(
                system,
                lambda sub: check_system(sub, labels=labels) is not None,
            )
            disagreement = (
                check_system(reproducer, labels=labels) or disagreement
            )
        label, kind, detail = disagreement
        found.append({
            "index": index,
            "seed": system_seed,
            "label": label,
            "kind": kind,
            "detail": detail,
            "constraints": len(reproducer),
            "system": system_to_json(reproducer),
        })
    return {"checked": checked, "disagreements": found}


def shard_ranges(count: int, shards: int) -> List[tuple]:
    """Split ``range(count)`` into at most ``shards`` contiguous
    ``(start, stop)`` ranges of near-equal size (never empty)."""
    shards = max(1, min(shards, count)) if count else 0
    ranges: List[tuple] = []
    base, extra = divmod(count, shards) if shards else (0, 0)
    start = 0
    for shard in range(shards):
        size = base + (1 if shard < extra else 0)
        ranges.append((start, start + size))
        start += size
    return ranges
