"""Sharded parallel execution of (system, configuration) tasks.

The evaluation workload — every benchmark under every Table-4
configuration, every fuzzed system under every configuration — is
embarrassingly parallel, and this package shards it across processes
without giving up the repo's determinism contract: parallel reports are
byte-identical to serial ones modulo wall-clock fields, because results
are merged in task submission order and every child runs under a
pinned ``PYTHONHASHSEED``.

Entry points: ``python -m repro.bench --jobs N`` and ``python -m
repro.resilience fuzz --jobs N``; the generic pool is
:func:`~repro.parallel.pool.run_tasks`.  See ``docs/PARALLEL.md``.
"""

from .merge import MergeError, merge_jsonl_traces, merge_metrics_snapshots
from .pool import (
    ParallelError,
    TaskResult,
    TaskSpec,
    default_jobs,
    default_start_method,
    require_ok,
    run_tasks,
)

__all__ = [
    "MergeError",
    "ParallelError",
    "TaskResult",
    "TaskSpec",
    "default_jobs",
    "default_start_method",
    "merge_jsonl_traces",
    "merge_metrics_snapshots",
    "require_ok",
    "run_tasks",
]
