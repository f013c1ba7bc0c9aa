"""Sharded parallel execution of (system, configuration) tasks.

The evaluation workload — every benchmark under every Table-4
configuration, every fuzzed system under every configuration — is
embarrassingly parallel, and this package shards it across processes
without giving up the repo's determinism contract: parallel reports are
byte-identical to serial ones modulo wall-clock fields, because a serial
run calls the very same worker inline, results are assembled in task
submission order, and expressions hash seed-free, so a child under any
hash seed reproduces the parent's counters.

Entry points: ``python -m repro.bench --jobs N`` and ``python -m
repro.resilience fuzz --jobs N``.  The workers live with their jobs
(:func:`repro.bench.harness.bench_task`,
:func:`repro.resilience.fuzz.fuzz_task`);
:func:`~repro.parallel.pool.map_tasks` runs a task list inline or
through the pool, :func:`~repro.parallel.pool.run_tasks`.  See
``docs/PARALLEL.md``.
"""

from .pool import (
    ParallelError,
    TaskResult,
    TaskSpec,
    default_jobs,
    map_tasks,
    require_ok,
    run_tasks,
)

__all__ = [
    "ParallelError",
    "TaskResult",
    "TaskSpec",
    "default_jobs",
    "map_tasks",
    "require_ok",
    "run_tasks",
]
