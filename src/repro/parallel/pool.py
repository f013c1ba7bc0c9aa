"""A deterministic multiprocessing worker pool.

The paper's evaluation is embarrassingly parallel: every (system,
configuration) pair is an independent solve.  :func:`run_tasks` shards
such tasks across processes while keeping the properties the rest of
the repo depends on:

* **Determinism.**  Results are returned in *task submission order*,
  never completion order, so a parallel run assembles the exact same
  report a serial loop would.  Children need no pinned hash seed:
  expressions hash seed-free (:mod:`repro.constraints.hashing`), so a
  forked or spawned worker reproduces the parent's work counts under
  any hash seed.
* **Crash isolation.**  Each in-flight task runs in its own process;
  a worker dying (segfault, OOM-kill) cannot poison a shared pool.
  Crashes are retried up to ``retries`` times and then reported as a
  failed :class:`TaskResult` *with a cause* — the pool never hangs on
  a dead child.
* **Deterministic failures fail fast.**  A worker that raises a Python
  exception reports the traceback and is *not* retried: the same
  inputs would raise again, so retrying only burns CPU.

Workers communicate over a per-task ``Pipe``; the parent multiplexes
pipes and process sentinels through :func:`multiprocessing.connection.wait`,
so a result message and a silent death are both wake-up events.

This module is deliberately generic: each worker lives in the package
that owns its job (:func:`repro.bench.harness.bench_task`,
:func:`repro.resilience.fuzz.fuzz_task`), and :func:`map_tasks` is the
one place that chooses between running a task list inline and handing
it to :func:`run_tasks`.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import time
import traceback
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..errors import ReproError

#: Grace period between ``terminate()`` and ``kill()`` on timeout.
_TERMINATE_GRACE_SECONDS = 2.0

#: How long one ``connection.wait`` multiplex blocks at most.
_WAIT_SECONDS = 0.1


class ParallelError(ReproError):
    """A parallel run could not produce a complete result set."""


def default_jobs() -> int:
    """Worker count for ``--jobs 0`` (auto): one per available core."""
    return os.cpu_count() or 1


def _default_start_method() -> str:
    """``fork`` where available (fast), else ``spawn``."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


@dataclass(frozen=True)
class TaskSpec:
    """One unit of work: a key (for reporting) and a picklable payload."""

    key: str
    payload: Any = None


@dataclass
class TaskResult:
    """Outcome of one task, in submission order.

    ``kind`` is ``None`` on success, else one of ``"exception"`` (the
    worker raised — deterministic, not retried), ``"crash"`` (the
    worker process died without reporting; reported only after
    ``retries`` re-runs), or ``"timeout"`` (the whole run exceeded its
    deadline).
    """

    key: str
    value: Any = None
    error: Optional[str] = None
    kind: Optional[str] = None
    attempts: int = 1
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None


def _child_main(worker, payload, conn) -> None:
    """Child entry point: run the worker, report over the pipe.

    Any raised exception is *reported* (with its traceback) rather than
    allowed to kill the child noisily — the parent distinguishes a
    deterministic failure from a crash by whether a report arrived.
    """
    try:
        value = worker(payload)
    except BaseException:
        conn.send(("exception", traceback.format_exc()))
    else:
        conn.send(("ok", value))
    finally:
        conn.close()


class _Running:
    """Book-keeping for one in-flight task."""

    __slots__ = ("index", "attempt", "process", "conn", "started")

    def __init__(self, index, attempt, process, conn, started):
        self.index = index
        self.attempt = attempt
        self.process = process
        self.conn = conn
        self.started = started


def run_tasks(
    worker: Callable[[Any], Any],
    tasks: Sequence[TaskSpec],
    jobs: Optional[int] = None,
    retries: int = 1,
    progress: Optional[Callable[[TaskResult], None]] = None,
    overall_timeout: Optional[float] = None,
) -> List[TaskResult]:
    """Run every task through ``worker`` across ``jobs`` processes.

    Returns one :class:`TaskResult` per task **in submission order**.
    ``worker`` must be a picklable top-level callable taking the task
    payload and returning a picklable value.  ``progress`` is called
    once per *final* task outcome, in completion order.

    Failure semantics: worker exceptions fail immediately (kind
    ``"exception"``); crashes are re-run up to ``retries`` times before
    failing (kind ``"crash"``).  ``overall_timeout`` bounds the whole
    call; on
    expiry all running children are killed and every unfinished task
    fails with kind ``"timeout"``.  The call itself never raises for
    task failures — callers inspect the results.
    """
    tasks = list(tasks)
    if jobs is None or jobs <= 0:
        jobs = default_jobs()
    ctx = multiprocessing.get_context(_default_start_method())
    results: List[Optional[TaskResult]] = [None] * len(tasks)
    queue: deque = deque((index, 1) for index in range(len(tasks)))
    running: Dict[int, _Running] = {}
    overall_deadline = (
        None if overall_timeout is None
        else time.monotonic() + overall_timeout
    )

    def finish(index: int, result: TaskResult) -> None:
        results[index] = result
        if progress is not None:
            progress(result)

    def launch(index: int, attempt: int) -> None:
        spec = tasks[index]
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_child_main,
            args=(worker, spec.payload, child_conn),
            name=f"repro-parallel-{spec.key}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        running[index] = _Running(
            index, attempt, process, parent_conn, time.monotonic()
        )

    def reap(entry: _Running) -> None:
        entry.process.join(timeout=_TERMINATE_GRACE_SECONDS)
        if entry.process.is_alive():  # pragma: no cover - defensive
            entry.process.kill()
            entry.process.join()
        entry.conn.close()
        del running[entry.index]

    def settle(entry: _Running, *, error=None, kind=None,
               value=None) -> None:
        spec = tasks[entry.index]
        elapsed = time.monotonic() - entry.started
        reap(entry)
        if kind == "crash" and entry.attempt <= retries:
            queue.append((entry.index, entry.attempt + 1))
            return
        finish(entry.index, TaskResult(
            key=spec.key, value=value, error=error, kind=kind,
            attempts=entry.attempt, seconds=elapsed,
        ))

    def kill_everything(reason: str) -> None:
        for entry in list(running.values()):
            entry.process.terminate()
            settle(entry, error=reason, kind="timeout")
        while queue:
            index, attempt = queue.popleft()
            finish(index, TaskResult(
                key=tasks[index].key, error=reason, kind="timeout",
                attempts=attempt, seconds=0.0,
            ))

    while queue or running:
        if overall_deadline is not None and \
                time.monotonic() > overall_deadline:
            kill_everything(
                f"timeout: run exceeded its {overall_timeout:.0f}s "
                f"overall deadline"
            )
            break
        while queue and len(running) < jobs:
            index, attempt = queue.popleft()
            launch(index, attempt)
        if not running:
            continue
        waitables = []
        for entry in running.values():
            waitables.append(entry.conn)
            waitables.append(entry.process.sentinel)
        wait_for = _WAIT_SECONDS
        if overall_deadline is not None:
            wait_for = min(
                wait_for, max(0.0, overall_deadline - time.monotonic())
            )
        multiprocessing.connection.wait(waitables, timeout=wait_for)
        for entry in list(running.values()):
            # Liveness before the pipe: a child that sends its result
            # and exits between the two reads is then seen alive with a
            # message, not dead without one (a crash).
            alive = entry.process.is_alive()
            message = None
            if entry.conn.poll(0):
                try:
                    message = entry.conn.recv()
                except EOFError:
                    message = None
            if message is not None:
                status, body = message
                if status == "ok":
                    settle(entry, value=body)
                else:
                    settle(
                        entry,
                        error=f"worker raised:\n{body}",
                        kind="exception",
                    )
            elif not alive:
                settle(
                    entry,
                    error=(
                        f"worker crashed with exit code "
                        f"{entry.process.exitcode} "
                        f"(attempt {entry.attempt})"
                    ),
                    kind="crash",
                )
    for index, result in enumerate(results):
        assert result is not None, f"task {tasks[index].key} unaccounted"
    return results  # type: ignore[return-value]


def map_tasks(
    worker: Callable[[Any], Any],
    tasks: Sequence[TaskSpec],
    jobs: int = 1,
    progress: Optional[Callable[[TaskResult], None]] = None,
    overall_timeout: Optional[float] = None,
) -> List[TaskResult]:
    """Run every task through ``worker``: inline in this process when
    ``jobs == 1``, else through :func:`run_tasks` (``jobs <= 0`` = one
    worker per core).

    Either way the caller gets one :class:`TaskResult` per task in
    submission order and ``progress`` once per result, so a serial and
    a sharded run are assembled by the same code.  Inline, a worker
    exception propagates unchanged and nothing is killed:
    ``overall_timeout`` only bounds the pool, so a worker that must
    stop at a deadline under either executor carries it in its payload.
    """
    if jobs != 1:
        return run_tasks(worker, tasks, jobs=jobs, progress=progress,
                         overall_timeout=overall_timeout)
    results: List[TaskResult] = []
    for spec in tasks:
        started = time.monotonic()
        result = TaskResult(key=spec.key, value=worker(spec.payload),
                            seconds=time.monotonic() - started)
        if progress is not None:
            progress(result)
        results.append(result)
    return results


def require_ok(results: Sequence[TaskResult]) -> List[TaskResult]:
    """Return ``results`` if all succeeded, else raise :class:`ParallelError`
    naming every failed task and its cause."""
    failed = [result for result in results if not result.ok]
    if failed:
        details = "; ".join(
            f"{result.key} [{result.kind}, attempt {result.attempts}]: "
            f"{result.error}"
            for result in failed
        )
        raise ParallelError(
            f"{len(failed)} of {len(results)} parallel tasks failed: "
            f"{details}"
        )
    return list(results)
