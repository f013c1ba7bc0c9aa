"""Differential fuzzing of the solver configurations.

Every Table-4 configuration — both graph forms, with and without cycle
elimination, plus the two-phase oracle — must compute the *same* least
solution and the same consistency verdict for any constraint system;
they differ only in how much work they spend (that is the point of the
paper).  The naive reference solver (:func:`repro.solver.solve_reference`)
computes the same answers by brute-force saturation.  This module
exploits that redundancy: generate seeded random systems
(:func:`repro.workloads.generator.random_system`), solve each under all
six configurations plus the reference, replay it one constraint at a
time into an :class:`~repro.solver.IncrementalSolver` under SF-Online
and IF-Online, and cross-check

* **least solutions** — every variable's solution under every
  configuration equals the reference's;
* **consistency verdicts** — a configuration reports diagnostics iff
  the reference does;
* **collapse equivalence** — variables a configuration collapsed into
  one component must have equal reference least solutions (collapsing
  is only sound for variables on a common cycle).

Any disagreement is shrunk (ddmin over the constraint list, then greedy
single removals to 1-minimality) and saved as a JSON reproducer under
``tests/fuzz_corpus/`` so the failure outlives the fuzzing process and
becomes a regression test input.

Entry points: :func:`run_fuzz` (library), ``python -m repro.resilience
fuzz`` (CLI, used by the CI ``fuzz-smoke`` job).
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..constraints.constructors import ONE_CONSTRUCTOR, ZERO_CONSTRUCTOR
from ..constraints.expressions import ONE, SetExpression, Var, ZERO
from ..constraints.system import ConstraintSystem
from ..constraints.variance import Variance
from ..experiments.config import EXPERIMENT_LABELS, options_for
from ..parallel.pool import TaskSpec, default_jobs, map_tasks, require_ok
from ..solver import (
    IncrementalSolver,
    SolverOptions,
    solve,
    solve_reference,
)
from ..workloads.generator import RandomSystemConfig, random_system
from .errors import ResilienceError

#: Reproducer file format version.
CORPUS_FORMAT = 1

#: Default directory disagreement reproducers are saved under.
DEFAULT_CORPUS_DIR = os.path.join("tests", "fuzz_corpus")


@dataclass
class FuzzDisagreement:
    """One cross-config disagreement, shrunk and saved."""

    #: seed of the generated system that disagreed
    seed: int
    #: experiment label that disagreed with the reference
    label: str
    #: "verdict" | "least-solution" | "collapse"
    kind: str
    #: human-readable description of the mismatch
    detail: str
    #: constraint count of the (shrunk) reproducer
    constraints: int
    #: where the reproducer was written (None if saving was disabled)
    path: Optional[str] = None

    def __str__(self) -> str:
        where = f" -> {self.path}" if self.path else ""
        return (
            f"seed {self.seed}: {self.label} {self.kind}: {self.detail} "
            f"({self.constraints} constraints){where}"
        )


#: Configurations the fuzzer also replays one constraint at a time into
#: an :class:`~repro.solver.IncrementalSolver` (the oracle cannot run
#: incrementally); reported as ``"<label>/incremental"``.
INCREMENTAL_LABELS = ("SF-Online", "IF-Online")


def check_system(
    system: ConstraintSystem,
    labels: Optional[Sequence[str]] = None,
    seed: int = 0,
) -> Optional[Tuple[str, str, str]]:
    """Solve under every configuration and cross-check against reference.

    Returns ``None`` on agreement, else ``(label, kind, detail)`` for
    the first disagreement found.  ``seed`` is the variable-order seed
    passed to each configuration (the *system* is fixed; the order seed
    only changes how much work each run does, never its answers).
    Batch solves are checked first, then the incremental replays of
    the :data:`INCREMENTAL_LABELS` among ``labels``.
    """
    reference = solve_reference(system)
    labels = labels or EXPERIMENT_LABELS
    for label in labels:
        solution = solve(system, options_for(label, seed=seed))
        found = _compare(label, solution, solution.ok, system, reference)
        if found is not None:
            return found
    for label in labels:
        if label in INCREMENTAL_LABELS:
            solver = solve_incremental(
                system, options_for(label, seed=seed)
            )
            found = _compare(
                f"{label}/incremental", solver, not solver.diagnostics,
                system, reference,
            )
            if found is not None:
                return found
    return None


def _compare(
    label: str,
    solved,
    ok: bool,
    system: ConstraintSystem,
    reference,
) -> Optional[Tuple[str, str, str]]:
    """Cross-check one solved configuration against the reference.

    ``solved`` is a :class:`~repro.solver.Solution` or an
    :class:`~repro.solver.IncrementalSolver` replayed from ``system``
    (same variable indices); both answer ``least_solution(var)`` and
    ``representative(var)``.
    """
    reference_ok = not reference.diagnostics
    if ok != reference_ok:
        return (
            label,
            "verdict",
            f"{'consistent' if ok else 'inconsistent'} but "
            f"reference says "
            f"{'consistent' if reference_ok else 'inconsistent'}",
        )
    # Queries take the solver's own variables (an incremental replay
    # has its own system); the reference answers for `system`'s.
    own = solved.system.variables
    for var in system.variables:
        got = solved.least_solution(own[var.index])
        want = reference.least_solution(var)
        if got != want:
            missing = sorted(map(str, want - got))
            extra = sorted(map(str, got - want))
            return (
                label,
                "least-solution",
                f"LS({var}) missing={missing} extra={extra}",
            )
    components: Dict[int, List[Var]] = {}
    for var in system.variables:
        components.setdefault(
            solved.representative(own[var.index]), []
        ).append(var)
    for members in components.values():
        base = reference.least_solution(members[0])
        for other in members[1:]:
            if reference.least_solution(other) != base:
                return (
                    label,
                    "collapse",
                    f"{members[0]} and {other} collapsed together but "
                    f"have different reference least solutions",
                )
    return None


#: The incremental replay queries one variable after every this many
#: additions, so least-solution memos are filled mid-stream and every
#: later ``add`` has to invalidate them.
INCREMENTAL_QUERY_STRIDE = 3


def solve_incremental(
    system: ConstraintSystem, options: SolverOptions
) -> IncrementalSolver:
    """Replay ``system`` into an :class:`IncrementalSolver`, one
    constraint per ``add``.

    Variables are created in the system's order, so the solver's
    variable indices equal the system's.  After every
    :data:`INCREMENTAL_QUERY_STRIDE`-th ``add`` the least solution of a
    variable drawn from ``options.seed`` is queried.
    """
    solver = IncrementalSolver(options)
    rebuild = _rebuilder(system, solver)
    variables = solver.system.variables
    rng = random.Random(options.seed)
    for count, (left, right) in enumerate(system.constraints, 1):
        solver.add(rebuild(left), rebuild(right))
        if variables and count % INCREMENTAL_QUERY_STRIDE == 0:
            solver.least_solution(rng.choice(variables))
    return solver


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------
def subsystem(
    system: ConstraintSystem,
    indices: Sequence[int],
    name: Optional[str] = None,
) -> ConstraintSystem:
    """Copy ``system`` keeping only the constraints at ``indices``.

    All variables and constructors are kept (so variable indices — and
    with them the seeded variable order — are stable under shrinking);
    expressions are rebuilt against the copy because ``Var`` objects are
    owned by their system of origin.
    """
    copy = ConstraintSystem(name or f"{system.name}-shrunk")
    rebuild = _rebuilder(system, copy)
    constraints = system.constraints
    for index in indices:
        left, right = constraints[index]
        copy.add(rebuild(left), rebuild(right))
    return copy


def _rebuilder(
    system: ConstraintSystem, builder
) -> Callable[[SetExpression], SetExpression]:
    """Register ``system``'s constructors and variables on ``builder``
    (a :class:`ConstraintSystem` or :class:`IncrementalSolver`) and
    return a function rebuilding ``system``'s expressions against it."""
    for ctor in system._constructors.values():
        if ctor is not ZERO_CONSTRUCTOR and ctor is not ONE_CONSTRUCTOR:
            builder.constructor(ctor.name, ctor.signature)
    fresh = [builder.fresh_var(var.name) for var in system.variables]

    def rebuild(expr: SetExpression) -> SetExpression:
        if isinstance(expr, Var):
            return fresh[expr.index]
        if expr is ZERO or expr is ONE:
            return expr
        return builder.term(
            expr.constructor.name,
            tuple(rebuild(arg) for arg in expr.args),
            expr.label,
        )

    return rebuild


def shrink_constraints(
    system: ConstraintSystem,
    failing: Callable[[ConstraintSystem], bool],
) -> ConstraintSystem:
    """Shrink ``system`` to a 1-minimal subset still satisfying ``failing``.

    ddmin-style chunk removal (halving chunk sizes) followed by the
    implicit chunk-size-1 pass, which guarantees no single constraint
    can be removed from the result.
    """
    keep = list(range(len(system.constraints)))
    chunk = max(1, len(keep) // 2)
    while True:
        index = 0
        while index < len(keep):
            trial = keep[:index] + keep[index + chunk:]
            if trial and failing(subsystem(system, trial)):
                keep = trial
            else:
                index += chunk
        if chunk == 1:
            break
        chunk = max(1, chunk // 2)
    return subsystem(system, keep)


# ----------------------------------------------------------------------
# JSON reproducers
# ----------------------------------------------------------------------
def _expr_to_json(expr: SetExpression) -> object:
    if isinstance(expr, Var):
        return {"var": expr.index}
    if expr is ZERO:
        return {"zero": True}
    if expr is ONE:
        return {"one": True}
    label = expr.label
    if label is not None and not isinstance(label, str):
        label = str(label)
    return {
        "term": expr.constructor.name,
        "args": [_expr_to_json(arg) for arg in expr.args],
        "label": label,
    }


def system_to_json(system: ConstraintSystem) -> dict:
    """Serialize a system to the corpus JSON shape."""
    constructors = [
        {"name": ctor.name,
         "signature": [variance.value for variance in ctor.signature]}
        for ctor in system._constructors.values()
        if ctor is not ZERO_CONSTRUCTOR and ctor is not ONE_CONSTRUCTOR
    ]
    return {
        "name": system.name,
        "variables": [var.name for var in system.variables],
        "constructors": constructors,
        "constraints": [
            [_expr_to_json(left), _expr_to_json(right)]
            for left, right in system.constraints
        ],
    }


def system_from_json(payload: dict) -> ConstraintSystem:
    """Rebuild a system from :func:`system_to_json` output."""
    system = ConstraintSystem(payload.get("name", "corpus"))
    for entry in payload["constructors"]:
        system.constructor(
            entry["name"],
            tuple(Variance(mark) for mark in entry["signature"]),
        )
    variables = [system.fresh_var(name) for name in payload["variables"]]

    def build(node: object) -> SetExpression:
        if not isinstance(node, dict):
            raise ResilienceError(f"bad corpus expression {node!r}")
        if "var" in node:
            return variables[node["var"]]
        if node.get("zero"):
            return ZERO
        if node.get("one"):
            return ONE
        return system.term(
            node["term"],
            tuple(build(arg) for arg in node["args"]),
            node.get("label"),
        )

    for left, right in payload["constraints"]:
        system.add(build(left), build(right))
    return system


def save_reproducer(
    directory: str, disagreement: FuzzDisagreement,
    system: ConstraintSystem,
) -> str:
    """Write one shrunk reproducer; returns the file path."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(
        directory, f"disagreement-seed{disagreement.seed}.json"
    )
    document = {
        "format": CORPUS_FORMAT,
        "seed": disagreement.seed,
        "label": disagreement.label,
        "kind": disagreement.kind,
        "detail": disagreement.detail,
        "system": system_to_json(system),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_reproducer(path: str) -> Tuple[ConstraintSystem, dict]:
    """Load a corpus file; returns ``(system, metadata)``."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    version = document.get("format")
    if version != CORPUS_FORMAT:
        raise ResilienceError(
            f"unsupported corpus format {version!r} in {path} "
            f"(this build reads {CORPUS_FORMAT})"
        )
    return system_from_json(document["system"]), document


# ----------------------------------------------------------------------
# The fuzzing loop
# ----------------------------------------------------------------------
#: System-shape profiles the fuzzer rotates through.  The "flow"
#: profile has no sinks, so its systems are always consistent and the
#: differential signal is purely least-solution propagation and cycle
#: collapsing; "mixed" and "clash" add sinks, structural constraints,
#: and 0/1 extremes, so resolution and diagnostics are exercised too.
PROFILES: Dict[str, dict] = {
    "flow": dict(sinks=0, structural=0, extremes=0.0, feedback=0.4),
    "mixed": dict(),
    "clash": dict(structural=10, extremes=0.15),
}


def _config_for(index: int, seed: int,
                rng: random.Random) -> RandomSystemConfig:
    shape = dict(
        seed=seed,
        variables=rng.randrange(6, 40),
        atoms=rng.randrange(2, 8),
        var_var=rng.randrange(8, 60),
        sources=rng.randrange(4, 20),
        sinks=rng.randrange(4, 16),
        max_depth=rng.randrange(1, 4),
    )
    shape.update(list(PROFILES.values())[index % len(PROFILES)])
    return RandomSystemConfig(**shape)


def _count_disagreement(label: str, kind: str) -> None:
    """Bump the process-wide fuzz-disagreement counter.

    Every confirmed differential failure is a defensibly rare event
    worth surfacing on a dashboard, so it lands in the default
    :mod:`repro.metrics` registry regardless of whether this process
    wired up an explicit one.  No-op overhead when metrics are
    disabled: only reached on an actual disagreement.
    """
    from ..metrics import default_registry

    default_registry().counter(
        "repro_fuzz_disagreements_total",
        "Differential-fuzz disagreements found, by divergent "
        "experiment label and failure kind.",
        ("label", "kind"),
    ).labels(label, kind).inc()


def run_fuzz(
    count: int = 200,
    seed: int = 0,
    labels: Optional[Sequence[str]] = None,
    corpus_dir: Optional[str] = DEFAULT_CORPUS_DIR,
    shrink: bool = True,
    progress: Optional[Callable[[str], None]] = None,
    jobs: int = 1,
) -> List[FuzzDisagreement]:
    """Fuzz ``count`` seeded systems; returns all disagreements found.

    Deterministic in ``seed``: system ``i`` is generated from
    ``seed * 1_000_003 + i`` with a shape drawn from a ``seed``-keyed
    stream, so any reported disagreement reproduces from its seed alone.
    Disagreements are shrunk (unless ``shrink=False``) and saved under
    ``corpus_dir`` (unless ``None``).

    The index range is split into contiguous shards, each checked by
    one :func:`fuzz_task` call: inline when ``jobs == 1``, else across
    a :mod:`repro.parallel` worker pool (``jobs <= 0`` = one worker per
    core).  This process then takes the disagreements in index order,
    writes every reproducer and bumps the metrics counter, so the
    returned list, the corpus directory and the default registry do
    not depend on the executor.
    """
    # A few shards per worker keeps the pool busy when one shard hits
    # an expensive shrink, and gives a serial run progress lines.
    shards = 4 * (default_jobs() if jobs <= 0 else jobs)
    tasks = [
        TaskSpec(
            key=f"fuzz[{start}:{stop}]",
            payload={
                "seed": seed,
                "labels": list(labels) if labels else None,
                "start": start,
                "stop": stop,
                "shrink": shrink,
            },
        )
        for start, stop in shard_ranges(count, shards)
    ]
    checked = 0

    def report_progress(result) -> None:
        nonlocal checked
        if result.ok:
            checked += result.value["checked"]
            progress(f"{checked}/{count} systems checked")

    results = require_ok(map_tasks(
        fuzz_task, tasks, jobs=jobs,
        progress=None if progress is None else report_progress,
    ))
    disagreements: List[FuzzDisagreement] = []
    for result in results:
        for entry in result.value["disagreements"]:
            _count_disagreement(entry["label"], entry["kind"])
            disagreement = FuzzDisagreement(
                seed=entry["seed"],
                label=entry["label"],
                kind=entry["kind"],
                detail=entry["detail"],
                constraints=entry["constraints"],
            )
            if corpus_dir is not None:
                disagreement.path = save_reproducer(
                    corpus_dir, disagreement,
                    system_from_json(entry["system"]),
                )
            disagreements.append(disagreement)
            if progress is not None:
                progress(f"DISAGREEMENT {disagreement}")
    return disagreements


def fuzz_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Differentially check one contiguous index shard; the one
    per-shard worker.

    Payload keys: ``seed`` (the *whole run's* seed — the shape stream
    is keyed by it and consumed in index order, so every shard
    re-derives the stream from index 0 and only *checks* the indices
    in ``[start, stop)``), ``start``, ``stop``, ``labels``, ``shrink``.

    Returns ``{"checked": n, "disagreements": [...]}`` in index order,
    each disagreement carrying its (shrunk) reproducer as corpus JSON;
    :func:`run_fuzz` owns corpus writing and metrics counting so files
    and counters are produced exactly once.
    """
    seed = payload["seed"]
    labels = payload["labels"]
    start, stop = payload["start"], payload["stop"]
    rng = random.Random(seed)
    found: List[Dict[str, Any]] = []
    for index in range(stop):
        system_seed = seed * 1_000_003 + index
        config = _config_for(index, system_seed, rng)
        if index < start:
            continue
        system = random_system(config)
        disagreement = check_system(system, labels=labels)
        if disagreement is None:
            continue
        reproducer = system
        if payload["shrink"]:
            reproducer = shrink_constraints(
                system,
                lambda sub: check_system(sub, labels=labels) is not None,
            )
            disagreement = (
                check_system(reproducer, labels=labels) or disagreement
            )
        label, kind, detail = disagreement
        found.append({
            "seed": system_seed,
            "label": label,
            "kind": kind,
            "detail": detail,
            "constraints": len(reproducer),
            "system": system_to_json(reproducer),
        })
    return {"checked": stop - start, "disagreements": found}


def shard_ranges(count: int, shards: int) -> List[Tuple[int, int]]:
    """Split ``range(count)`` into at most ``shards`` contiguous
    ``(start, stop)`` ranges of near-equal size (never empty)."""
    shards = max(1, min(shards, count)) if count else 0
    ranges: List[Tuple[int, int]] = []
    base, extra = divmod(count, shards) if shards else (0, 0)
    start = 0
    for shard in range(shards):
        size = base + (1 if shard < extra else 0)
        ranges.append((start, start + size))
        start += size
    return ranges
