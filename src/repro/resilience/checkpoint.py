"""Versioned checkpoint / resume for solver engines.

An interrupted run (budget exhaustion, cancellation, process death after
a periodic save) no longer loses all work: :func:`capture` snapshots a
:class:`~repro.solver.SolverEngine` between worklist operations, and
:func:`restore` rebuilds an engine from the snapshot against the same
system and options so :meth:`~repro.solver.SolverEngine.resume` can
finish the closure.

What a checkpoint holds (format :data:`CHECKPOINT_VERSION`):

* the pending worklist, in deque order, fan-out entries included, as
  the engine holds it;
* the graph's insertion log, less the records of variables that are no
  longer representatives (their buckets were emptied by a collapse);
* the graph's ``parent`` (forwarding pointer) list;
* the full :class:`~repro.graph.stats.SolverStats` counter snapshot,
  periodic-sweep position, diagnostics, and the engine's
  :class:`~repro.resilience.budget.SolveStatus`;
* verification metadata — options label, order name,
  variable/constraint/constructor counts — and the graph's ``ranks``
  list.  :func:`restore` refuses (with
  :class:`~repro.resilience.errors.CheckpointError`) to resume against
  a different system, configuration or variable order.

Determinism: a resumed run must reproduce the *exact* final counters of
an uninterrupted run (the regression tests enforce this against the
committed benchmark baseline).  Counters depend on set iteration order,
and a set's iteration order is a function of its *insertion sequence*
(rebuilding from iteration order is not a fixpoint under hash
collisions), so checkpointable engines log every bucket insertion
(:meth:`~repro.graph.base.ConstraintGraphBase.enable_journal`, enabled
by ``SolverOptions(checkpointable=True)`` or implied by a budget /
cancellation token) and :func:`restore` replays the log into fresh
sets — byte-for-byte the same layout the interrupted run had.
:func:`capture` refuses engines that ran without the log.
Replaying the log reproduces a layout only under the same hash
function, and expression hashes are seed-free
(:mod:`repro.constraints.hashing`), so a checkpoint resumes in any
process under any hash seed.
Trace sinks are not checkpointed — the restored engine attaches
whatever sinks the supplied options carry.

Serialization uses :mod:`pickle` (expressions carry client-chosen label
objects, which JSON cannot represent in general); treat checkpoint
bytes like any pickle — do not load them from untrusted sources.

Expression identity: the solver relies on object identity in places —
``is_zero``/``is_one`` compare constructors with ``is`` against the
module singletons, and labels may be identity-hashed client objects —
so expression nodes must never be restored as pickled *copies*.  The
checkpoint therefore interns every expression node and constructor
reachable from the constraint system (plus the 0/1 singletons) and
serializes them as *references* (pickle persistent IDs) into that
deterministic enumeration; :func:`restore` re-enumerates the target
system and resolves each reference to the target's own object.  Within
one process that returns the identical objects; across processes it
requires the system to have been rebuilt by the same deterministic
construction (which is how every workload in this repo is built).
"""

from __future__ import annotations

import io
import pickle
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from ..constraints.expressions import ONE, Term, ZERO
from ..graph.base import EMPTY_BUCKET, live_records
from ..graph.stats import SolverStats
from .budget import SolveStatus
from .errors import CheckpointError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..constraints.system import ConstraintSystem
    from ..solver.engine import SolverEngine
    from ..solver.options import SolverOptions

#: Format version; bump on any breaking change to the payload shape.
CHECKPOINT_VERSION = 5

#: Leading magic in the byte encoding, so stray pickles are rejected.
_MAGIC = b"repro-ckpt\x00"


def _intern_table(
    system: "ConstraintSystem",
    num_constructors: Optional[int] = None,
    num_vars: Optional[int] = None,
    num_constraints: Optional[int] = None,
) -> List[object]:
    """Deterministically enumerate the system's shareable objects.

    Covers the 0/1 singletons, every registered constructor, every
    variable, and every expression node reachable from the constraints
    (pre-order, constraints in insertion order).  Everything the solver
    stores in graphs, worklists, or diagnostics is built from these
    nodes — the engine destructures expressions but never builds new
    ones — so interning this table suffices to preserve identity.

    The truncation limits matter at restore time: persistent IDs are
    *indices* into this enumeration, so a system that grew after the
    capture (``fresh_var`` between batches) would shift every
    expression-node index unless the table is rebuilt over exactly the
    capture-time prefix of constructors, variables, and constraints.
    """
    objects: List[object] = [ZERO, ONE, ZERO.constructor, ONE.constructor]
    seen = {id(obj) for obj in objects}
    constructors = list(system._constructors.values())
    if num_constructors is not None:
        constructors = constructors[:num_constructors]
    for ctor in constructors:
        if id(ctor) not in seen:
            seen.add(id(ctor))
            objects.append(ctor)
    variables = system.variables
    if num_vars is not None:
        variables = variables[:num_vars]
    for var in variables:
        if id(var) not in seen:
            seen.add(id(var))
            objects.append(var)
    constraints = system.constraints
    if num_constraints is not None:
        constraints = constraints[:num_constraints]
    for left, right in constraints:
        stack = [right, left]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            objects.append(node)
            if isinstance(node, Term):
                if id(node.constructor) not in seen:
                    seen.add(id(node.constructor))
                    objects.append(node.constructor)
                stack.extend(reversed(node.args))
    return objects


class _InternPickler(pickle.Pickler):
    """Serialize interned objects as references, everything else as-is."""

    def __init__(self, buffer, table: List[object]) -> None:
        super().__init__(buffer, protocol=pickle.HIGHEST_PROTOCOL)
        self._ids = {id(obj): index for index, obj in enumerate(table)}

    def persistent_id(self, obj):  # noqa: D102 - pickle hook
        return self._ids.get(id(obj))


class _InternUnpickler(pickle.Unpickler):
    """Resolve references back to the target system's own objects."""

    def __init__(self, buffer, table: List[object]) -> None:
        super().__init__(buffer)
        self._table = table

    def persistent_load(self, pid):  # noqa: D102 - pickle hook
        try:
            return self._table[pid]
        except (IndexError, TypeError) as error:
            raise CheckpointError(
                f"checkpoint references expression #{pid!r} that the "
                f"supplied system does not contain"
            ) from error


def _dump_state(state: Dict[str, Any],
                system: "ConstraintSystem") -> bytes:
    buffer = io.BytesIO()
    _InternPickler(buffer, _intern_table(system)).dump(state)
    return buffer.getvalue()


def _load_state(
    data: bytes,
    system: "ConstraintSystem",
    num_constructors: int,
    num_vars: int,
    num_constraints: int,
) -> Dict[str, Any]:
    table = _intern_table(
        system,
        num_constructors=num_constructors,
        num_vars=num_vars,
        num_constraints=num_constraints,
    )
    return _InternUnpickler(io.BytesIO(data), table).load()


@dataclass
class EngineCheckpoint:
    """One captured engine state, ready to serialize."""

    version: int
    payload: Dict[str, Any]

    def to_bytes(self) -> bytes:
        """Encode as self-describing bytes (magic + version + pickle)."""
        return _MAGIC + pickle.dumps(
            {"version": self.version, "payload": self.payload},
            protocol=pickle.HIGHEST_PROTOCOL,
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "EngineCheckpoint":
        if not data.startswith(_MAGIC):
            raise CheckpointError(
                "not a repro checkpoint (magic header missing)"
            )
        try:
            decoded = pickle.loads(data[len(_MAGIC):])
        except Exception as error:
            raise CheckpointError(
                f"checkpoint payload undecodable: {error}"
            ) from error
        version = decoded.get("version")
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version {version!r} "
                f"(this build reads {CHECKPOINT_VERSION})"
            )
        return cls(version=version, payload=decoded["payload"])

    def save(self, path: str) -> None:
        with open(path, "wb") as handle:
            handle.write(self.to_bytes())

    @classmethod
    def load(cls, path: str) -> "EngineCheckpoint":
        with open(path, "rb") as handle:
            return cls.from_bytes(handle.read())


def capture(engine: "SolverEngine") -> EngineCheckpoint:
    """Snapshot ``engine`` between worklist operations.

    Safe whenever the engine is not actively inside
    :meth:`~repro.solver.SolverEngine.drain` — after a partial run
    (budget / cancellation stop), after an exception, or between
    :class:`~repro.solver.IncrementalSolver` batches.
    """
    graph = engine.graph
    stats = engine.stats
    journal = graph.journal
    if journal is None:
        raise CheckpointError(
            "engine state cannot be captured exactly: the run did not "
            "journal bucket insertions; solve with "
            "SolverOptions(checkpointable=True) (or a budget / "
            "cancellation token, which imply it)"
        )
    parent = graph.parent
    # The log, not set contents: insertion order is what lets restore
    # rebuild each set with its exact original layout.  An absorbed
    # variable's buckets are empty, so its records are dropped.
    log = live_records(journal, parent)
    state: Dict[str, Any] = {
        "parent": list(parent),
        "log": log,
        "pending": list(engine.pending),
        "since_sweep": engine._since_sweep,
        "stats": {
            f.name: getattr(stats, f.name) for f in fields(SolverStats)
        },
        "diagnostics": list(engine.diagnostics),
        "status": engine.status.value,
    }
    payload: Dict[str, Any] = {
        "meta": {
            "label": engine.options.label,
            "num_vars": engine.system.num_vars,
            "num_constraints": len(engine.system),
            # Constructor count and order-spec name let restore rebuild
            # the capture-time intern table and validate the order even
            # after the system has grown (fresh_var between batches).
            "num_constructors": len(engine.system._constructors),
            "order": engine.options.order_spec().name,
        },
        # The *materialized* rank array, not the order spec: a spec
        # like RandomOrder re-run over a grown variable count would
        # reshuffle every rank and diverge from the captured run.
        "ranks": list(graph.ranks),
        # Expression-bearing state is interned against the system (see
        # the module docstring) and stays opaque until restore.
        "state": _dump_state(state, engine.system),
    }
    return EngineCheckpoint(version=CHECKPOINT_VERSION, payload=payload)


def restore(
    system: "ConstraintSystem",
    options: "SolverOptions",
    checkpoint: EngineCheckpoint,
) -> "SolverEngine":
    """Rebuild an engine from ``checkpoint`` against the same inputs.

    ``system`` and ``options`` must describe the same run that was
    captured (same configuration, order spec and seed, and the same
    constraints); mismatches raise :class:`CheckpointError`.  The
    system may have *grown* since the capture — incremental use creates
    variables between batches — as long as the saved variables form a
    prefix: restore installs the checkpoint's **materialized** rank
    array over the saved prefix and extends it deterministically
    (the next ranks for late variables, exactly like
    :meth:`~repro.graph.base.ConstraintGraphBase.grow`), instead of
    re-running the order spec over the grown count, which would
    reshuffle every rank and diverge from the captured run.  Call
    :meth:`~repro.solver.SolverEngine.resume` on the result to finish
    the run.
    """
    from ..solver.engine import SolverEngine

    if checkpoint.version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {checkpoint.version!r}"
        )
    payload = checkpoint.payload
    meta = payload["meta"]
    saved_vars = int(meta["num_vars"])
    saved_ranks = [int(rank) for rank in payload["ranks"]]
    mismatches = []
    if meta["label"] != options.label:
        mismatches.append(
            f"configuration {options.label!r} != saved {meta['label']!r}"
        )
    if system.num_vars < saved_vars:
        mismatches.append(
            f"{system.num_vars} variables < saved {saved_vars} "
            f"(checkpointed variables must form a prefix)"
        )
    if meta["num_constraints"] != len(system):
        mismatches.append(
            f"{len(system)} constraints != saved {meta['num_constraints']}"
        )
    saved_order = meta["order"]
    if saved_order != options.order_spec().name:
        mismatches.append(
            f"variable order {options.order_spec().name!r} != saved "
            f"{saved_order!r}"
        )
    if sorted(saved_ranks) != list(range(len(saved_ranks))):
        mismatches.append(
            "saved rank array is not a permutation (corrupt checkpoint)"
        )
    if mismatches:
        raise CheckpointError(
            "checkpoint does not match the supplied system/options: "
            + "; ".join(mismatches)
        )
    engine = SolverEngine(system, options)
    state = _load_state(
        payload["state"], system,
        num_constructors=int(meta["num_constructors"]),
        num_vars=saved_vars,
        num_constraints=int(meta["num_constraints"]),
    )

    graph = engine.graph
    # The captured graph may cover fewer variables than the restored
    # one (growth since capture); state lists are saved-graph-sized.
    # Late-created variables are representatives with the next ranks.
    saved_graph_vars = len(state["parent"])
    num_vars = graph.num_vars
    graph.parent = state["parent"] + list(range(saved_graph_vars, num_vars))
    graph.ranks = saved_ranks + list(range(len(saved_ranks), num_vars))
    # Replay the log one ``add`` at a time (never ``set(items)``): each
    # bucket grew that way, so the fresh sets get its exact layout.  A
    # bucket's first record makes its set, as the kernel's first insert
    # did.  The restored engine keeps the log, so it can be captured
    # again.
    log = state["log"]
    buckets = graph.buckets()
    records = iter(log)
    for bucket, var, item in zip(records, records, records):
        collection = buckets[bucket]
        members = collection[var]
        if members is EMPTY_BUCKET:
            members = collection[var] = set()
        members.add(item)
    graph.journal = log
    stats = engine.stats
    for name, value in state["stats"].items():
        setattr(stats, name, value)
    engine.pending.clear()
    engine.pending.extend(state["pending"])
    engine._since_sweep = state["since_sweep"]
    engine.diagnostics[:] = state["diagnostics"]
    engine.status = SolveStatus(state["status"])
    return engine
