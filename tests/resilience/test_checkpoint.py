"""Checkpoint/resume: exact state reproduction, format safety."""

import json
import os
import subprocess
import sys

import pytest

from repro.bench.measure import counters_of
from repro.resilience import (
    CheckpointError,
    EngineCheckpoint,
    SolveBudget,
    capture,
    restore,
)
from repro.resilience.checkpoint import _dump_state, _load_state
from repro.solver import SolverEngine, SolverOptions
from repro.solver import engine as engine_module
from repro.solver import kernel as python_kernel
from repro.solver import native
from repro.experiments.config import options_for
from repro.workloads.generator import RandomSystemConfig, random_system
from tests.solver.test_native_kernel import random_systems

#: The four directly-engine-drivable configurations (oracle runs go
#: through the two-phase driver, not a single SolverEngine).
ENGINE_LABELS = ("SF-Plain", "IF-Plain", "SF-Online", "IF-Online")


def make_system(seed=5):
    return random_system(RandomSystemConfig(seed=seed, variables=28,
                                            var_var=46, feedback=0.35))


def interrupted_counters(system, label, max_work):
    """Run partial -> capture -> bytes round-trip -> restore -> resume."""
    partial_options = options_for(
        label, budget=SolveBudget(max_work=max_work),
        on_budget="partial", check_stride=1,
    )
    engine = SolverEngine(system, partial_options)
    first = engine.run()
    assert first.is_partial, "budget did not interrupt the run"
    blob = capture(engine).to_bytes()
    resumed = restore(
        system,
        options_for(label, checkpointable=True),
        EngineCheckpoint.from_bytes(blob),
    )
    return counters_of(resumed.resume()), resumed


@pytest.mark.parametrize("label", ENGINE_LABELS)
def test_resume_matches_uninterrupted(label):
    """The acceptance property: interrupted == uninterrupted, exactly."""
    system = make_system()
    uninterrupted = SolverEngine(
        system, options_for(label, checkpointable=True)
    ).run()
    got, engine = interrupted_counters(system, label, max_work=40)
    assert got == counters_of(uninterrupted)
    # And the answers, not just the counters.
    final = engine._make_solution(engine._least_solution())
    for var in system.variables:
        assert final.least_solution(var) == uninterrupted.least_solution(var)


@pytest.mark.parametrize("fraction", (8, 3, 2))
def test_resume_is_cut_point_independent(fraction):
    system = make_system(seed=9)
    expected = counters_of(
        SolverEngine(
            system, options_for("IF-Online", checkpointable=True)
        ).run()
    )
    cut = max(1, expected["work"] // fraction)
    got, _ = interrupted_counters(system, "IF-Online", max_work=cut)
    assert got == expected


def test_capture_requires_journaling():
    engine = SolverEngine(make_system(), SolverOptions())
    engine.run()
    with pytest.raises(CheckpointError, match="journal"):
        capture(engine)


def test_bytes_rejects_garbage_and_bad_versions():
    with pytest.raises(CheckpointError, match="magic"):
        EngineCheckpoint.from_bytes(b"not a checkpoint")
    engine = SolverEngine(
        make_system(), SolverOptions(checkpointable=True)
    )
    engine.run()
    checkpoint = capture(engine)
    checkpoint.version = 999
    with pytest.raises(CheckpointError, match="version"):
        EngineCheckpoint.from_bytes(checkpoint.to_bytes())


def test_version_one_payload_refused():
    """Format 2 dropped v1's union-find count, recorded var-edge keys
    and form name; format 3 added a string-hash probe, which format 4
    dropped with seed-free expression hashes; format 5 stores one
    insertion log instead of per-variable journals, and the worklist
    with its fan-out entries.  Older checkpoints are refused, not
    half-read."""
    system = make_system()
    engine = SolverEngine(system, SolverOptions(checkpointable=True))
    engine.run()
    checkpoint = capture(engine)
    assert checkpoint.version == 5
    assert "form" not in checkpoint.payload["meta"]
    assert "hash_probe" not in checkpoint.payload["meta"]
    for old_version in (1, 2, 3, 4):
        checkpoint.version = old_version
        with pytest.raises(CheckpointError, match="version"):
            EngineCheckpoint.from_bytes(checkpoint.to_bytes())
        with pytest.raises(CheckpointError, match="version"):
            restore(system, SolverOptions(checkpointable=True), checkpoint)


def test_restore_rejects_mismatched_system():
    system = make_system(seed=5)
    engine = SolverEngine(system, SolverOptions(checkpointable=True))
    engine.run()
    checkpoint = capture(engine)
    other = make_system(seed=6)
    with pytest.raises(CheckpointError, match="does not match"):
        restore(other, SolverOptions(checkpointable=True), checkpoint)
    with pytest.raises(CheckpointError, match="does not match"):
        restore(
            system,
            options_for("SF-Plain", checkpointable=True),
            checkpoint,
        )


def forward_out_of_range(state):
    state["parent"][3] = len(state["parent"])


def forward_round_a_cycle(state):
    state["parent"][3], state["parent"][4] = 4, 3


def log_unknown_bucket(state):
    state["log"] += (4, 0, 1)


def log_var_out_of_range(state):
    state["log"] += (0, len(state["parent"]), 1)


def log_cut_record(state):
    state["log"].append(0)


@pytest.mark.parametrize("corrupt", [
    forward_out_of_range, forward_round_a_cycle, log_unknown_bucket,
    log_var_out_of_range, log_cut_record,
])
def test_restore_refuses_state_the_kernel_would_not_trust(corrupt):
    """Restore is where outside state enters an engine: a ``parent``
    that does not forward every variable to a representative, or a log
    record outside the graph, is refused, not handed to a kernel."""
    system = make_system()
    engine = SolverEngine(system, SolverOptions(checkpointable=True))
    engine.run()
    checkpoint = capture(engine)
    payload = checkpoint.payload
    meta = payload["meta"]
    state = _load_state(payload["state"], system, meta["num_constructors"],
                        meta["num_vars"], meta["num_constraints"])
    corrupt(state)
    payload["state"] = _dump_state(state, system)
    with pytest.raises(CheckpointError):
        restore(system, SolverOptions(checkpointable=True), checkpoint)


def test_save_load_file_round_trip(tmp_path):
    system = make_system()
    engine = SolverEngine(system, SolverOptions(checkpointable=True))
    engine.run()
    path = os.fspath(tmp_path / "run.ckpt")
    capture(engine).save(path)
    loaded = EngineCheckpoint.load(path)
    resumed = restore(system, SolverOptions(checkpointable=True), loaded)
    assert counters_of(resumed.resume()) == counters_of(
        engine._make_solution(engine._least_solution())
    )


def test_restored_engine_is_checkpointable_again():
    system = make_system()
    first = SolverEngine(system, options_for(
        "IF-Online", budget=SolveBudget(max_work=25),
        on_budget="partial", check_stride=1,
    ))
    first.run()
    second = restore(
        system,
        options_for("IF-Online", budget=SolveBudget(max_work=25),
                    on_budget="partial", check_stride=1),
        capture(first),
    )
    second.resume()
    capture(second)  # must not raise


@pytest.mark.parametrize("label", ("SF-Online", "IF-Online"))
def test_resume_reproduces_committed_baseline(label, baseline_counters):
    """Interrupt a quick-suite benchmark mid-closure, checkpoint,
    restore and resume: the final counters equal the committed
    ``benchmarks/BASELINE.json`` record, under any hash seed."""
    from repro.workloads import benchmark

    want = baseline_counters["allroots", label]
    system = benchmark("allroots").program.system
    engine = SolverEngine(system, options_for(
        label, budget=SolveBudget(max_work=want["work"] // 2),
        on_budget="partial", check_stride=1,
    ))
    assert engine.run().is_partial
    resumed = restore(
        system,
        options_for(label, checkpointable=True),
        EngineCheckpoint.from_bytes(capture(engine).to_bytes()),
    )
    assert counters_of(resumed.resume()) == want


#: Subprocess script, run under its own hash seed: stop allroots'
#: IF-Online solve after argv[3] work and save a checkpoint to argv[2]
#: (argv[1] == "capture"), or restore that checkpoint, resume it and
#: print the final counters as JSON.
_CROSS_SEED_SCRIPT = """
import json, sys
from repro.bench.measure import counters_of
from repro.experiments.config import options_for
from repro.resilience import EngineCheckpoint, SolveBudget, capture, restore
from repro.solver import SolverEngine
from repro.workloads import benchmark

system = benchmark("allroots").program.system
if sys.argv[1] == "capture":
    engine = SolverEngine(system, options_for(
        "IF-Online", budget=SolveBudget(max_work=int(sys.argv[3])),
        on_budget="partial", check_stride=1,
    ))
    assert engine.run().is_partial
    capture(engine).save(sys.argv[2])
else:
    engine = restore(system, options_for("IF-Online", checkpointable=True),
                     EngineCheckpoint.load(sys.argv[2]))
    print(json.dumps(counters_of(engine.resume())))
"""


def test_resume_under_another_hash_seed(tmp_path, baseline_counters):
    """Expression hashes are seed-free, so a capture made under
    PYTHONHASHSEED=0 resumes under seed 1 to the uninterrupted run's
    exact counters."""
    want = baseline_counters["allroots", "IF-Online"]
    path = str(tmp_path / "run.ckpt")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))), "src")
    outputs = []
    for step, seed in (("capture", "0"), ("restore", "1")):
        result = subprocess.run(
            [sys.executable, "-c", _CROSS_SEED_SCRIPT, step, path,
             str(want["work"] // 2)],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src),
        )
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert json.loads(outputs[1]) == want


# ----------------------------------------------------------------------
# Every budget stop of random systems, on each kernel
# ----------------------------------------------------------------------

def buckets_in_order(graph):
    return [[list(bucket) for bucket in buckets]
            for buckets in graph.buckets()]


class TestRandomSystemStops:
    """Capture -> bytes -> restore at every budget stop reproduces the
    engine: its worklist, every bucket in iteration order, and the
    counters and least solution it finishes with.  Runs on the Python
    kernel; the ``...Native`` subclass runs it on the native one."""

    run_kernel = staticmethod(python_kernel.run_kernel)

    @pytest.fixture(autouse=True)
    def _engine_kernel(self, monkeypatch):
        monkeypatch.setattr(engine_module, "run_kernel", self.run_kernel)

    @pytest.mark.parametrize("label", ("SF-Online", "IF-Online"))
    def test_every_stop_round_trips(self, label):
        stops = 0
        for seed, system in random_systems():
            order = seed % 2
            full = SolverEngine(system, options_for(label, seed=order)).run()
            expected = counters_of(full)
            least = [full.least_solution(var) for var in system.variables]
            engine = SolverEngine(system, options_for(
                label, seed=order, on_budget="partial", check_stride=7,
                budget=SolveBudget(max_work=max(1, expected["work"] // 3))))
            solution = engine.run()
            while solution.is_partial:
                stops += 1
                restored = restore(
                    system,
                    options_for(label, seed=order, checkpointable=True),
                    EngineCheckpoint.from_bytes(capture(engine).to_bytes()))
                where = (seed, stops)
                assert list(restored.pending) == list(engine.pending), where
                assert buckets_in_order(restored.graph) \
                    == buckets_in_order(engine.graph), where
                resumed = restored.resume()
                assert counters_of(resumed) == expected, where
                assert [resumed.least_solution(var)
                        for var in system.variables] == least, where
                solution = engine.resume()
            assert counters_of(solution) == expected, seed
        assert stops >= 400


@pytest.mark.skipif(native.kernel is None,
                    reason=f"native kernel unavailable: {native.build_error}")
class TestRandomSystemStopsNative(TestRandomSystemStops):
    run_kernel = staticmethod(native.kernel.run_kernel if native.kernel
                              else None)


# ----------------------------------------------------------------------
# Growth across a checkpoint (incremental clients)
# ----------------------------------------------------------------------

from repro import Variance  # noqa: E402
from repro.solver import CyclePolicy, GraphForm  # noqa: E402
from repro.solver.incremental import IncrementalSolver  # noqa: E402
from repro.solver.options import SolverOptions  # noqa: E402

#: Every live counter an incremental engine accumulates (final-edge
#: counts are only filled by the batch driver's finalize pass).
LIVE_COUNTERS = tuple(
    name for name in
    ("work", "redundant", "self_edges", "resolutions", "clashes",
     "cycle_searches", "cycle_search_visits", "cycles_found",
     "vars_eliminated", "periodic_sweeps")
)


def _drive_incremental(form, interrupt):
    """Two batches with cross-batch cycles; optionally checkpoint
    between them, grow the system, and restore before batch two."""
    solver = IncrementalSolver(SolverOptions(
        form=form, cycles=CyclePolicy.ONLINE, checkpointable=True,
    ))
    box = solver.constructor("box", (Variance.COVARIANT,))
    first = [solver.fresh_var(f"v{i}") for i in range(6)]
    solver.add(solver.term(box, (solver.zero,), label="s0"), first[0])
    for left, right in [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5)]:
        solver.add(first[left], first[right])

    snapshot = solver.checkpoint() if interrupt else None
    # The regression scenario: variables created AFTER the capture.
    late = [solver.fresh_var(f"w{i}") for i in range(4)]
    if interrupt:
        solver.restore(snapshot)

    solver.add(solver.term(box, (solver.one,), label="s1"), late[0])
    # Cycles inside the late batch and across the checkpoint boundary.
    for left, right in [(0, 1), (1, 2), (2, 0)]:
        solver.add(late[left], late[right])
    solver.add(late[2], first[1])
    solver.add(first[5], late[3])
    solver.add(late[3], first[3])
    return solver, first + late


@pytest.mark.parametrize(
    "form", [GraphForm.STANDARD, GraphForm.INDUCTIVE]
)
def test_restore_after_growth_matches_uninterrupted(form):
    """Regression: restore used to re-run the order spec over the grown
    system, permuting ranks for the checkpointed prefix; it must
    instead reinstall the *materialized* ranks and extend them."""
    plain_solver, plain_vars = _drive_incremental(form, interrupt=False)
    restored_solver, restored_vars = _drive_incremental(
        form, interrupt=True
    )
    for name in LIVE_COUNTERS:
        assert getattr(restored_solver.stats, name) \
            == getattr(plain_solver.stats, name), name
    assert plain_solver.stats.cycle_searches > 0
    if form is GraphForm.INDUCTIVE:
        # IF's closure rule is guaranteed to catch these cycles; SF's
        # partial search may legitimately miss them.
        assert plain_solver.stats.cycles_found > 0
    for plain_var, restored_var in zip(plain_vars, restored_vars):
        assert {str(t) for t in plain_solver.least_solution(plain_var)} \
            == {str(t) for t in restored_solver.least_solution(
                restored_var)}


def test_restore_after_growth_preserves_components():
    solver, variables = _drive_incremental(
        GraphForm.INDUCTIVE, interrupt=True
    )
    # first[0..2] collapsed in batch one; late[0..2] joined them via the
    # cross-boundary edges in batch two.
    assert solver.same_component(variables[0], variables[2])
    assert solver.same_component(variables[6], variables[8])


def test_restore_rejects_shrunken_system():
    """A checkpoint of MORE variables than the system has is a
    mismatch, not an index error."""
    solver = IncrementalSolver(SolverOptions(checkpointable=True))
    solver.fresh_var()
    solver.fresh_var()
    snapshot = solver.checkpoint()
    fresh = IncrementalSolver(SolverOptions(checkpointable=True))
    fresh.fresh_var()
    with pytest.raises(CheckpointError):
        fresh.restore(snapshot)
