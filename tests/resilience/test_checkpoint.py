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
from repro.solver import SolverEngine, SolverOptions
from repro.experiments.config import options_for
from repro.workloads.generator import RandomSystemConfig, random_system

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
    and form name; format 3 added the string-hash probe.  Older
    checkpoints are refused, not half-read."""
    system = make_system()
    engine = SolverEngine(system, SolverOptions(checkpointable=True))
    engine.run()
    checkpoint = capture(engine)
    assert checkpoint.version == 3
    assert "form" not in checkpoint.payload["meta"]
    assert checkpoint.payload["meta"]["hash_probe"] == hash(
        "repro.checkpoint"
    )
    for old_version in (1, 2):
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


#: Subprocess script: interrupt a baseline benchmark mid-closure,
#: checkpoint, restore, resume, and compare the final work counters
#: against the committed benchmarks/BASELINE.json record.  Runs in a
#: child process because baseline counters are pinned to
#: PYTHONHASHSEED=0 while the test suite runs under any hash seed.
_BASELINE_SCRIPT = """
import json, sys
from repro.bench.measure import counters_of
from repro.experiments.config import options_for
from repro.resilience import (EngineCheckpoint, SolveBudget, capture,
                              restore)
from repro.solver import SolverEngine
from repro.workloads import suite

label, bench_name = sys.argv[1], sys.argv[2]
baseline = json.load(open("benchmarks/BASELINE.json"))
record = next(r for r in baseline["records"]
              if r["benchmark"] == bench_name and r["experiment"] == label)
system = next(b for b in suite("quick") if b.name == bench_name
              ).program.system
engine = SolverEngine(system, options_for(
    label, budget=SolveBudget(max_work=record["counters"]["work"] // 2),
    on_budget="partial", check_stride=1,
))
assert engine.run().is_partial
blob = capture(engine).to_bytes()
resumed = restore(system, options_for(label, checkpointable=True),
                  EngineCheckpoint.from_bytes(blob))
got = counters_of(resumed.resume())
want = record["counters"]
assert got == want, f"resumed counters {got} != baseline {want}"
print("ok")
"""


@pytest.mark.parametrize("label", ("SF-Online", "IF-Online"))
def test_resume_reproduces_committed_baseline(label):
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.path.join(os.getcwd(), "src"))
    result = subprocess.run(
        [sys.executable, "-c", _BASELINE_SCRIPT, label, "allroots"],
        capture_output=True, text=True, env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)))),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"


#: Subprocess script: capture (argv[1] == "capture") or restore a run
#: of the module's random system through the checkpoint file argv[2].
_CROSS_SEED_SCRIPT = """
import sys
from repro.resilience import (CheckpointError, EngineCheckpoint, capture,
                              restore)
from repro.solver import SolverEngine, SolverOptions
from repro.workloads.generator import RandomSystemConfig, random_system

system = random_system(RandomSystemConfig(seed=5, variables=28,
                                          var_var=46, feedback=0.35))
options = SolverOptions(checkpointable=True)
if sys.argv[1] == "capture":
    engine = SolverEngine(system, options)
    engine.run()
    capture(engine).save(sys.argv[2])
else:
    try:
        restore(system, options, EngineCheckpoint.load(sys.argv[2]))
    except CheckpointError as error:
        print(error)
"""


def test_restore_refuses_another_hash_seed(tmp_path):
    """Bucket layout follows string hashes; resuming a capture made
    under another PYTHONHASHSEED would silently diverge."""
    path = str(tmp_path / "run.ckpt")
    outputs = []
    for step, seed in (("capture", "0"), ("restore", "1")):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.path.join(os.getcwd(), "src"))
        result = subprocess.run(
            [sys.executable, "-c", _CROSS_SEED_SCRIPT, step, path],
            capture_output=True, text=True, env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(
                os.path.abspath(__file__)))),
        )
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert "string hashes differ" in outputs[1]
    assert "PYTHONHASHSEED=0" in outputs[1]


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
