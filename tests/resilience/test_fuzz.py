"""The differential fuzz harness: agreement, bug-catching, shrinking."""

import dataclasses
import glob
import json
import multiprocessing
import os

import pytest

from repro.graph.base import ConstraintGraphBase
from repro.resilience import FuzzDisagreement, run_fuzz
from repro.resilience.errors import ResilienceError
from repro.experiments.config import options_for
from repro.resilience.fuzz import (
    INCREMENTAL_LABELS,
    check_system,
    load_reproducer,
    save_reproducer,
    shard_ranges,
    shrink_constraints,
    solve_incremental,
    subsystem,
    system_from_json,
    system_to_json,
)
from repro.solver import solve
from repro.workloads.generator import RandomSystemConfig, random_system

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "..", "fuzz_corpus")


def inject_broken_absorb(monkeypatch):
    """Union without re-emitting or clearing the absorbed variable."""

    def broken(self, absorbed, witness):
        self.parent[absorbed] = witness
        self.stats.vars_eliminated += 1

    monkeypatch.setattr(ConstraintGraphBase, "_absorb", broken)


class TestHealthyAgreement:
    def test_check_system_agrees(self):
        assert check_system(random_system(RandomSystemConfig(seed=1))) is None

    def test_run_fuzz_smoke(self):
        assert run_fuzz(count=12, seed=0, corpus_dir=None) == []


class TestInjectedBug:
    def test_fuzzer_catches_broken_collapse(self, monkeypatch, tmp_path):
        inject_broken_absorb(monkeypatch)
        corpus = os.fspath(tmp_path / "corpus")
        found = run_fuzz(count=4, seed=0, corpus_dir=corpus)
        assert found, "fuzzer missed the injected bug"
        first = found[0]
        assert isinstance(first, FuzzDisagreement)
        assert first.kind in ("least-solution", "collapse", "verdict")
        # The reproducer was saved and replays to the same disagreement.
        assert first.path and os.path.exists(first.path)
        system, meta = load_reproducer(first.path)
        assert meta["kind"] == first.kind
        replayed = check_system(system)
        assert replayed is not None
        # Shrinking happened: far fewer constraints than generated.
        assert first.constraints < len(
            random_system(RandomSystemConfig(seed=first.seed))
        )

    def test_reproducer_passes_once_fixed(self, monkeypatch, tmp_path):
        inject_broken_absorb(monkeypatch)
        found = run_fuzz(count=2, seed=0,
                         corpus_dir=os.fspath(tmp_path))
        monkeypatch.undo()
        for disagreement in found:
            system, _ = load_reproducer(disagreement.path)
            assert check_system(system) is None

    def test_disagreements_surface_as_metrics(self, monkeypatch):
        from repro.metrics import default_registry, reset_default_registry

        reset_default_registry()
        try:
            inject_broken_absorb(monkeypatch)
            found = run_fuzz(count=4, seed=0, corpus_dir=None,
                             shrink=False)
            assert found
            family = next(
                f for f in default_registry().collect()
                if f.name == "repro_fuzz_disagreements_total"
            )
            total = sum(
                child.to_value() for _, child in family.series()
            )
            assert total == len(found)
        finally:
            reset_default_registry()

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="workers inherit the broken method only when forked",
    )
    def test_sharded_run_matches_serial(self, monkeypatch, tmp_path):
        """With a bug to find, ``jobs=2`` reports the same
        disagreements, writes the same corpus files and counts the same
        metric increments as ``jobs=1``."""
        from repro.metrics import default_registry, reset_default_registry

        inject_broken_absorb(monkeypatch)
        runs = {}
        try:
            for jobs in (1, 2):
                reset_default_registry()
                corpus = tmp_path / f"jobs{jobs}"
                found = run_fuzz(count=30, seed=0, jobs=jobs,
                                 corpus_dir=os.fspath(corpus))
                counts = {
                    labels: child.to_value()
                    for family in default_registry().collect()
                    if family.name == "repro_fuzz_disagreements_total"
                    for labels, child in family.series()
                }
                files = {
                    path.name: path.read_bytes()
                    for path in corpus.iterdir()
                }
                runs[jobs] = (found, files, counts)
        finally:
            reset_default_registry()
        serial, serial_files, serial_counts = runs[1]
        sharded, sharded_files, sharded_counts = runs[2]
        assert serial, "the injected bug must be found"

        def without_path(found):
            return [dataclasses.replace(item, path=None) for item in found]

        assert without_path(sharded) == without_path(serial)
        assert len(serial_files) == len(serial)
        assert sharded_files == serial_files
        assert sum(serial_counts.values()) == len(serial)
        assert sharded_counts == serial_counts


class TestShardRanges:
    def test_partitions_exactly(self):
        assert shard_ranges(10, 3) == [(0, 4), (4, 7), (7, 10)]
        assert shard_ranges(2, 5) == [(0, 1), (1, 2)]
        assert shard_ranges(0, 4) == []
        ranges = shard_ranges(97, 8)
        assert ranges[0][0] == 0 and ranges[-1][1] == 97
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))


class TestShrinking:
    def test_subsystem_keeps_selected_constraints(self):
        system = random_system(RandomSystemConfig(seed=3))
        sub = subsystem(system, [0, 2])
        assert len(sub) == 2
        assert sub.num_vars == system.num_vars
        assert str(sub.constraints[0]) == str(system.constraints[0])
        assert str(sub.constraints[1]) == str(system.constraints[2])

    def test_shrink_is_1_minimal(self):
        system = random_system(RandomSystemConfig(seed=3))
        target = str(system.constraints[5])

        def failing(candidate):
            return any(str(c) == target for c in candidate.constraints)

        shrunk = shrink_constraints(system, failing)
        assert len(shrunk) == 1
        assert str(shrunk.constraints[0]) == target


class TestCorpusFormat:
    def test_json_round_trip(self):
        system = random_system(RandomSystemConfig(seed=11))
        clone = system_from_json(system_to_json(system))
        assert len(clone) == len(system)
        assert clone.num_vars == system.num_vars
        assert [str(c) for c in clone.constraints] == [
            str(c) for c in system.constraints
        ]
        assert check_system(clone) is None

    def test_load_rejects_unknown_format(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": 999, "system": {}}))
        with pytest.raises(ResilienceError, match="format"):
            load_reproducer(os.fspath(path))

    def test_save_reproducer_is_valid_json(self, tmp_path):
        system = random_system(RandomSystemConfig(seed=2))
        disagreement = FuzzDisagreement(
            seed=2, label="IF-Online", kind="least-solution",
            detail="synthetic", constraints=len(system),
        )
        path = save_reproducer(os.fspath(tmp_path), disagreement, system)
        with open(path) as handle:
            document = json.load(handle)
        assert document["seed"] == 2
        assert document["system"]["constraints"]


class TestCorpusReplay:
    """Every committed corpus entry once exposed a real disagreement;
    after the fix, all configurations must agree on it forever."""

    def test_committed_corpus_agrees(self):
        for path in sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json"))):
            system, meta = load_reproducer(path)
            assert check_system(system) is None, (
                f"regression: corpus entry {os.path.basename(path)} "
                f"(originally {meta['kind']} under {meta['label']}) "
                f"disagrees again"
            )


class TestIncrementalReplay:
    def test_replay_matches_batch(self):
        system = random_system(RandomSystemConfig(seed=3))
        for label in INCREMENTAL_LABELS:
            batch = solve(system, options_for(label))
            replayed = solve_incremental(system, options_for(label))
            # The replay has its own system with the same indices, and
            # queries take only that system's variables.
            own = replayed.system.variables
            for var in system.variables:
                assert replayed.least_solution(own[var.index]) == \
                    batch.least_solution(var), (label, var)

    def test_incremental_disagreement_is_labelled(self, monkeypatch):
        """A bug only on the incremental path is reported as such."""
        import repro.resilience.fuzz as fuzz

        def drop_last(system, options):
            # Replays every constraint but the last one.
            return real(subsystem(system, range(len(system) - 1)), options)

        real = fuzz.solve_incremental
        monkeypatch.setattr(fuzz, "solve_incremental", drop_last)
        system = random_system(RandomSystemConfig(
            seed=0, sinks=0, structural=0, extremes=0.0, feedback=0.4,
        ))
        found = check_system(system, labels=["IF-Online"])
        assert found is not None
        assert found[0] == "IF-Online/incremental"

    @pytest.mark.parametrize("label", INCREMENTAL_LABELS)
    def test_mid_stream_queries_expose_stale_memos(self, monkeypatch,
                                                   label):
        """An ``add`` that keeps the query memo is caught, because the
        replay queries between additions."""
        from repro.solver.incremental import IncrementalSolver

        real_add = IncrementalSolver.add

        def stale_add(self, left, right):
            memo = self._memo
            real_add(self, left, right)
            self._memo = memo

        monkeypatch.setattr(IncrementalSolver, "add", stale_add)
        system = random_system(RandomSystemConfig(seed=0))
        found = check_system(system, labels=[label])
        assert found is not None
        assert found[:2] == (f"{label}/incremental", "least-solution")
