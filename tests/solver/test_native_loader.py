"""Building, caching and falling back: :mod:`repro.solver.native`."""

import json
import os
import shutil
import subprocess
import sys
import textwrap

import pytest

from repro.solver import native

#: the package directory
PACKAGE = os.path.dirname(os.path.dirname(os.path.abspath(native.__file__)))

native_only = pytest.mark.skipif(
    native.kernel is None,
    reason=f"native kernel unavailable: {native.build_error}")


def run_python(script, *args, env=None):
    return subprocess.Popen(
        [sys.executable, "-c", textwrap.dedent(script), *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env)


def finish(process):
    out, err = process.communicate(timeout=300)
    assert process.returncode == 0, err
    return out


def test_without_a_compiler_solves_on_the_python_kernel(tmp_path):
    """A failing compile step: one warning, the Python kernel, right
    answers."""
    shutil.copytree(PACKAGE, tmp_path / "src" / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, PYTHONPATH=str(tmp_path / "src"),
               HOME=str(tmp_path / "home"))
    script = """
        import json, subprocess, warnings

        def no_compiler(command, **kwargs):
            return subprocess.CompletedProcess(
                command, 1, "", "cc: command not found")

        subprocess.run = no_compiler
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            from repro.resilience.fuzz import check_system
            from repro.solver import engine, kernel, native
            from repro.workloads.generator import (
                RandomSystemConfig, random_system)

            assert engine.run_kernel is kernel.run_kernel
            for seed in range(10):
                system = random_system(RandomSystemConfig(seed=seed))
                assert check_system(system) is None, seed
        print(json.dumps({
            "fallback": native.kernel is None,
            "error": native.build_error,
            "warnings": [(w.category.__name__, str(w.message))
                         for w in caught],
        }))
    """
    report = json.loads(finish(run_python(script, env=env)))
    assert report["fallback"]
    assert "cc: command not found" in report["error"]
    assert [category for category, _ in report["warnings"]] == [
        "RuntimeWarning"]
    assert report["error"] in report["warnings"][0][1]


@native_only
def test_a_build_of_other_source_is_never_loaded(tmp_path, monkeypatch):
    source = tmp_path / "_kernel.c"
    cache = tmp_path / "cache"
    original = open(native.SOURCE, "rb").read()
    source.write_bytes(original)
    first, error = native.load(str(source), [str(cache)])
    assert error is None
    source.write_bytes(original + b"\n/* edited */\n")
    builds = []
    real_build = native.build

    def recording_build(source_path, target):
        builds.append(target)
        real_build(source_path, target)

    monkeypatch.setattr(native, "build", recording_build)
    second, error = native.load(str(source), [str(cache)])
    assert error is None
    assert builds == [second.__file__] != [first.__file__]
    assert native.source_digest(str(source)) in second.__file__
    assert sorted(os.listdir(cache)) == sorted(
        os.path.basename(module.__file__) for module in (first, second))


@native_only
def test_processes_building_into_one_cache_at_once(tmp_path):
    """Two processes start with an empty cache; both load a kernel that
    gives the Python kernel's counters."""
    cache = tmp_path / "cache"
    script = """
        import sys
        from repro.bench.measure import counters_of
        from repro.experiments.config import options_for
        from repro.solver import SolverEngine, engine, kernel, native
        from repro.workloads.generator import RandomSystemConfig, random_system

        module, error = native.load(directories=[sys.argv[1]])
        assert module is not None, error
        system = random_system(RandomSystemConfig(seed=3, variables=40))
        counters = {}
        for run_kernel in (kernel.run_kernel, module.run_kernel):
            engine.run_kernel = run_kernel
            solution = SolverEngine(system, options_for("IF-Online")).run()
            counters[run_kernel] = counters_of(solution)
        assert len(set(map(str, counters.values()))) == 1, counters
    """
    processes = [run_python(script, str(cache)) for _ in range(2)]
    for process in processes:
        finish(process)
    # One build, no temporary file left behind.
    assert len(os.listdir(cache)) == 1
