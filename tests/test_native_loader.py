"""Building, caching and falling back: :mod:`repro.native`, run for
both native modules, the closure kernel and the lexer."""

import importlib.machinery
import json
import os
import shutil
import subprocess
import sys
import textwrap

import pytest

from repro import native
from repro.cfront import native as cfront_native
from repro.solver import native as solver_native

#: the package directory
PACKAGE = os.path.dirname(os.path.abspath(native.__file__))

#: module name -> the module that loads it
WRAPPERS = {"_kernel": solver_native, "_lexer": cfront_native}
#: module name -> the loaded extension, or None
BUILT = {"_kernel": solver_native.kernel, "_lexer": cfront_native.lexer}

#: Child-process checks that a loaded ``module`` gives its Python
#: reference's results.
AGREES = {
    "_kernel": """
        from repro.bench.measure import counters_of
        from repro.experiments.config import options_for
        from repro.solver import SolverEngine, engine, kernel
        from repro.workloads.generator import (
            RandomSystemConfig, random_system)

        system = random_system(RandomSystemConfig(seed=3, variables=40))
        counters = {}
        for run_kernel in (kernel.run_kernel, module.run_kernel):
            engine.run_kernel = run_kernel
            solution = SolverEngine(system, options_for("IF-Online")).run()
            counters[run_kernel] = counters_of(solution)
        assert len(set(map(str, counters.values()))) == 1, counters
    """,
    "_lexer": """
        from repro.cfront import Lexer
        from repro.workloads import ALL_PROGRAMS

        for source in ALL_PROGRAMS.values():
            assert module.tokenize(source) == Lexer(source).tokens()
    """,
}

#: Child-process checks, run after every build failed, that the
#: package runs the Python reference and gets right answers.
FALLS_BACK = {
    "_kernel": """
        from repro.resilience.fuzz import check_system
        from repro.solver import engine, kernel
        from repro.workloads.generator import (
            RandomSystemConfig, random_system)

        assert engine.run_kernel is kernel.run_kernel
        for seed in range(10):
            system = random_system(RandomSystemConfig(seed=seed))
            assert check_system(system) is None, seed
    """,
    "_lexer": """
        from repro.cfront import Lexer, LexError, lexer, parse, tokenize
        from repro.workloads import ALL_PROGRAMS

        assert tokenize is lexer.tokenize
        assert tokenize.__module__ == "repro.cfront.lexer"
        for source in ALL_PROGRAMS.values():
            assert tokenize(source) == Lexer(source).tokens()
            parse(source)
        try:
            tokenize("x;\\n  @")
        except LexError as error:
            assert (str(error), error.line) == (
                "unexpected character '@' at 2:3", 2)
        else:
            raise AssertionError("no LexError")
    """,
}

modules = pytest.mark.parametrize("name", sorted(WRAPPERS),
                                  ids=lambda name: name.strip("_"))


def native_only(name):
    if BUILT[name] is None:
        pytest.skip(f"{name} unavailable: {WRAPPERS[name].build_error}")


def script_of(*parts):
    """One script of dedented ``parts``."""
    return "".join(map(textwrap.dedent, parts))


def run_python(script, *args, env=None):
    return subprocess.Popen(
        [sys.executable, "-c", textwrap.dedent(script), *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env)


def finish(process):
    out, err = process.communicate(timeout=300)
    assert process.returncode == 0, err
    return out


#: module name -> the warning of a failed build, given its error
WARNINGS = {
    "_kernel": "the native closure kernel is unavailable, so the Python "
               "kernel runs: {}",
    "_lexer": "the native lexer is unavailable, so the Python lexer "
              "runs: {}",
}


@modules
def test_without_a_compiler_runs_the_python_reference(tmp_path, name):
    """A compile step that fails for one module: one warning for it,
    its Python reference, right answers; the other module still
    builds."""
    shutil.copytree(PACKAGE, tmp_path / "src" / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, PYTHONPATH=str(tmp_path / "src"),
               HOME=str(tmp_path / "home"))
    script = script_of("""
        import json, subprocess, sys, warnings

        compile_source = subprocess.run

        def no_compiler(command, **kwargs):
            if any(part.endswith(sys.argv[1] + ".c") for part in command):
                return subprocess.CompletedProcess(
                    command, 1, "", "cc: command not found")
            return compile_source(command, **kwargs)

        subprocess.run = no_compiler
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            from repro.cfront import native as cfront_native
            from repro.solver import native as solver_native
    """, FALLS_BACK[name], """
        print(json.dumps({
            "errors": {"_kernel": solver_native.build_error,
                       "_lexer": cfront_native.build_error},
            "warnings": [(w.category.__name__, str(w.message))
                         for w in caught],
        }))
    """)
    report = json.loads(finish(run_python(script, name, env=env)))
    errors = report["errors"]
    assert "cc: command not found" in errors[name]
    # The other module builds unless its source cannot compile here.
    unavailable = [module for module in sorted(WRAPPERS)
                   if module == name or BUILT[module] is None]
    assert [module for module in sorted(errors) if errors[module]] == (
        unavailable)
    assert sorted(map(tuple, report["warnings"])) == [
        ("RuntimeWarning", WARNINGS[module].format(errors[module]))
        for module in unavailable]


@modules
def test_a_build_of_other_source_is_never_loaded(tmp_path, name):
    """An edited source is built anew, beside the earlier build.  Run
    in a child: loading a second kernel build in this process would give
    ``Term`` and ``Var`` that build's hash, which the loaded kernel's
    ``has_native_hash`` does not know."""
    native_only(name)
    script = """
        import os, sys
        from repro import native

        source, cache, package = sys.argv[1:]
        first, error = native.load(source, package, [cache])
        assert error is None, error
        open(source, "ab").write(b"\\n/* edited */\\n")
        builds = []
        real_build = native.build

        def recording_build(source_path, target):
            builds.append(target)
            real_build(source_path, target)

        native.build = recording_build
        second, error = native.load(source, package, [cache])
        assert error is None, error
        assert builds == [second.__file__] != [first.__file__], builds
        assert native.source_digest(source) in second.__file__
        # Not the __pycache__ beside the source: nothing is deleted.
        assert sorted(os.listdir(cache)) == sorted(
            os.path.basename(module.__file__)
            for module in (first, second))
    """
    source = tmp_path / f"{name}.c"
    shutil.copyfile(WRAPPERS[name].SOURCE, source)
    package = WRAPPERS[name].__package__
    finish(run_python(script, str(source), str(tmp_path / "cache"),
                      package))


def fake_build(monkeypatch):
    """Builds write an empty file; loads give the file's name."""
    monkeypatch.setattr(native, "build",
                        lambda source, target: open(target, "wb").close())
    monkeypatch.setattr(native, "load_module",
                        lambda path, name: os.path.basename(path))


@modules
def test_a_build_beside_the_source_deletes_older_builds(tmp_path,
                                                        monkeypatch, name):
    """A build into the ``__pycache__`` beside the source deletes the
    module's builds of other source for this interpreter, and nothing
    else."""
    other = ({*WRAPPERS} - {name}).pop()
    source = tmp_path / f"{name}.c"
    source.write_bytes(b"/* the current source */\n")
    cache = tmp_path / "__pycache__"
    cache.mkdir()
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    older = f"{name}-{'0' * 64}{suffix}"
    kept = [
        f"{name}-{'0' * 64}.cpython-99-other.so",  # another interpreter
        f"{other}-{'0' * 64}{suffix}",  # another module
        f".{name}-{'0' * 8}.tmp",  # a build in progress
        "kernel.cpython-311.pyc",
    ]
    for entry in [older, *kept]:
        (cache / entry).write_bytes(b"")
    fake_build(monkeypatch)
    built, error = native.load(str(source), "repro", [str(cache)])
    assert error is None
    assert built == f"{name}-{native.source_digest(str(source))}{suffix}"
    assert sorted(os.listdir(cache)) == sorted([built, *kept])
    # A cached build is loaded without a build, so nothing is deleted.
    (cache / older).write_bytes(b"")
    assert native.load(str(source), "repro", [str(cache)]) == (built, None)
    assert older in os.listdir(cache)


def test_builds_of_both_modules_share_a_pycache(tmp_path, monkeypatch):
    """Each module's rebuild deletes its own older build only: the
    other module's build survives it."""
    cache = tmp_path / "__pycache__"
    cache.mkdir()
    sources = {name: tmp_path / f"{name}.c" for name in sorted(WRAPPERS)}
    fake_build(monkeypatch)

    def build(name, text):
        sources[name].write_text(text)
        built, error = native.load(str(sources[name]), "repro")
        assert error is None, error
        return built

    builds = {name: build(name, f"/* {name} 1 */\n") for name in sources}
    assert sorted(os.listdir(cache)) == sorted(builds.values())
    for name in sources:
        builds[name] = build(name, f"/* {name} 2 */\n")
        assert sorted(os.listdir(cache)) == sorted(builds.values())


@modules
def test_processes_building_into_one_cache_at_once(tmp_path, name):
    """Two processes start with an empty cache; both load a build that
    gives the Python reference's results."""
    native_only(name)
    cache = tmp_path / "cache"
    script = script_of(f"""
        import sys
        from {WRAPPERS[name].__name__} import load

        module, error = load([sys.argv[1]])
        assert module is not None, error
    """, AGREES[name])
    processes = [run_python(script, str(cache)) for _ in range(2)]
    for process in processes:
        finish(process)
    # One build, no temporary file left behind.
    assert len(os.listdir(cache)) == 1
