"""The native closure kernel against the Python kernel, input by input.

Both kernels solve the same inputs (the quick suite under every Table-4
configuration and two variable orders, and 200 random systems), and
everything a kernel decides must come out equal: the counters, least
solutions and diagnostics, the final ``parent`` and ``ranks`` lists and
every bucket in iteration order, the events a recording trace sink
sees, and the pending worklist and checkpoint after every budget stop.
"""

import gc
import random
import sys

import pytest

from repro.bench.measure import counters_of
from repro.experiments.config import EXPERIMENT_LABELS, options_for
from repro.graph.scc import witness_map
from repro.resilience import SolveBudget, capture
from repro.solver import CyclePolicy, SolverEngine
from repro.solver import engine as engine_module
from repro.solver import kernel as python_kernel
from repro.solver import native
from repro.trace import CollectorSink
from repro.workloads import suite
from repro.workloads.generator import RandomSystemConfig, random_system

pytestmark = pytest.mark.skipif(
    native.kernel is None,
    reason=f"native kernel unavailable: {native.build_error}")

KERNELS = {"python": python_kernel.run_kernel}
if native.kernel is not None:
    KERNELS["native"] = native.kernel.run_kernel

ORDER_SEEDS = (0, 1)
#: supervision of the stopped runs: a check every 7 operations
CHECK_STRIDE = 7
#: budget stops per solve, about
QUICK_STOPS = 4
RANDOM_STOPS = 3


def make_engine(system, label, seed, **overrides):
    """An engine for one Table-4 run; an oracle's is its phase 2."""
    options = options_for(label, seed=seed, **overrides)
    if options.cycles is CyclePolicy.ORACLE:
        plain = label.replace("Oracle", "Plain")
        phase1 = SolverEngine(system, options_for(plain, seed=seed)).run()
        options = options.replace(
            cycles=CyclePolicy.NONE,
            alias_map=witness_map(range(system.num_vars), phase1.var_edges))
    return SolverEngine(system, options)


class RecordingSink(CollectorSink):
    """Every event in order, without timestamps."""

    def _emit(self, _event, **args):
        self.events.append((_event, args))

    def clash(self, diagnostic):
        self.events.append(("clash", diagnostic))


def solved_state(system, label, seed):
    """One traced, unsupervised solve: what the kernel decided."""
    sink = RecordingSink()
    solution = make_engine(system, label, seed, sink=sink).run()
    graph = solution.graph
    # The graph's lists first: least-solution queries compress paths.
    return {
        "parent": list(graph.parent),
        "ranks": list(graph.ranks),
        "buckets": [[list(bucket) for bucket in buckets]
                    for buckets in (graph.succ_vars, graph.pred_vars,
                                    graph.sources, graph.sinks)],
        "counters": counters_of(solution),
        "least": [solution.least_solution_by_index(index)
                  for index in range(system.num_vars)],
        "diagnostics": list(solution.diagnostics),
        "status": solution.status,
        "events": sink.events,
    }


def stops(system, label, seed, max_work):
    """The pending worklist and checkpoint at every budget stop."""
    engine = make_engine(
        system, label, seed, budget=SolveBudget(max_work=max_work),
        on_budget="partial", check_stride=CHECK_STRIDE)
    seen = []
    solution = engine.run()
    while solution.is_partial:
        # Wall-clock fields are the only ones allowed to differ.
        engine.stats.closure_seconds = 0.0
        engine.stats.least_solution_seconds = 0.0
        seen.append((list(engine.pending), capture(engine).payload))
        solution = engine.resume()
    seen.append(counters_of(solution))
    return seen


def on_each_kernel(observe, *args):
    """``observe(*args)`` with the engine on each kernel in turn."""
    results = {}
    with pytest.MonkeyPatch.context() as patch:
        for name, run_kernel in KERNELS.items():
            patch.setattr(engine_module, "run_kernel", run_kernel)
            results[name] = observe(*args)
    return results


def assert_same(results, where=""):
    python, native_result = results["python"], results["native"]
    if isinstance(python, dict):
        for key in python:
            assert native_result[key] == python[key], (where, key)
    assert native_result == python, where


@pytest.mark.parametrize("seed", ORDER_SEEDS)
@pytest.mark.parametrize("label", EXPERIMENT_LABELS)
class TestQuickSuite:
    @pytest.mark.parametrize("name", [b.name for b in suite("quick")])
    def test_solved_state(self, name, label, seed):
        system = _quick_system(name)
        assert_same(on_each_kernel(solved_state, system, label, seed))

    @pytest.mark.slow
    @pytest.mark.parametrize("name", [b.name for b in suite("quick")])
    def test_budget_stops(self, name, label, seed):
        system = _quick_system(name)
        total = make_engine(system, label, seed).run().stats.work
        results = on_each_kernel(
            stops, system, label, seed, max(1, total // QUICK_STOPS))
        assert len(results["python"]) > 2
        assert_same(results)


def _quick_system(name):
    (benchmark,) = [b for b in suite("quick") if b.name == name]
    return benchmark.program.system


def random_systems(count=200):
    """Seeded random systems of varied shape."""
    rng = random.Random(0)
    for seed in range(count):
        yield seed, random_system(RandomSystemConfig(
            seed=seed,
            variables=rng.randrange(6, 40),
            atoms=rng.randrange(2, 8),
            var_var=rng.randrange(8, 60),
            sources=rng.randrange(4, 20),
            sinks=rng.randrange(4, 16),
            structural=rng.randrange(0, 10),
            feedback=rng.choice((0.0, 0.2, 0.4)),
            max_depth=rng.randrange(1, 4)))


@pytest.mark.parametrize("label", EXPERIMENT_LABELS)
def test_random_systems(label):
    for seed, system in random_systems():
        order = seed % len(ORDER_SEEDS)
        assert_same(on_each_kernel(solved_state, system, label, order),
                    f"random system {seed}")


@pytest.mark.slow
@pytest.mark.parametrize("label", EXPERIMENT_LABELS)
def test_random_systems_budget_stops(label):
    for seed, system in random_systems():
        order = seed % len(ORDER_SEEDS)
        total = make_engine(system, label, order).run().stats.work
        assert_same(on_each_kernel(stops, system, label, order,
                                   max(1, total // RANDOM_STOPS)),
                    f"random system {seed}")


#: The Python functions a native solve without a sink may enter from
#: inside run_kernel: flat plans and decompose's pairs.
PYTHON_CALLBACKS = {"flat_plan", "_resolve_generic", "decompose"}


@pytest.mark.parametrize("label", ("SF-Online", "IF-Online"))
def test_no_python_frame_inside_run_kernel(label):
    """Hashing, set equality, the chain search and the cycle collapse
    all stay in C: a profile of each quick-suite solve sees no Python
    frame entered from the native kernel but the allowed callbacks."""
    run_kernel = native.kernel.run_kernel
    entered = set()
    depth = {"kernel": 0, "python": 0}

    def profile(frame, event, arg):
        if event == "c_call" and arg is run_kernel:
            depth["kernel"] += 1
        elif event in ("c_return", "c_exception") and arg is run_kernel:
            depth["kernel"] -= 1
        elif depth["kernel"] and event == "call":
            if depth["python"] == 0:
                entered.add(frame.f_code.co_name)
            depth["python"] += 1
        elif depth["kernel"] and event == "return":
            depth["python"] -= 1

    collapses = 0
    for benchmark in suite("quick"):
        for seed in ORDER_SEEDS:
            engine = SolverEngine(benchmark.program.system,
                                  options_for(label, seed=seed))
            # A collection could run gc.callbacks inside the kernel.
            collecting = gc.isenabled()
            gc.disable()
            sys.setprofile(profile)
            try:
                engine.run()
            finally:
                sys.setprofile(None)
                if collecting:
                    gc.enable()
            collapses += engine.stats.cycles_found
    assert collapses > 0
    assert entered <= PYTHON_CALLBACKS, entered - PYTHON_CALLBACKS
