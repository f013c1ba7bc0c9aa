"""The closure kernel: fan-out entries, chunk splitting, flat plans.

The counter-identity gate (``repro.bench --baseline``) covers the
kernel end to end; these tests pin the edge cases it would only hit by
chance: a fan-out cut by a supervision boundary, checkpoints taken with
fan-outs pending, tags that are equal but not identical, and the pairs
that must still go through ``decompose``.

Each test class runs on the Python kernel; its ``...Native`` subclass
runs the same tests on the native kernel (:mod:`repro.solver.native`).
"""

import itertools

import pytest

from repro import ConstraintSystem, Variance
from repro.bench.measure import counters_of
from repro.constraints import DepthLimitError
from repro.constraints.resolution import decompose
from repro.experiments.config import options_for
from repro.graph import CreationOrder
from repro.graph.base import (
    OP_PRED_FAN,
    OP_RESOLVE,
    OP_SINK,
    OP_SOURCE,
    OP_SOURCE_FAN,
    OP_SOURCES_FAN,
    OP_SUCC_FAN,
    OP_VAR_VAR,
)
from repro.resilience import (
    CancellationToken,
    EngineCheckpoint,
    SolveBudget,
    capture,
    restore,
)
from repro.resilience.checkpoint import CHECKPOINT_VERSION
from repro.solver import SolverEngine, SolverOptions, SolveStatus
from repro.solver import engine as engine_module
from repro.solver import kernel as python_kernel
from repro.solver import native
from repro.workloads.generator import RandomSystemConfig, random_system

FAN_TAGS = (OP_SOURCE_FAN, OP_SOURCES_FAN, OP_SUCC_FAN, OP_PRED_FAN)
WORKLIST_TAGS = FAN_TAGS + (OP_SINK, OP_RESOLVE)
ONLINE_LABELS = ("SF-Online", "IF-Online")

native_only = pytest.mark.skipif(
    native.kernel is None,
    reason=f"native kernel unavailable: {native.build_error}")
NATIVE_KERNEL = native.kernel.run_kernel if native.kernel else None


class KernelCase:
    """Tests of one closure kernel, which the engine runs too."""

    run_kernel = staticmethod(python_kernel.run_kernel)

    @pytest.fixture(autouse=True)
    def _engine_kernel(self, monkeypatch):
        monkeypatch.setattr(engine_module, "run_kernel", self.run_kernel)


def make_system(seed=5):
    return random_system(RandomSystemConfig(
        seed=seed, variables=40, var_var=70, sources=20, feedback=0.35))


def uninterrupted(system, label):
    return counters_of(SolverEngine(system, options_for(label)).run())


def ops_so_far(engine):
    """Atomic operations executed: one per unit of Work, one per rr."""
    return engine.stats.work + engine.stats.resolutions


class TestChunkSplitting(KernelCase):
    def test_fan_out_split_at_limit(self):
        system = ConstraintSystem()
        atom = system.term(system.constructor("a"), label="a")
        targets = system.fresh_vars(3)
        engine = SolverEngine(system, SolverOptions(order=CreationOrder()))
        fan = tuple(var.index for var in targets)
        engine.pending.append((OP_SOURCE_FAN, atom, fan))
        assert self.run_kernel(engine, 2) == 2
        assert list(engine.pending) == [(OP_SOURCE_FAN, atom, fan[2:])]
        assert engine.stats.work == 2
        assert self.run_kernel(engine, 5) == 1
        assert not engine.pending
        assert engine.stats.work == 3

    def test_raising_member_leaves_the_rest_pending(self):
        """An exception inside a fan-out keeps the members after the
        raising one on the worklist, as their unit operations were."""
        from repro.trace import TraceSink

        class FailOn(TraceSink):
            def edge(self, kind, src, dst, outcome):
                if dst == fan[1]:
                    raise OSError("sink failed")

        system = ConstraintSystem()
        atom = system.term(system.constructor("a"), label="a")
        fan = tuple(var.index for var in system.fresh_vars(3))
        engine = SolverEngine(system, SolverOptions(
            order=CreationOrder(), sink=FailOn()))
        engine.pending.append((OP_SOURCE_FAN, atom, fan))
        with pytest.raises(OSError):
            self.run_kernel(engine, 10)
        assert list(engine.pending) == [(OP_SOURCE_FAN, atom, fan[2:])]
        assert engine.stats.work == 2

    @pytest.mark.parametrize("label", ONLINE_LABELS)
    def test_check_stride_one_splits_every_fan_out(self, label,
                                                   monkeypatch):
        """With ``check_stride=1`` every chunk is one operation, so a
        fan-out of k members is split k - 1 times."""
        splits = []

        def recording_kernel(engine, limit):
            head = engine.pending[0]
            done = self.run_kernel(engine, limit)
            assert limit == 1 and done == 1
            if head[0] in FAN_TAGS and len(head[2]) > 1:
                assert engine.pending[0] == (head[0], head[1], head[2][1:])
                splits.append(head)
            return done

        system = make_system()
        expected = uninterrupted(system, label)
        monkeypatch.setattr(engine_module, "run_kernel", recording_kernel)
        options = options_for(label, cancellation=CancellationToken(),
                              check_stride=1)
        got = counters_of(SolverEngine(system, options).run())
        assert splits, "no fan-out with two or more members was split"
        assert got == expected

    @pytest.mark.parametrize("label", ONLINE_LABELS)
    def test_stride_audits_land_every_n_operations(self, label,
                                                   monkeypatch):
        stride = 7
        audited_at = []
        real_audit = SolverEngine._run_audit

        def recording_audit(engine):
            audited_at.append(ops_so_far(engine))
            real_audit(engine)

        monkeypatch.setattr(SolverEngine, "_run_audit", recording_audit)
        system = make_system()
        engine = SolverEngine(
            system, options_for(label, audit=f"stride-{stride}"))
        got = counters_of(engine.run())
        total = ops_so_far(engine)
        # Every stride boundary before the end, then the final audit.
        assert audited_at == list(range(stride, total, stride)) + [total]
        assert got == uninterrupted(system, label)

    @pytest.mark.parametrize("label", ONLINE_LABELS)
    @pytest.mark.parametrize("cut", (1, 7, 50, 333))
    def test_budgeted_segments_resume_to_uninterrupted(self, label, cut):
        system = make_system()
        engine = SolverEngine(system, options_for(
            label, budget=SolveBudget(max_work=cut), on_budget="partial",
            check_stride=1))
        solution = engine.run()
        segments = 1
        while solution.is_partial:
            # A stride of one stops each segment at exactly `cut`.
            assert solution.stats.work == segments * cut
            solution = engine.resume()
            segments += 1
        assert segments > 1
        assert counters_of(solution) == uninterrupted(system, label)


def stop_with_fan_out_pending(system, label):
    """A partial engine whose worklist holds a multi-member fan-out."""
    for cut in range(5, 400, 5):
        engine = SolverEngine(system, options_for(
            label, budget=SolveBudget(max_work=cut), on_budget="partial",
            check_stride=1))
        engine.run()
        if engine.status is not SolveStatus.BUDGET_EXHAUSTED:
            break
        if any(tag in FAN_TAGS and len(second) > 1
               for tag, _, second in engine.pending):
            return engine
    pytest.fail("no cut left a multi-member fan-out pending")


class TestCheckpointWorklist(KernelCase):
    @pytest.mark.parametrize("label", ONLINE_LABELS)
    def test_worklist_round_trips(self, label):
        """A checkpoint stores the worklist as the engine holds it,
        multi-member fan-outs included."""
        system = make_system()
        engine = stop_with_fan_out_pending(system, label)
        checkpoint = capture(engine)
        assert checkpoint.version == CHECKPOINT_VERSION == 5
        restored = restore(
            system, options_for(label, checkpointable=True),
            EngineCheckpoint.from_bytes(checkpoint.to_bytes()))
        pending = list(restored.pending)
        assert all(tag in WORKLIST_TAGS for tag, _, _ in pending)
        assert pending == list(engine.pending)
        assert counters_of(restored.resume()) == uninterrupted(system, label)


class TestTagValues(KernelCase):
    @pytest.mark.parametrize("label", ONLINE_LABELS)
    def test_equal_but_not_identical_tags(self, label):
        """Unpickled tags are equal strings, not the module constants;
        the kernel must dispatch them the same way."""
        system = make_system()
        engine = stop_with_fan_out_pending(system, label)
        copied = []
        for tag, first, second in engine.pending:
            twin = "".join(list(tag))
            assert twin == tag and twin is not tag
            copied.append((twin, first, second))
        engine.pending.clear()
        engine.pending.extend(copied)
        solution = engine.resume()
        while solution.is_partial:
            solution = engine.resume()
        assert counters_of(solution) == uninterrupted(system, label)


def as_worklist_entries(atoms):
    """decompose's atoms as the kernel appends them: var-var and source
    insertions as fan-outs of one."""
    out = []
    for tag, left, right in atoms:
        if tag == OP_VAR_VAR:
            out.append((OP_SUCC_FAN, left.index, (right.index,)))
        elif tag == OP_SOURCE:
            out.append((OP_SOURCE_FAN, left, (right.index,)))
        else:
            out.append((OP_SINK, left.index, right))
    return out


class TestResolution(KernelCase):
    def test_every_flat_pair_matches_decompose(self):
        """Flat plans emit decompose's operations in decompose's order,
        and pairs with an argument clash fall back to it."""
        system = ConstraintSystem()
        f = system.constructor(
            "f", (Variance.COVARIANT, Variance.CONTRAVARIANT))
        a = system.constructor("a")
        b = system.constructor("b")
        x, y = system.fresh_vars(2)
        kinds = (x, y, system.zero, system.one, system.term(a, label=1),
                 system.term(a, label=2), system.term(b))
        engine = SolverEngine(system, SolverOptions())
        checked = 0
        for p, q, r, s in itertools.product(kinds, repeat=4):
            left = system.term(f, (p, q))
            right = system.term(f, (r, s))
            atoms, expected_diagnostics = [], []
            decompose(left, right, atoms, expected_diagnostics)
            before = len(engine.diagnostics)
            engine.pending.clear()
            engine.pending.append((OP_RESOLVE, left, right))
            assert self.run_kernel(engine, 1) == 1
            assert list(engine.pending) == \
                as_worklist_entries(atoms), (left, right)
            assert engine.diagnostics[before:] == expected_diagnostics
            checked += 1
        assert engine.stats.clashes == len(engine.diagnostics) > 0
        assert checked == len(kinds) ** 4

    @pytest.mark.parametrize("label", ONLINE_LABELS)
    def test_argument_clash_is_reported_and_rest_resolved(self, label):
        system = ConstraintSystem()
        f = system.constructor("f", (Variance.COVARIANT,) * 2)
        a, b = system.constructor("a"), system.constructor("b")
        x, y = system.fresh_vars(2)
        atom = system.term(system.constructor("c"), label="c")
        left = system.term(f, (system.term(a), x))
        right = system.term(f, (system.term(b), y))
        system.add(atom, x)
        system.add(left, right)
        solution = SolverEngine(system, options_for(label)).run()
        assert [d.kind for d in solution.diagnostics] == ["constructor-clash"]
        clash = solution.diagnostics[0]
        assert (clash.left, clash.right) == (system.term(a), system.term(b))
        assert solution.stats.clashes == 1
        assert solution.status is SolveStatus.INCONSISTENT
        # The clash does not stop the other argument: x <= y.
        assert solution.least_solution(y) == frozenset({atom})

    @pytest.mark.parametrize("label", ONLINE_LABELS)
    def test_constructor_mismatch_diagnostics(self, label):
        system = ConstraintSystem()
        f = system.constructor("f", (Variance.COVARIANT,))
        g = system.constructor("g", (Variance.COVARIANT,))
        x, y = system.fresh_vars(2)
        system.add(system.term(f, (x,)), system.term(g, (y,)))
        system.add(system.term(f, (x,)), system.zero)
        system.add(system.one, system.term(g, (y,)))
        solution = SolverEngine(system, options_for(label)).run()
        assert sorted(d.kind for d in solution.diagnostics) == [
            "constructor-clash", "nonempty-in-zero", "one-in-constructed"]
        assert solution.stats.clashes == 3

    @pytest.mark.parametrize("label", ONLINE_LABELS)
    def test_nested_terms_resolve_through_decompose(self, label):
        system = ConstraintSystem()
        f = system.constructor("f", (Variance.COVARIANT,))
        g = system.constructor("g", (Variance.CONTRAVARIANT,))
        x, y = system.fresh_vars(2)
        atom = system.term(system.constructor("c"), label="c")
        # f(g(y)) <= f(g(x)) gives g(y) <= g(x), then x <= y.
        system.add(system.term(f, (system.term(g, (y,)),)),
                   system.term(f, (system.term(g, (x,)),)))
        system.add(atom, x)
        solution = SolverEngine(system, options_for(label)).run()
        assert solution.ok
        assert solution.least_solution(y) == frozenset({atom})

    @pytest.mark.parametrize("label", ONLINE_LABELS)
    def test_depth_limit_error_from_nested_terms(self, label, monkeypatch):
        import repro.constraints.resolution as resolution

        monkeypatch.setattr(resolution, "MAX_TERM_DEPTH", 2)
        system = ConstraintSystem()
        f = system.constructor("f", (Variance.COVARIANT,))
        x, y = system.fresh_vars(2)
        deep_x, deep_y = x, y
        for _ in range(4):
            deep_x = system.term(f, (deep_x,))
            deep_y = system.term(f, (deep_y,))
        system.add(deep_x, deep_y)
        with pytest.raises(DepthLimitError):
            SolverEngine(system, options_for(label)).run()
        # A flat pair is depth 1, which any limit of 1 or more admits.
        monkeypatch.setattr(resolution, "MAX_TERM_DEPTH", 1)
        flat = ConstraintSystem()
        f = flat.constructor("f", (Variance.COVARIANT,))
        x, y = flat.fresh_vars(2)
        flat.add(flat.term(f, (x,)), flat.term(f, (y,)))
        assert SolverEngine(flat, options_for(label)).run().ok


@native_only
class TestChunkSplittingNative(TestChunkSplitting):
    run_kernel = staticmethod(NATIVE_KERNEL)


@native_only
class TestCheckpointWorklistNative(TestCheckpointWorklist):
    run_kernel = staticmethod(NATIVE_KERNEL)


@native_only
class TestTagValuesNative(TestTagValues):
    run_kernel = staticmethod(NATIVE_KERNEL)


@native_only
class TestResolutionNative(TestResolution):
    run_kernel = staticmethod(NATIVE_KERNEL)
