"""Sink API contracts: null-sink overhead guard, event encoding, JSONL."""

import io
import json

import pytest

from repro import ConstraintSystem, Variance
from repro.bench.measure import counters_of
from repro.graph import CreationOrder
from repro.solver import CyclePolicy, GraphForm, SolverOptions, solve
from repro.trace import (
    NULL_SINK,
    CollectorSink,
    JsonlSink,
    TraceSink,
    read_jsonl,
)


def build_system(cycle_extra=0):
    """A small system with a 3-cycle plus some acyclic structure."""
    system = ConstraintSystem()
    box = system.constructor("box", (Variance.COVARIANT,))
    a, b, c, d, e = system.fresh_vars(5)
    system.add(a, b)
    system.add(b, c)
    system.add(c, a)
    system.add(c, d)
    system.add(d, e)
    system.add(system.term(box, (system.zero,), label="s"), a)
    system.add(e, system.term(box, (system.one,), label="t"))
    for _ in range(cycle_extra):
        extra = system.fresh_vars(1)[0]
        system.add(d, extra)
    return system


def options(sink=None, form=GraphForm.INDUCTIVE,
            cycles=CyclePolicy.ONLINE, **kw):
    return SolverOptions(form=form, cycles=cycles, order=CreationOrder(),
                         sink=sink, **kw)


ALL_CONFIGS = [
    (form, policy)
    for form in (GraphForm.STANDARD, GraphForm.INDUCTIVE)
    for policy in (CyclePolicy.NONE, CyclePolicy.ONLINE,
                   CyclePolicy.ORACLE, CyclePolicy.PERIODIC)
]


class TestOverheadGuard:
    """Attaching a sink must not change any deterministic counter."""

    @pytest.mark.parametrize(
        "form,policy", ALL_CONFIGS,
        ids=[f"{f.value}-{p.value}" for f, p in ALL_CONFIGS],
    )
    def test_counters_identical_with_and_without_sink(self, form, policy):
        from repro.metrics import MetricsRegistry, MetricsSink

        system = build_system()
        untraced = solve(system, options(form=form, cycles=policy))
        disabled_registry = MetricsRegistry()
        disabled_registry.disable()
        for sink in (
            NULL_SINK,
            CollectorSink(),
            JsonlSink(io.StringIO()),
            MetricsSink(MetricsRegistry(),
                        form=form.value, mode=policy.value),
            MetricsSink(disabled_registry,
                        form=form.value, mode=policy.value),
        ):
            traced = solve(
                system, options(sink=sink, form=form, cycles=policy)
            )
            assert counters_of(traced) == counters_of(untraced)

    def test_disabled_tracing_stores_no_sink(self):
        solution = solve(build_system(), options())
        assert solution.graph.sink is None

    def test_null_sink_accepts_every_event(self):
        sink = TraceSink()
        sink.edge("vv", 0, 1, "added")
        sink.resolve("l", "r")
        sink.clash(object())
        sink.search_start(0, 1)
        sink.search_visit(0)
        sink.search_end(True, 2, 3)
        sink.collapse(0, [0, 1])
        sink.sweep(2)
        sink.phase_begin("closure")
        sink.phase_end("closure")
        sink.close()


class TestBaselineIdentity:
    """A registered-but-disabled MetricsSink must not perturb counters.

    Solves the whole quick suite with a disabled
    :class:`~repro.metrics.sink.MetricsSink` attached to every solve,
    and demands the counters of every configuration equal
    ``benchmarks/BASELINE.json``'s, under whatever hash seed the test
    run has.
    """

    def test_disabled_metrics_counters_match_baseline(
        self, baseline_counters
    ):
        from repro.experiments.config import EXPERIMENT_LABELS, options_for
        from repro.metrics import MetricsRegistry, MetricsSink
        from repro.workloads import suite

        registry = MetricsRegistry()
        registry.disable()
        got = {}
        for bench in suite("quick"):
            for label in EXPERIMENT_LABELS:
                options = options_for(label, seed=0)
                sink = MetricsSink.for_options(
                    options, registry, suite="quick", benchmark=bench.name
                )
                solution = solve(
                    bench.program.system, options.replace(sink=sink)
                )
                got[bench.name, label] = counters_of(solution)
        assert got == baseline_counters


class TestEventStream:
    def test_collector_sees_search_collapse_and_phases(self):
        sink = CollectorSink()
        solution = solve(build_system(), options(sink=sink))
        names = [event.name for event in sink.events]
        assert "phase.begin" in names and "phase.end" in names
        assert "collapse" in names
        # Per-search bookkeeping matches the solver's own counters.
        stats = solution.stats
        assert names.count("search.start") == stats.cycle_searches
        assert names.count("search.visit") == stats.cycle_search_visits
        assert names.count("search.end") == stats.cycle_searches
        assert names.count("edge") == stats.work
        hits = [
            event for event in sink.events
            if event.name == "search.end" and event.args["found"]
        ]
        assert len(hits) == stats.cycles_found

    def test_edge_outcomes_mirror_work_accounting(self):
        sink = CollectorSink()
        solution = solve(build_system(), options(sink=sink))
        outcomes = {}
        for event in sink.events:
            if event.name == "edge":
                out = event.args["outcome"]
                outcomes[out] = outcomes.get(out, 0) + 1
        stats = solution.stats
        assert outcomes.get("redundant", 0) == stats.redundant
        assert outcomes.get("self", 0) == stats.self_edges

    def test_collapse_members_include_witness(self):
        sink = CollectorSink()
        solve(build_system(), options(sink=sink))
        collapses = [e for e in sink.events if e.name == "collapse"]
        assert collapses
        for event in collapses:
            assert event.args["witness"] in event.args["members"]
            assert len(event.args["members"]) > 1


class _Failure:
    """A stand-in for an audit failure / clash diagnostic."""

    kind = "mismatch"
    check = "acyclic"
    subject = 7
    detail = "v7 reaches itself"

    def __str__(self):
        return "v7 reaches itself"


#: One sample call per public TraceSink event method.
EVENT_SAMPLES = {
    "edge": ("vv", 1, 2, "added"),
    "resolve": ("box(s)", "box(t)"),
    "clash": (_Failure(),),
    "search_start": (0, 1),
    "search_visit": (3,),
    "search_end": (True, 2, 3),
    "collapse": (0, (0, 1, 2)),
    "sweep": (4,),
    "audit_failure": (_Failure(),),
    "budget_stop": ("work", 100.0, 101.0),
    "phase_begin": ("closure",),
    "phase_end": ("closure",),
}


class TestEventEncoding:
    """CollectorSink and JsonlSink encode every event identically."""

    def test_samples_cover_every_event_method(self):
        public = {
            name for name, value in vars(TraceSink).items()
            if callable(value) and not name.startswith("_")
        }
        assert public - {"close"} == set(EVENT_SAMPLES)

    @pytest.mark.parametrize("method", sorted(EVENT_SAMPLES))
    def test_jsonl_round_trip_equals_collector(self, method):
        collector = CollectorSink()
        buffer = io.StringIO()
        jsonl = JsonlSink(buffer)
        getattr(collector, method)(*EVENT_SAMPLES[method])
        getattr(jsonl, method)(*EVENT_SAMPLES[method])
        jsonl.close()
        buffer.seek(0)
        recorded = [(e.name, e.args) for e in collector.events]
        assert len(recorded) == 1
        assert [(e.name, e.args) for e in read_jsonl(buffer)] == recorded


class TestJsonl:
    def test_write_and_read_round_trip(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        sink = JsonlSink(path)
        solve(build_system(), options(sink=sink))
        sink.close()
        events = read_jsonl(path)
        assert events
        assert events[0].name == "phase.begin"
        assert {"edge", "collapse", "search.start"} <= {
            e.name for e in events
        }

    def test_bad_schema_rejected(self):
        source = io.StringIO('{"ev": "meta", "schema": 999}\n')
        with pytest.raises(ValueError, match="schema"):
            read_jsonl(source)

    def test_close_is_idempotent(self, tmp_path):
        sink = JsonlSink(str(tmp_path / "x.jsonl"))
        sink.close()
        sink.close()


class FailingFile(io.StringIO):
    """A text file whose writes start failing after ``fail_after`` calls."""

    def __init__(self, fail_after=0):
        super().__init__()
        self.writes = 0
        self.fail_after = fail_after

    def write(self, text):
        self.writes += 1
        if self.writes > self.fail_after:
            raise OSError(28, "No space left on device")
        return super().write(text)


class TestJsonlHardening:
    """I/O failure policy: never a partial line, never a corrupted run."""

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            JsonlSink(io.StringIO(), on_error="retry")

    def test_raise_policy_propagates_and_disables(self):
        target = FailingFile(fail_after=2)
        sink = JsonlSink(target)  # meta line = write 1
        sink.edge("vv", 0, 1, "added")  # write 2
        with pytest.raises(OSError):
            sink.edge("vv", 1, 2, "added")  # write 3 fails
        assert sink.disabled
        assert isinstance(sink.last_error, OSError)
        # Once disabled, further events are dropped silently.
        sink.edge("vv", 2, 3, "added")
        assert target.writes == 3

    def test_disable_policy_swallows_and_truncates(self):
        target = FailingFile(fail_after=2)
        sink = JsonlSink(target, on_error="disable")
        sink.edge("vv", 0, 1, "added")
        sink.edge("vv", 1, 2, "added")  # fails, swallowed
        sink.edge("vv", 2, 3, "added")  # dropped
        sink.close()
        assert sink.disabled
        assert sink.last_error is not None

    def test_no_partial_lines_ever(self):
        """Every line that reaches the file is complete, parseable JSON."""
        target = FailingFile(fail_after=3)
        sink = JsonlSink(target, on_error="disable")
        for i in range(10):
            sink.edge("vv", i, i + 1, "added")
        sink.close()
        content = target.getvalue()
        assert content.endswith("\n")
        for line in content.splitlines():
            json.loads(line)  # must not raise

    def test_disable_policy_run_completes(self):
        """A dying trace target must not take the solve down with it."""
        system = build_system()
        sink = JsonlSink(FailingFile(fail_after=5), on_error="disable")
        options = SolverOptions(form=GraphForm.INDUCTIVE,
                                cycles=CyclePolicy.ONLINE, sink=sink)
        solution = solve(system, options)
        assert solution.ok
        assert sink.disabled

    def test_close_is_idempotent(self):
        sink = JsonlSink(io.StringIO())
        sink.close()
        sink.close()  # must not raise

    def test_failing_close_respects_policy(self):
        class CloseFails(io.StringIO):
            def flush(self):
                raise OSError(5, "I/O error")

        sink = JsonlSink(CloseFails(), on_error="disable")
        sink.close()  # swallowed
        assert sink.disabled
        raising = JsonlSink(CloseFails())
        with pytest.raises(OSError):
            raising.close()
