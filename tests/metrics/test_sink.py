"""MetricsSink: aggregated instruments must mirror SolverStats."""

from repro import ConstraintSystem, Variance
from repro.graph import CreationOrder
from repro.metrics import MetricsRegistry, MetricsSink
from repro.solver import CyclePolicy, GraphForm, SolverOptions, solve


def build_system():
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
    return system


def options(sink, form=GraphForm.INDUCTIVE, cycles=CyclePolicy.ONLINE):
    return SolverOptions(form=form, cycles=cycles, order=CreationOrder(),
                         sink=sink)


def value_of(registry, name, **labels):
    for family in registry.collect():
        if family.name != name:
            continue
        total = 0.0
        for values, child in family.series():
            row = dict(zip(family.labelnames, values))
            if all(row.get(k) == v for k, v in labels.items()):
                total += child.to_value()
        return total
    raise AssertionError(f"no family named {name}")


class TestSinkMirrorsStats:
    def solve_with_sink(self, cycles=CyclePolicy.ONLINE):
        registry = MetricsRegistry()
        opts = options(None, cycles=cycles)
        sink = MetricsSink.for_options(opts, registry, suite="s",
                                       benchmark="b")
        solution = solve(build_system(), opts.replace(sink=sink))
        return registry, solution.stats

    def test_work_equals_edge_total(self):
        registry, stats = self.solve_with_sink()
        assert value_of(registry,
                        "repro_solver_edges_total") == stats.work

    def test_search_counters(self):
        registry, stats = self.solve_with_sink()
        assert value_of(
            registry, "repro_solver_searches_total"
        ) == stats.cycle_searches
        assert value_of(
            registry, "repro_solver_search_hits_total"
        ) == stats.cycles_found

    def test_search_visit_histogram_sum(self):
        registry, stats = self.solve_with_sink()
        for family in registry.collect():
            if family.name == "repro_solver_search_visits":
                (values, child), = family.series()
                assert child.sum == stats.cycle_search_visits
                assert child.count == stats.cycle_searches
                return
        raise AssertionError("search visits histogram missing")

    def test_vars_eliminated(self):
        registry, stats = self.solve_with_sink()
        assert value_of(
            registry, "repro_solver_vars_eliminated_total"
        ) == stats.vars_eliminated

    def test_base_labels_applied(self):
        registry, _ = self.solve_with_sink()
        family = next(
            f for f in registry.collect()
            if f.name == "repro_solver_searches_total"
        )
        (values, _), = family.series()
        row = dict(zip(family.labelnames, values))
        assert row["form"] == GraphForm.INDUCTIVE.value
        assert row["mode"] == CyclePolicy.ONLINE.value
        assert row["suite"] == "s"
        assert row["benchmark"] == "b"

    def test_disabled_registry_accumulates_nothing(self):
        registry = MetricsRegistry()
        registry.disable()
        opts = options(None)
        sink = MetricsSink.for_options(opts, registry)
        solve(build_system(), opts.replace(sink=sink))
        for family in registry.collect():
            for _, child in family.series():
                value = getattr(child, "value", None)
                if value is not None:
                    assert value == 0.0
                else:
                    assert child.count == 0

    def test_exposition_of_live_run_is_valid(self):
        from repro.metrics import validate_exposition

        registry, _ = self.solve_with_sink()
        assert validate_exposition(registry.expose()) == []

    def test_budget_stop_counter(self):
        registry = MetricsRegistry()
        sink = MetricsSink(registry, form="f", mode="m")
        sink.budget_stop("work", 100.0, 101.0)
        sink.budget_stop("work", 100.0, 102.0)
        assert value_of(
            registry, "repro_solver_budget_stops_total", reason="work"
        ) == 2

    def test_audit_failure_counter(self):
        class Failure:
            check = "acyclic"

        registry = MetricsRegistry()
        sink = MetricsSink(registry)
        sink.audit_failure(Failure())
        assert value_of(
            registry, "repro_solver_audit_failures_total"
        ) == 1


class TestPerRunViews:
    """Summaries read the sink's own label series, not the registry's."""

    def test_shared_registry_keeps_runs_apart(self):
        registry = MetricsRegistry()
        summaries = {}
        for cycles in (CyclePolicy.NONE, CyclePolicy.ONLINE):
            opts = options(None, cycles=cycles)
            sink = MetricsSink.for_options(
                opts, registry, suite="s", benchmark="b",
                label=cycles.value,
            )
            stats = solve(build_system(), opts.replace(sink=sink)).stats
            summaries[cycles] = (sink.summary(), stats)
        for summary, stats in summaries.values():
            assert sum(summary["edge_outcomes"].values()) == stats.work
            assert summary["searches"] == stats.cycle_searches
        assert value_of(registry, "repro_solver_edges_total") == sum(
            stats.work for _, stats in summaries.values()
        )
        assert summaries[CyclePolicy.ONLINE][0]["label"] == "online"

    def test_disabled_registry_records_no_spans(self):
        registry = MetricsRegistry()
        registry.disable()
        sink = MetricsSink(registry)
        solve(build_system(), options(sink))
        assert sink.spans == []
        assert sink.summary()["searches"] == 0
