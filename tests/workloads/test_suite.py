"""Tests for the benchmark suite."""

import pytest

from repro.workloads import (
    ALL_PROGRAMS,
    FULL_SUITE,
    MEDIUM_SUITE,
    QUICK_SUITE,
    benchmark,
    select_benchmarks,
    suite,
    suite_names,
)


class TestSuiteStructure:
    def test_quick_subset_of_medium_subset_of_full(self):
        quick = {c.name for c in QUICK_SUITE}
        medium = {c.name for c in MEDIUM_SUITE}
        full = {c.name for c in FULL_SUITE}
        assert quick <= medium <= full

    def test_sizes_monotone_in_full_suite(self):
        sizes = [c.functions for c in FULL_SUITE]
        assert sizes == sorted(sizes)

    def test_names_unique(self):
        names = [c.name for c in FULL_SUITE]
        assert len(names) == len(set(names))

    def test_spans_orders_of_magnitude(self):
        assert FULL_SUITE[-1].functions >= 50 * FULL_SUITE[0].functions

    def test_suite_names(self):
        assert suite_names("quick") == [c.name for c in QUICK_SUITE]

    def test_unknown_suite_rejected(self):
        with pytest.raises(KeyError):
            suite("nonexistent")

    def test_select_benchmarks_keeps_suite_order(self):
        assert select_benchmarks("quick") == suite("quick")
        picked = select_benchmarks("quick", ["ks", "allroots"])
        assert [bench.name for bench in picked] == ["allroots", "ks"]

    def test_select_benchmarks_names_what_is_missing(self):
        with pytest.raises(KeyError, match="not-here"):
            select_benchmarks("quick", ["allroots", "not-here"])

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(KeyError):
            benchmark("nonexistent")


class TestBenchmarkObjects:
    def test_lookup_cached(self):
        assert benchmark("allroots") is benchmark("allroots")

    def test_source_parses_lazily(self):
        bench = benchmark("allroots")
        assert bench.ast_nodes > 0
        assert bench.lines_of_code > 10

    def test_program_cached(self):
        bench = benchmark("allroots")
        assert bench.program is bench.program

    def test_program_has_variables(self):
        bench = benchmark("anagram")
        assert bench.program.system.num_vars > 50

    def test_quick_suite_materializes(self):
        benches = suite("quick")
        assert [b.name for b in benches] == suite_names("quick")


class TestHandPrograms:
    def test_all_parse(self):
        from repro.cfront import parse

        for name, source in ALL_PROGRAMS.items():
            unit = parse(source)
            assert unit.count_nodes() > 5, name

    def test_expected_names(self):
        assert {"figure5", "swap_cycle", "linked_list"} <= set(ALL_PROGRAMS)
