"""Tests for the Steensgaard baseline and its relation to Andersen."""

import pytest

from repro.andersen import (
    LocationKind,
    analyze_source,
    analyze_unit_steensgaard,
    solve_points_to,
)
from repro.cfront import parse
from repro.workloads import ALL_PROGRAMS


#: Programs where Steensgaard once fell short of Andersen: a call's
#: array member must decay, enumerators are integer constants (not
#: implicitly declared variables that alias whatever flows through
#: them), and a unary operator's operand is still walked.
COARSENESS_EXTRAS = {
    "decay_through_call": (
        "struct buf { int data[8]; } g;"
        "struct buf *get(void) { return &g; } int *p;"
        "int main(void) { p = get()->data; return 0; }"
    ),
    "enum_constants": (
        "enum { NONE }; int x; int *p, *q;"
        "int main(void) { p = NONE; q = NONE; p = &x; return 0; }"
    ),
    "assignment_under_not": (
        "int *p;"
        "int main(void) { if (!(p = (int *)malloc(4))) return 1; return 0; }"
    ),
}
COARSENESS_PROGRAMS = dict(ALL_PROGRAMS, **COARSENESS_EXTRAS)


def steensgaard(source):
    return analyze_unit_steensgaard(parse(source))


class TestBasics:
    def test_address_of(self):
        result = steensgaard(
            "int x; int *p; int main(void) { p = &x; return 0; }"
        )
        assert result.points_to_named("p") == {"x"}

    def test_unification_merges_both_ways(self):
        # q = p unifies the pointees: unlike Andersen, p also sees y.
        result = steensgaard(
            "int x, y; int *p, *q;"
            "int main(void) { p = &x; q = &y; q = p; return 0; }"
        )
        assert result.points_to_named("q") == {"x", "y"}
        assert result.points_to_named("p") == {"x", "y"}

    def test_store_through_pointer(self):
        result = steensgaard(
            "int y; int *p; int **pp;"
            "int main(void) { pp = &p; *pp = &y; return 0; }"
        )
        assert result.points_to_named("p") == {"y"}

    def test_call_flows(self):
        result = steensgaard(
            "int x; void sink(int *a) { }"
            "int main(void) { sink(&x); return 0; }"
        )
        assert result.points_to_named("sink::a") == {"x"}

    def test_return_flows(self):
        result = steensgaard(
            "int x; int *get(void) { return &x; } int *p;"
            "int main(void) { p = get(); return 0; }"
        )
        assert "x" in result.points_to_named("p")

    def test_heap_location(self):
        result = steensgaard(
            "int *p; int main(void) { p = (int *)malloc(4); return 0; }"
        )
        assert result.points_to_named("p") == {"heap@1"}

    def test_empty_for_unassigned(self):
        result = steensgaard("int *p; int main(void) { return 0; }")
        assert result.points_to_named("p") == set()


class TestCoarseness:
    """Steensgaard must be a (possibly equal) over-approximation of
    Andersen on every location — the SH97 relationship."""

    @pytest.mark.parametrize("name", sorted(COARSENESS_PROGRAMS))
    def test_superset_of_andersen(self, name):
        source = COARSENESS_PROGRAMS[name]
        andersen = solve_points_to(analyze_source(source))
        unification = steensgaard(source)

        # One walker gives both analyses the same program model: the
        # same variables, parameters, functions, heap sites and strings.
        def model(locations):
            return sorted((loc.name, loc.kind.value) for loc in locations)

        assert model(unification.locations) == model(
            andersen.program.locations
        )
        for location in andersen.program.locations:
            if location.kind is LocationKind.FUNCTION:
                # Andersen models a function location as containing its
                # own lambda term; Steensgaard keeps signatures apart
                # from pointees, so the encodings are not comparable.
                continue
            fine = {
                target.name for target in andersen.points_to(location)
                if target.kind is not LocationKind.FUNCTION
            }
            coarse_loc = unification.locations.by_name(location.name)
            coarse = {
                t.name for t in unification.points_to(coarse_loc)
            }
            missing = fine - coarse
            assert not missing, (location.name, fine, coarse)

    def test_strictly_coarser_example(self):
        source = (
            "int x, y; int *p, *q;"
            "int main(void) { p = &x; q = &y; q = p; return 0; }"
        )
        andersen = solve_points_to(analyze_source(source))
        unification = steensgaard(source)
        assert andersen.points_to_named("p") == {"x"}
        assert unification.points_to_named("p") == {"x", "y"}

    def test_average_set_size_not_smaller(self):
        source = ALL_PROGRAMS["swap_cycle"]
        andersen = solve_points_to(analyze_source(source))
        unification = steensgaard(source)
        assert (
            unification.average_set_size()
            >= andersen.average_set_size() - 1e-9
        )
