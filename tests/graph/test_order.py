"""Tests for variable orders and the rank list a graph keeps."""

from repro.graph import (
    CreationOrder,
    RandomOrder,
    ReverseCreationOrder,
    SolverStats,
)
from repro.graph.standard import StandardGraph


def graph_with(order, num_vars):
    return StandardGraph(num_vars, order, SolverStats(),
                         emit=lambda op: None)


class TestSpecs:
    def test_random_is_permutation(self):
        ranks = RandomOrder(seed=42).ranks(100)
        assert sorted(ranks) == list(range(100))

    def test_random_is_deterministic_in_seed(self):
        assert RandomOrder(7).ranks(50) == RandomOrder(7).ranks(50)

    def test_different_seeds_differ(self):
        assert RandomOrder(1).ranks(50) != RandomOrder(2).ranks(50)

    def test_random_is_actually_shuffled(self):
        ranks = RandomOrder(0).ranks(100)
        assert ranks != list(range(100))

    def test_creation_order(self):
        assert CreationOrder().ranks(4) == [0, 1, 2, 3]

    def test_reverse_creation_order(self):
        assert ReverseCreationOrder().ranks(4) == [3, 2, 1, 0]

    def test_names(self):
        assert "random" in RandomOrder(3).name
        assert CreationOrder().name == "creation"


class TestVariableOrder:
    def test_rank_lookup(self):
        graph = graph_with(CreationOrder(), 5)
        assert graph.ranks[3] == 3
        assert len(graph.ranks) == 5

    def test_late_variables_get_next_ranks(self):
        graph = graph_with(CreationOrder(), 3)
        graph.grow(8)
        assert graph.ranks[7] == 7
        assert len(graph.ranks) == 8

    def test_late_ranks_above_existing_random_ranks(self):
        graph = graph_with(RandomOrder(0), 10)
        assert graph.ranks == RandomOrder(0).ranks(10)
        graph.grow(11)
        late = graph.ranks[10]
        assert late == 10
        assert late >= max(graph.ranks[:10])
