"""Tests for the graph's union-find: forwarding onto explicit witnesses."""

from repro.graph import CreationOrder, SolverStats
from repro.graph.inductive import InductiveGraph


def new_graph(num_vars):
    return InductiveGraph(num_vars, CreationOrder(), SolverStats(),
                          emit=lambda op: None)


def representatives(graph):
    return [var for var, parent in enumerate(graph.parent) if var == parent]


class TestBasics:
    def test_initially_self_representative(self):
        graph = new_graph(5)
        assert graph.parent == [0, 1, 2, 3, 4]
        assert all(graph.find(i) == i for i in range(5))

    def test_union_into_witness(self):
        graph = new_graph(5)
        assert graph.alias(4, 2)
        assert graph.find(4) == 2
        assert graph.find(2) == 2

    def test_union_same_set_returns_false(self):
        graph = new_graph(5)
        assert graph.alias(1, 0)
        before = list(graph.parent)
        # Aliasing members of one set again changes nothing.
        assert not graph.alias(1, 0)
        assert not graph.alias(0, 1)
        assert graph.parent == before

    def test_union_through_non_representatives(self):
        graph = new_graph(6)
        graph.alias(1, 0)
        graph.alias(3, 2)
        # Alias via the absorbed members: roots 2 and 0 are linked.
        graph.alias(3, 1)
        assert graph.find(3) == 0
        assert graph.find(2) == 0

    def test_representatives_iteration(self):
        graph = new_graph(4)
        graph.alias(3, 0)
        assert representatives(graph) == [0, 1, 2]

    def test_grow(self):
        graph = new_graph(2)
        graph.grow(5)
        assert len(graph.parent) == 5
        assert graph.find(4) == 4

    def test_grow_is_monotone(self):
        graph = new_graph(5)
        graph.grow(3)  # shrink request ignored
        assert len(graph.parent) == 5
        assert len(graph.ranks) == 5

    def test_path_compression_flattens(self):
        graph = new_graph(10)
        for i in range(9):
            graph.alias(i, i + 1)  # chain 9 <- 8 <- ... <- 0
        assert graph.parent[0] == 1
        assert graph.find(0) == 9
        # After compression, every parent pointer on the chain is direct.
        assert graph.parent[:9] == [9] * 9

    def test_deep_chain_no_recursion(self):
        n = 50_000
        graph = new_graph(n)
        for i in range(n - 1):
            graph.alias(i, i + 1)
        assert graph.find(0) == n - 1
