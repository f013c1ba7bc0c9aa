"""Model-based property test for the graph's union-find."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import CreationOrder, SolverStats
from repro.graph.standard import StandardGraph

pytestmark = pytest.mark.slow


class NaivePartition:
    """Reference implementation: explicit set partition."""

    def __init__(self, size):
        self.sets = [{i} for i in range(size)]

    def _set_of(self, element):
        for index, members in enumerate(self.sets):
            if element in members:
                return index
        raise AssertionError

    def union_into(self, witness, absorbed):
        w_set = self._set_of(witness)
        a_set = self._set_of(absorbed)
        if w_set == a_set:
            return False
        self.sets[w_set] |= self.sets[a_set]
        del self.sets[a_set]
        return True

    def same(self, a, b):
        return self._set_of(a) == self._set_of(b)


@st.composite
def union_sequences(draw):
    size = draw(st.integers(2, 20))
    ops = draw(st.lists(
        st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)),
        max_size=40,
    ))
    return size, ops


def new_graph(size):
    return StandardGraph(size, CreationOrder(), SolverStats(),
                         emit=lambda op: None)


@given(union_sequences())
@settings(max_examples=100, deadline=None)
def test_matches_naive_partition(sequence):
    size, ops = sequence
    graph = new_graph(size)
    naive = NaivePartition(size)
    for witness, absorbed in ops:
        assert graph.alias(absorbed, witness) == naive.union_into(
            witness, absorbed
        )
    for a in range(size):
        for b in range(size):
            assert (graph.find(a) == graph.find(b)) == naive.same(a, b)


@given(union_sequences())
@settings(max_examples=100, deadline=None)
def test_representative_invariants(sequence):
    size, ops = sequence
    graph = new_graph(size)
    merged = 0
    for witness, absorbed in ops:
        root = graph.find(witness)
        if graph.alias(absorbed, witness):
            merged += 1
        # Absorbing never moves the witness's root: it stays the
        # representative of the merged set.
        assert graph.find(absorbed) == graph.find(witness) == root
    representatives = [
        var for var, parent in enumerate(graph.parent) if var == parent
    ]
    assert len(representatives) == size - merged
    for rep in representatives:
        assert graph.find(rep) == rep
