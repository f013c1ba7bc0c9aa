"""Tests for variable orders and the rank list a graph keeps."""

import hashlib
import random

import pytest

from repro.graph import (
    CreationOrder,
    RandomOrder,
    ReverseCreationOrder,
    SolverStats,
)
from repro.graph.order import shuffled_ranks
from repro.graph.standard import StandardGraph
from repro.solver import native

#: SHA-256 of the comma-joined ranks of random.Random(seed).shuffle, by
#: (seed, number of variables).  The native kernel draws the same words
#: from the same generator; a CPython whose shuffle drew differently
#: would change the Python ranks and fail here before the two split.
PINNED_RANKS = {
    (0, 0):
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    (0, 1):
        "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
    (0, 2):
        "83b97b859aa5f81b2f0f86ba2a675efaf515ad2d5e2b8652cf2de7e1c2267350",
    (0, 1000):
        "a91899f3fd9f4f870d3b246c2170b5e86e251c05aedff38862f78e14d22591d1",
    (7919, 0):
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    (7919, 1):
        "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
    (7919, 2):
        "83b97b859aa5f81b2f0f86ba2a675efaf515ad2d5e2b8652cf2de7e1c2267350",
    (7919, 1000):
        "9df3c9d52fb72e06942d64d670d54beaa467ca382ac5304cc7b8761e2e68d19e",
    (2 ** 40 + 3, 0):
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    (2 ** 40 + 3, 1):
        "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
    (2 ** 40 + 3, 2):
        "b0e4f9bb7b55e4b181760ae93c958c14b451a7556206dfa952d81f0f2165a9da",
    (2 ** 40 + 3, 1000):
        "510b3b3286f57434b655bc48b97014b0e2016350139dd72c43c266d71b331073",
    ("abc", 0):
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("abc", 1):
        "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
    ("abc", 2):
        "83b97b859aa5f81b2f0f86ba2a675efaf515ad2d5e2b8652cf2de7e1c2267350",
    ("abc", 1000):
        "7396ab0c11e8d180c72b0af75c942b0111d5fc337f2b6b302cb6bfd510b6f04e",
}


def digest(ranks):
    return hashlib.sha256(",".join(map(str, ranks)).encode()).hexdigest()


@pytest.mark.parametrize("seed, num_vars", sorted(PINNED_RANKS, key=repr))
class TestPinnedRanks:
    def test_shuffle(self, seed, num_vars):
        assert digest(shuffled_ranks(seed, num_vars)) == \
            PINNED_RANKS[seed, num_vars]

    @pytest.mark.skipif(native.kernel is None,
                        reason=f"native kernel unavailable: "
                               f"{native.build_error}")
    def test_native(self, seed, num_vars):
        ranks = native.kernel.random_ranks(
            random.Random(seed).getrandbits, num_vars)
        assert digest(ranks) == PINNED_RANKS[seed, num_vars]

    def test_random_order(self, seed, num_vars):
        assert digest(RandomOrder(seed).ranks(num_vars)) == \
            PINNED_RANKS[seed, num_vars]


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
