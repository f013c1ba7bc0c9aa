"""Tests for the partial chain search (paper Figure 3)."""

from repro.graph import SearchMode, SolverStats, find_chain_path


def search(adjacency, start, target, ranks=None, mode=SearchMode.DECREASING,
           stats=None):
    n = len(adjacency)
    ranks = ranks if ranks is not None else list(range(n))
    stats = stats if stats is not None else SolverStats()
    return find_chain_path(
        adjacency,
        find=lambda v: v,
        rank=lambda v: ranks[v],
        start=start,
        target=target,
        mode=mode,
        stats=stats,
    )


class TestDecreasingSearch:
    def test_direct_edge(self):
        # 1 -> 0 with ranks equal to ids: decreasing.
        assert search([set(), {0}], start=1, target=0) == [1, 0]

    def test_two_step_chain(self):
        adjacency = [set(), {0}, {1}]
        assert search(adjacency, start=2, target=0) == [2, 1, 0]

    def test_start_equals_target(self):
        assert search([set()], start=0, target=0) == [0]

    def test_increasing_edge_not_followed(self):
        # 0 -> 1 but rank(1) > rank(0): blocked in decreasing mode.
        adjacency = [{1}, set()]
        assert search(adjacency, start=0, target=1) is None

    def test_partiality_longer_cycle_missed(self):
        # Chain 2 -> 0 -> 1: the step 0 -> 1 increases rank, so target
        # 1 is unreachable even though a path exists.
        adjacency = [{1}, set(), {0}]
        assert search(adjacency, start=2, target=1) is None

    def test_branching_finds_some_path(self):
        adjacency = [set(), {0}, {0}, {1, 2}]
        path = search(adjacency, start=3, target=0)
        assert path is not None
        assert path[0] == 3 and path[-1] == 0
        assert len(path) == 3

    def test_no_path(self):
        adjacency = [set(), set(), {1}]
        assert search(adjacency, start=2, target=0) is None

    def test_stale_entries_resolved_through_find(self):
        # Node 2's adjacency mentions 3, which has been collapsed to 0.
        adjacency = [set(), set(), {3}, set()]
        forward = {3: 0}
        stats = SolverStats()
        path = find_chain_path(
            adjacency,
            find=lambda v: forward.get(v, v),
            rank=lambda v: v,
            start=2,
            target=0,
            mode=SearchMode.DECREASING,
            stats=stats,
        )
        assert path == [2, 0]


class TestIncreasingSearch:
    def test_follows_increasing_only(self):
        adjacency = [{1}, {2}, set()]
        assert search(
            adjacency, start=0, target=2, mode=SearchMode.INCREASING
        ) == [0, 1, 2]

    def test_decreasing_edge_blocked(self):
        adjacency = [set(), {0}]
        assert search(
            adjacency, start=1, target=0, mode=SearchMode.INCREASING
        ) is None


class TestBudgetAndStats:
    def test_search_counted(self):
        stats = SolverStats()
        search([set(), {0}], start=1, target=0, stats=stats)
        assert stats.cycle_searches == 1
        assert stats.cycle_search_visits >= 1

    def test_failed_search_counts_visits(self):
        stats = SolverStats()
        adjacency = [set(), {0}, {1}]
        search(adjacency, start=2, target=99, stats=stats)
        assert stats.cycle_searches == 1
        assert stats.cycle_search_visits >= 2

    def test_visited_not_revisited(self):
        # Diamond: both branches reach 0; search must terminate and
        # visit each node at most once.
        adjacency = [set(), {0}, {0}, {1, 2}]
        stats = SolverStats()
        search(adjacency, start=3, target=99, stats=stats)
        assert stats.cycle_search_visits <= 4

    def test_empty_start_counts_one_visit(self):
        # A start with no neighbours: one search visiting only itself,
        # reported to a sink as for any failed search.
        events = []

        class Recorder:
            def search_start(self, start, target):
                events.append(("start", start, target))

            def search_visit(self, node):
                events.append(("visit", node))

            def search_end(self, found, visits, length):
                events.append(("end", found, visits, length))

        stats = SolverStats()
        path = find_chain_path(
            [set(), set()], find=lambda v: v, rank=lambda v: v, start=1,
            target=0, mode=SearchMode.DECREASING, stats=stats,
            sink=Recorder(),
        )
        assert path is None
        assert (stats.cycle_searches, stats.cycle_search_visits) == (1, 1)
        assert events == [
            ("start", 1, 0), ("visit", 1), ("end", False, 1, 0),
        ]
