"""Goal-set variant of the buffered-label path search."""

import pytest

from repro.core.two_path import best_buffered_path


class TestGoalSet:
    def test_reaches_cheapest_goal(self, graph10_sites):
        window = (0, 0, 9, 9)
        goals = {(6, 0), (2, 0)}
        path = best_buffered_path(
            graph10_sites, (0, 0), goals,
            length_limit=4, forbidden=set(), window=window,
            edge_costs=graph10_sites.cost_cache().strict_costs(),
        )
        assert path is not None
        assert path[-1] == (2, 0)  # the nearer goal

    def test_start_in_goals_is_trivial(self, graph10_sites):
        window = (0, 0, 9, 9)
        path = best_buffered_path(
            graph10_sites, (3, 3), {(3, 3), (9, 9)},
            length_limit=4, forbidden=set(), window=window,
            edge_costs=graph10_sites.cost_cache().strict_costs(),
        )
        assert path == [(3, 3)]

    def test_single_tile_goal_still_works(self, graph10_sites):
        window = (0, 0, 9, 9)
        path = best_buffered_path(
            graph10_sites, (0, 0), (4, 0),
            length_limit=4, forbidden=set(), window=window,
            edge_costs=graph10_sites.cost_cache().strict_costs(),
        )
        assert path is not None and path[-1] == (4, 0)

    def test_forbidden_goal_member_still_reachable(self, graph10_sites):
        # A goal inside forbidden territory is still enterable (goals win).
        window = (0, 0, 9, 9)
        forbidden = {(2, 0), (1, 1)}
        path = best_buffered_path(
            graph10_sites, (0, 0), {(2, 0)},
            length_limit=4, forbidden=forbidden, window=window,
            edge_costs=graph10_sites.cost_cache().strict_costs(),
        )
        assert path is not None and path[-1] == (2, 0)

    def test_empty_reachability_returns_none(self, graph10):
        # No sites + goals beyond L: unreachable.
        window = (0, 0, 9, 9)
        path = best_buffered_path(
            graph10, (0, 0), {(9, 9)},
            length_limit=3, forbidden=set(), window=window,
            edge_costs=graph10.cost_cache().strict_costs(),
        )
        assert path is None
