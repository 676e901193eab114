"""Stage-4 two-path optimization."""

import pytest

from repro.core.two_path import _remove_loops, best_buffered_path, optimize_two_paths
from repro.routing.tree import RouteTree
from repro.tilegraph import wire_congestion_stats


def _path_tree(tiles, name="n"):
    parent = {b: a for a, b in zip(tiles, tiles[1:])}
    return RouteTree.from_parent_map(tiles[0], parent, [tiles[-1]], net_name=name)


class TestRemoveLoops:
    def test_no_loop_unchanged(self):
        p = [(0, 0), (1, 0), (2, 0)]
        assert _remove_loops(p) == p

    def test_simple_loop_removed(self):
        p = [(0, 0), (1, 0), (1, 1), (1, 0), (2, 0)]
        assert _remove_loops(p) == [(0, 0), (1, 0), (2, 0)]

    def test_nested_revisit(self):
        p = [(0, 0), (1, 0), (2, 0), (1, 0), (2, 0), (3, 0)]
        out = _remove_loops(p)
        assert out == [(0, 0), (1, 0), (2, 0), (3, 0)]
        assert len(out) == len(set(out))


class TestBestBufferedPath:
    def test_straight_path_when_clear(self, graph10_sites):
        window = (0, 0, 9, 9)
        path = best_buffered_path(
            graph10_sites, (0, 0), (4, 0),
            length_limit=3, forbidden=set(), window=window,
            edge_costs=graph10_sites.cost_cache().strict_costs(),
        )
        assert path is not None
        assert path[0] == (0, 0) and path[-1] == (4, 0)
        assert len(path) == 5

    def test_detours_around_siteless_gap(self, graph10):
        # Sites everywhere except a vertical band; L small forces buffers,
        # so the path must stay in site-rich territory.
        for tile in graph10.tiles():
            if tile[0] != 4:
                graph10.set_sites(tile, 2)
        window = (0, 0, 9, 9)
        path = best_buffered_path(
            graph10, (0, 0), (9, 0),
            length_limit=2, forbidden=set(), window=window,
            edge_costs=graph10.cost_cache().strict_costs(),
        )
        # Column 4 has no sites but the path can still cross it in one
        # step (j resets on either side); the path must exist.
        assert path is not None

    def test_respects_forbidden(self, graph10_sites):
        window = (0, 0, 9, 9)
        forbidden = {(1, 0), (1, 1)}
        path = best_buffered_path(
            graph10_sites, (0, 0), (2, 0),
            length_limit=3, forbidden=forbidden, window=window,
            edge_costs=graph10_sites.cost_cache().strict_costs(),
        )
        assert path is not None
        assert not (set(path) & forbidden)

    def test_unreachable_returns_none(self, graph10_sites):
        window = (0, 0, 9, 9)
        # Goal fenced off by forbidden tiles.
        forbidden = {(8, 9), (9, 8)}
        path = best_buffered_path(
            graph10_sites, (0, 0), (9, 9),
            length_limit=3, forbidden=forbidden, window=window,
            edge_costs=graph10_sites.cost_cache().strict_costs(),
        )
        assert path is None

    def test_no_sites_and_long_distance_returns_none(self, graph10):
        window = (0, 0, 9, 9)
        path = best_buffered_path(
            graph10, (0, 0), (9, 9),
            length_limit=3, forbidden=set(), window=window,
            edge_costs=graph10.cost_cache().strict_costs(),
        )
        assert path is None


class TestOptimizeTwoPaths:
    def test_reduces_wire_overflow(self, graph10_sites):
        # Saturate the straight corridor used by the net; stage 4 should
        # move the path off it.
        tree = _path_tree([(i, 0) for i in range(8)])
        tree.add_usage(graph10_sites)
        for x in range(8):
            graph10_sites.add_wire((x, 0), (x + 1, 0), 10)
        before = wire_congestion_stats(graph10_sites).overflow
        optimize_two_paths(graph10_sites, tree, length_limit=4)
        tree.validate()
        after = wire_congestion_stats(graph10_sites).overflow
        assert after < before

    def test_usage_stays_consistent(self, graph10_sites):
        tree = _path_tree([(i, 0) for i in range(8)])
        tree.add_usage(graph10_sites)
        optimize_two_paths(graph10_sites, tree, length_limit=4)
        # Rebuild usage from scratch; wire arrays must match.
        h, v = graph10_sites.h_usage.copy(), graph10_sites.v_usage.copy()
        graph10_sites.h_usage[:] = 0
        graph10_sites.v_usage[:] = 0
        tree.add_usage(graph10_sites)
        graph10_sites.used_sites[:] = 0
        assert (graph10_sites.h_usage == h).all()
        assert (graph10_sites.v_usage == v).all()

    def test_clears_buffer_annotations(self, graph10_sites):
        from repro.routing.tree import BufferSpec

        tree = _path_tree([(i, 0) for i in range(6)])
        tree.apply_buffers([BufferSpec((2, 0), None)])
        tree.add_usage(graph10_sites)
        graph10_sites.use_site((2, 0), -1)  # stage 4 rips buffers first
        optimize_two_paths(graph10_sites, tree, length_limit=4)
        assert tree.buffer_count() == 0

    def test_sinks_and_source_preserved(self, graph10_sites):
        paths = [
            [(0, 0), (1, 0), (2, 0), (3, 0)],
            [(2, 0), (2, 1), (2, 2)],
        ]
        tree = RouteTree.from_paths((0, 0), paths, [(3, 0), (2, 2)])
        tree.add_usage(graph10_sites)
        optimize_two_paths(graph10_sites, tree, length_limit=4)
        tree.validate()
        assert tree.source == (0, 0)
        assert tree.sink_tiles == [(2, 2), (3, 0)]
