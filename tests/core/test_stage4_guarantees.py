"""Stage-4 must preserve the Stage-2 no-overflow guarantee.

Regression tests for the fallback ladder in optimize_two_paths: when no
within-capacity alternative exists, the old (fitting) route must be kept
rather than a soft-cost overflowing detour.
"""

import pytest

from repro.core.two_path import _path_fits, optimize_two_paths
from repro.routing.tree import RouteTree
from repro.tilegraph import CapacityModel, TileGraph, wire_congestion_stats
from repro.geometry import Rect

INF = float("inf")


def _path_tree(tiles, name="n"):
    parent = {b: a for a, b in zip(tiles, tiles[1:])}
    return RouteTree.from_parent_map(tiles[0], parent, [tiles[-1]], net_name=name)


class TestPathFits:
    def test_empty_graph_fits(self, graph10):
        assert _path_fits(graph10, [(0, 0), (1, 0), (2, 0)])

    def test_full_edge_does_not_fit(self, graph10):
        graph10.add_wire((1, 0), (2, 0), 10)
        assert not _path_fits(graph10, [(0, 0), (1, 0), (2, 0)])

    def test_single_tile_path_fits(self, graph10):
        assert _path_fits(graph10, [(3, 3)])


class TestNoOverflowPreserved:
    def test_keeps_old_route_when_alternatives_overflow(self):
        # A narrow 3-row corridor: the net's own row is free, both
        # neighbor rows are saturated. No buffer sites anywhere means the
        # strict buffered search fails for L < length; the plain strict
        # path equals the old route or nothing; soft must NOT kick in.
        g = TileGraph(Rect(0, 0, 8, 3), 8, 3, CapacityModel.uniform(2))
        tree = _path_tree([(i, 1) for i in range(8)])
        tree.add_usage(g)
        for x in range(7):
            g.add_wire((x, 0), (x + 1, 0), 2)
            g.add_wire((x, 2), (x + 1, 2), 2)
        assert wire_congestion_stats(g).overflow == 0
        optimize_two_paths(g, tree, length_limit=3)
        tree.validate()
        assert wire_congestion_stats(g).overflow == 0

    def test_whole_stage4_run_keeps_zero_overflow(self):
        # Randomized mini-design: after a clean stage 1-3, stage 4 may
        # move wires but never into overflow.
        import numpy as np

        from repro.core import RabidConfig, RabidPlanner
        from repro.geometry import Point
        from repro.netlist import Net, Netlist, Pin

        rng = np.random.default_rng(11)
        g = TileGraph(Rect(0, 0, 10, 10), 10, 10, CapacityModel.uniform(3))
        for tile in g.tiles():
            g.set_sites(tile, 1)
        nets = []
        for i in range(8):
            a = Point(*(rng.uniform(0.2, 9.8, size=2)))
            b = Point(*(rng.uniform(0.2, 9.8, size=2)))
            nets.append(Net(name=f"n{i}", source=Pin(f"n{i}.s", a),
                            sinks=[Pin(f"n{i}.t", b)]))
        planner = RabidPlanner(
            g, Netlist(nets=nets),
            RabidConfig(length_limit=3, stage4_iterations=0),
        )
        planner.stage1()
        planner.stage2()
        planner.stage3()
        if wire_congestion_stats(g).overflow != 0:
            pytest.skip("stage 2 could not clear this random instance")
        planner.config.stage4_iterations = 2
        planner.stage4()
        assert wire_congestion_stats(g).overflow == 0
