"""Property-based tests: the rescue pass never corrupts bookkeeping.

Random dead-band instances (a siteless stripe of random width/position):
whatever the rescue outcome, the graph's wire and site usage must equal
the sum of the final trees' usage, capacities must hold for buffers, and
violations must never increase.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.assignment import assign_buffers_to_net
from repro.core.length_rule import length_violations
from repro.core.rescue import rescue_net
from repro.geometry import Rect
from repro.routing.tree import RouteTree
from repro.tilegraph import CapacityModel, TileGraph

SIZE = 12


@st.composite
def dead_band_instances(draw):
    band_start = draw(st.integers(2, 7))
    band_width = draw(st.integers(1, 4))
    band_height = draw(st.integers(4, SIZE))  # rows 0..band_height-1 dead
    L = draw(st.integers(2, 5))
    y = draw(st.integers(0, min(3, band_height - 1)))
    g = TileGraph(Rect(0, 0, SIZE, SIZE), SIZE, SIZE, CapacityModel.uniform(6))
    for tile in g.tiles():
        in_band = (
            band_start <= tile[0] < band_start + band_width
            and tile[1] < band_height
        )
        if not in_band:
            g.set_sites(tile, 2)
    tiles = [(i, y) for i in range(SIZE)]
    parent = {b: a for a, b in zip(tiles, tiles[1:])}
    tree = RouteTree.from_parent_map(tiles[0], parent, [tiles[-1]], net_name="n")
    return g, tree, L


class TestRescueProperties:
    @given(dead_band_instances())
    @settings(max_examples=40, deadline=None)
    def test_usage_always_consistent(self, instance):
        g, tree, L = instance
        tree.add_usage(g)
        assign_buffers_to_net(g, tree, L, None)
        new_tree, _ = rescue_net(g, tree, L, window_margin=12)
        h, v = g.h_usage.copy(), g.v_usage.copy()
        used = g.used_sites.copy()
        g.h_usage[:] = 0
        g.v_usage[:] = 0
        g.used_sites[:] = 0
        new_tree.add_usage(g)
        assert (g.h_usage == h).all()
        assert (g.v_usage == v).all()
        assert (g.used_sites == used).all()

    @given(dead_band_instances())
    @settings(max_examples=40, deadline=None)
    def test_violations_never_increase(self, instance):
        g, tree, L = instance
        tree.add_usage(g)
        assign_buffers_to_net(g, tree, L, None)
        before = length_violations(tree, L)
        new_tree, _ = rescue_net(g, tree, L, window_margin=12)
        assert length_violations(new_tree, L) <= before

    @given(dead_band_instances())
    @settings(max_examples=40, deadline=None)
    def test_endpoints_preserved(self, instance):
        g, tree, L = instance
        tree.add_usage(g)
        assign_buffers_to_net(g, tree, L, None)
        source, sinks = tree.source, tree.sink_tiles
        new_tree, _ = rescue_net(g, tree, L, window_margin=12)
        new_tree.validate()
        assert new_tree.source == source
        assert new_tree.sink_tiles == sinks

    @given(dead_band_instances())
    @settings(max_examples=40, deadline=None)
    def test_buffer_capacity_respected(self, instance):
        g, tree, L = instance
        tree.add_usage(g)
        assign_buffers_to_net(g, tree, L, None)
        rescue_net(g, tree, L, window_margin=12)
        assert (g.used_sites <= g.sites).all()
