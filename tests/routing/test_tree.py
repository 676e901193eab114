"""RouteTree topology, buffers, usage, and two-path surgery."""

import gc
import weakref

import pytest

from repro.errors import RoutingError
from repro.routing.tree import BufferSpec, RouteTree


def path(*tiles):
    return list(tiles)


class TestConstruction:
    def test_from_parent_map_path(self, path_tree_factory):
        t = path_tree_factory([(0, 0), (1, 0), (2, 0)])
        assert t.source == (0, 0)
        assert t.sink_tiles == [(2, 0)]
        assert t.num_edges() == 2
        t.validate()

    def test_from_parent_map_prunes_stubs(self):
        parent = {(1, 0): (0, 0), (2, 0): (1, 0), (1, 1): (1, 0)}
        t = RouteTree.from_parent_map((0, 0), parent, [(2, 0)])
        assert (1, 1) not in t  # dangling branch pruned
        t.validate()

    def test_from_parent_map_disconnected_sink(self):
        with pytest.raises(RoutingError):
            RouteTree.from_parent_map((0, 0), {}, [(3, 3)])

    def test_from_paths_merges(self):
        paths = [
            path((0, 0), (1, 0), (2, 0)),
            path((0, 0), (1, 0), (1, 1)),
        ]
        t = RouteTree.from_paths((0, 0), paths, [(2, 0), (1, 1)])
        assert len(t.nodes) == 4
        t.validate()

    def test_from_paths_handles_cycles(self):
        # Two paths forming a loop; BFS extracts a tree.
        paths = [
            path((0, 0), (1, 0), (1, 1)),
            path((0, 0), (0, 1), (1, 1)),
        ]
        t = RouteTree.from_paths((0, 0), paths, [(1, 1)])
        t.validate()
        assert t.num_edges() == len(t.nodes) - 1

    def test_from_paths_rejects_non_adjacent(self):
        with pytest.raises(RoutingError):
            RouteTree.from_paths((0, 0), [path((0, 0), (2, 0))], [(2, 0)])

    def test_from_paths_unreached_sink(self):
        with pytest.raises(RoutingError):
            RouteTree.from_paths((0, 0), [path((0, 0), (1, 0))], [(5, 5)])

    def test_single_tile_net(self):
        t = RouteTree.from_paths((0, 0), [], [(0, 0)])
        assert t.num_edges() == 0
        assert t.root.is_sink


class TestTraversal:
    def test_postorder_children_first(self, path_tree_factory):
        t = path_tree_factory([(0, 0), (1, 0), (2, 0)])
        order = [n.tile for n in t.postorder()]
        assert order == [(2, 0), (1, 0), (0, 0)]

    def test_preorder_root_first(self, path_tree_factory):
        t = path_tree_factory([(0, 0), (1, 0), (2, 0)])
        assert [n.tile for n in t.preorder()] == [(0, 0), (1, 0), (2, 0)]

    def test_wirelength(self, graph10, path_tree_factory):
        t = path_tree_factory([(0, 0), (1, 0), (1, 1)])
        assert t.wirelength_tiles() == 2
        assert t.wirelength_mm(graph10) == pytest.approx(2.0)


class TestBuffers:
    def test_apply_and_count(self, path_tree_factory):
        t = path_tree_factory([(0, 0), (1, 0), (2, 0), (3, 0)])
        t.apply_buffers([BufferSpec((1, 0), None), BufferSpec((2, 0), None)])
        assert t.buffer_count() == 2
        specs = t.buffer_specs()
        assert [s.tile for s in specs] == [(1, 0), (2, 0)]

    def test_decoupling_buffer_needs_child(self, path_tree_factory):
        t = path_tree_factory([(0, 0), (1, 0)])
        with pytest.raises(RoutingError):
            t.apply_buffers([BufferSpec((0, 0), drives_child=(5, 5))])

    def test_apply_clears_previous(self, path_tree_factory):
        t = path_tree_factory([(0, 0), (1, 0), (2, 0)])
        t.apply_buffers([BufferSpec((1, 0), None)])
        t.apply_buffers([])
        assert t.buffer_count() == 0

    def test_multiple_buffers_same_tile(self):
        # Trunk + decoupling at the same node (paper Fig. 8(b)).
        paths = [path((1, 0), (1, 1), (0, 1)), path((1, 0), (1, 1), (2, 1))]
        t = RouteTree.from_paths((1, 0), paths, [(0, 1), (2, 1)])
        t.apply_buffers(
            [BufferSpec((1, 1), None), BufferSpec((1, 1), (0, 1))]
        )
        assert t.buffer_count() == 2
        assert t.node((1, 1)).trunk_buffer
        assert (0, 1) in t.node((1, 1)).decoupled_children


class TestUsage:
    def test_add_remove_roundtrip(self, graph10_sites, path_tree_factory):
        t = path_tree_factory([(0, 0), (1, 0), (2, 0)])
        t.apply_buffers([BufferSpec((1, 0), None)])
        t.add_usage(graph10_sites)
        assert graph10_sites.wire_usage((0, 0), (1, 0)) == 1
        assert graph10_sites.used_site_count((1, 0)) == 1
        t.remove_usage(graph10_sites)
        assert graph10_sites.wire_usage((0, 0), (1, 0)) == 0
        assert graph10_sites.total_used_sites == 0


class TestTwoPaths:
    def _y_tree(self):
        paths = [
            path((0, 0), (1, 0), (2, 0), (3, 0), (3, 1)),
            path((2, 0), (2, 1), (2, 2)),
        ]
        return RouteTree.from_paths((0, 0), paths, [(3, 1), (2, 2)])

    def test_decomposition_covers_all_edges(self):
        t = self._y_tree()
        paths = t.two_paths()
        edge_count = sum(len(p) - 1 for p in paths)
        assert edge_count == t.num_edges()

    def test_endpoints_are_special(self):
        t = self._y_tree()
        for p in t.two_paths():
            head = t.node(p[0])
            tail = t.node(p[-1])
            for node in (head, tail):
                assert (
                    node is t.root or node.is_sink or len(node.children) >= 2
                )
            # interior is plain degree-2
            for tile in p[1:-1]:
                node = t.node(tile)
                assert len(node.children) == 1 and not node.is_sink

    def test_replace_two_path_same_endpoints(self):
        t = self._y_tree()
        old = [(0, 0), (1, 0), (2, 0)]
        new = [(0, 0), (0, 1), (1, 1), (2, 1)]
        with pytest.raises(RoutingError):
            t.replace_two_path(old, new)  # different tail

    def test_replace_two_path_rewires(self, path_tree_factory):
        t = path_tree_factory([(0, 0), (1, 0), (2, 0), (3, 0)])
        old = [(0, 0), (1, 0), (2, 0), (3, 0)]
        new = [(0, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 0)]
        t.replace_two_path(old, new)
        t.validate()
        assert (1, 0) not in t
        assert (1, 1) in t
        assert t.sink_tiles == [(3, 0)]

    def test_replace_two_path_frees_dropped_nodes(self, path_tree_factory):
        """Dropped interior nodes are unlinked, so reference counting frees
        them without waiting for the cycle collector."""
        t = path_tree_factory([(0, 0), (1, 0), (2, 0), (3, 0)])
        dropped = [weakref.ref(t.node((1, 0))), weakref.ref(t.node((2, 0)))]
        gc.disable()
        try:
            t.replace_two_path(
                [(0, 0), (1, 0), (2, 0), (3, 0)],
                [(0, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 0)],
            )
            assert [ref() for ref in dropped] == [None, None]
        finally:
            gc.enable()
        t.validate()

    def test_replace_collision_rejected(self):
        t = self._y_tree()
        old = [(2, 0), (2, 1), (2, 2)]
        # Attempt to route through (3, 0), which the other branch uses.
        new = [(2, 0), (3, 0), (3, 1), (2, 1), (2, 2)]
        with pytest.raises(RoutingError):
            t.replace_two_path(old, new)

    def test_replace_identical_is_noop(self, path_tree_factory):
        t = path_tree_factory([(0, 0), (1, 0), (2, 0)])
        old = [(0, 0), (1, 0), (2, 0)]
        t.replace_two_path(old, list(old))
        t.validate()
        assert t.num_edges() == 2
