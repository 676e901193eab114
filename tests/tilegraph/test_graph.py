"""TileGraph geometry, edges, and usage accounting."""

import pytest

from repro.errors import ConfigurationError
from repro.geometry import Point, Rect
from repro.tilegraph import CapacityModel, TileGraph


class TestConstruction:
    def test_basic_dimensions(self, graph10):
        assert graph10.num_tiles == 100
        assert graph10.tile_w == pytest.approx(1.0)
        assert graph10.tile_area_mm2 == pytest.approx(1.0)
        assert graph10.num_edges == 9 * 10 * 2

    def test_bad_grid_rejected(self, die10):
        with pytest.raises(ConfigurationError):
            TileGraph(die10, 0, 5)

    def test_single_tile_graph(self, die10):
        g = TileGraph(die10, 1, 1)
        assert g.num_edges == 0
        assert list(g.tiles()) == [(0, 0)]

    def test_nonsquare_tiles(self):
        g = TileGraph(Rect(0, 0, 12, 6), 4, 3)
        assert g.tile_w == pytest.approx(3.0)
        assert g.tile_h == pytest.approx(2.0)
        assert g.edge_length_mm((0, 0), (1, 0)) == pytest.approx(3.0)
        assert g.edge_length_mm((0, 0), (0, 1)) == pytest.approx(2.0)


class TestGeometry:
    def test_tile_of_interior(self, graph10):
        assert graph10.tile_of(Point(0.5, 0.5)) == (0, 0)
        assert graph10.tile_of(Point(9.9, 0.1)) == (9, 0)

    def test_tile_of_clamps_outside(self, graph10):
        assert graph10.tile_of(Point(-5, -5)) == (0, 0)
        assert graph10.tile_of(Point(50, 50)) == (9, 9)

    def test_tile_of_boundary(self, graph10):
        # The die's far corner maps to the last tile, not an off-grid one.
        assert graph10.tile_of(Point(10.0, 10.0)) == (9, 9)

    def test_center_roundtrip(self, graph10):
        for tile in [(0, 0), (3, 7), (9, 9)]:
            assert graph10.tile_of(graph10.tile_center(tile)) == tile

    def test_tile_rect(self, graph10):
        r = graph10.tile_rect((2, 3))
        assert (r.x0, r.y0, r.x1, r.y1) == (2, 3, 3, 4)

    def test_neighbors_interior(self, graph10):
        assert set(graph10.neighbors((5, 5))) == {(6, 5), (4, 5), (5, 6), (5, 4)}

    def test_neighbors_corner(self, graph10):
        assert set(graph10.neighbors((0, 0))) == {(1, 0), (0, 1)}
        assert set(graph10.neighbors((9, 9))) == {(8, 9), (9, 8)}

    def test_in_bounds(self, graph10):
        assert graph10.in_bounds((0, 0)) and graph10.in_bounds((9, 9))
        assert not graph10.in_bounds((10, 0)) and not graph10.in_bounds((0, -1))


class TestWires:
    def test_capacity_uniform(self, graph10):
        assert graph10.wire_capacity((0, 0), (1, 0)) == 10
        assert graph10.wire_capacity((3, 3), (3, 4)) == 10

    def test_usage_symmetric(self, graph10):
        graph10.add_wire((2, 2), (3, 2))
        assert graph10.wire_usage((3, 2), (2, 2)) == 1

    def test_add_remove(self, graph10):
        graph10.add_wire((0, 0), (0, 1), 3)
        graph10.add_wire((0, 0), (0, 1), -2)
        assert graph10.wire_usage((0, 0), (0, 1)) == 1

    def test_negative_usage_rejected(self, graph10):
        with pytest.raises(ConfigurationError):
            graph10.add_wire((0, 0), (1, 0), -1)

    def test_non_adjacent_rejected(self, graph10):
        with pytest.raises(ConfigurationError):
            graph10.add_wire((0, 0), (2, 0))
        with pytest.raises(ConfigurationError):
            graph10.wire_usage((0, 0), (1, 1))

    def test_off_grid_capacity_edit_rejected(self, graph10):
        # The edge-id arithmetic alone maps these onto other edges.
        before = graph10.edge_capacity.copy()
        for u, v in (((9, 0), (10, 0)), ((0, 0), (-1, 0))):
            with pytest.raises(ConfigurationError, match="outside"):
                graph10.set_wire_capacity(u, v, 3)
        assert (graph10.edge_capacity == before).all()

    def test_edges_enumeration(self, graph10):
        edges = list(graph10.edges())
        assert len(edges) == graph10.num_edges
        assert len(set(edges)) == len(edges)


class TestSites:
    def test_set_and_use(self, graph10):
        graph10.set_sites((1, 1), 5)
        graph10.use_site((1, 1), 2)
        assert graph10.site_count((1, 1)) == 5
        assert graph10.used_site_count((1, 1)) == 2
        assert graph10.free_sites((1, 1)) == 3

    def test_negative_sites_rejected(self, graph10):
        with pytest.raises(ConfigurationError):
            graph10.set_sites((0, 0), -1)

    def test_cannot_set_below_usage(self, graph10):
        graph10.set_sites((0, 0), 3)
        graph10.use_site((0, 0), 2)
        with pytest.raises(ConfigurationError):
            graph10.set_sites((0, 0), 1)

    def test_oversubscription_allowed_but_tracked(self, graph10):
        graph10.set_sites((0, 0), 1)
        graph10.use_site((0, 0), 2)
        assert graph10.free_sites((0, 0)) == -1

    def test_release_below_zero_rejected(self, graph10):
        with pytest.raises(ConfigurationError):
            graph10.use_site((0, 0), -1)

    def test_totals(self, graph10):
        graph10.set_sites((0, 0), 4)
        graph10.set_sites((5, 5), 6)
        graph10.use_site((5, 5), 1)
        assert graph10.total_sites == 10
        assert graph10.total_used_sites == 1


class TestSnapshots:
    def test_reset(self, graph10):
        graph10.add_wire((0, 0), (1, 0))
        graph10.set_sites((0, 0), 2)
        graph10.use_site((0, 0))
        graph10.reset_usage()
        assert graph10.wire_usage((0, 0), (1, 0)) == 0
        assert graph10.total_used_sites == 0
        assert graph10.total_sites == 2  # capacities/sites preserved

    def test_snapshot_restore(self, graph10):
        graph10.add_wire((0, 0), (1, 0))
        snap = graph10.snapshot_usage()
        graph10.add_wire((0, 0), (1, 0), 5)
        graph10.restore_usage(snap)
        assert graph10.wire_usage((0, 0), (1, 0)) == 1
