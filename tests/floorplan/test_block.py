"""Block geometry."""

import pytest

from repro.errors import FloorplanError
from repro.floorplan import Block
from repro.geometry import Point


class TestBlock:
    def test_dimensions_validated(self):
        with pytest.raises(FloorplanError):
            Block(name="b", width=0, height=1)
        with pytest.raises(FloorplanError):
            Block(name="b", width=1, height=-2)

    def test_unplaced_rect_raises(self):
        with pytest.raises(FloorplanError):
            Block(name="b", width=1, height=1).rect()

    def test_placed_rect_and_center(self):
        b = Block(name="b", width=2, height=4, x=1, y=1)
        r = b.rect()
        assert (r.x0, r.y0, r.x1, r.y1) == (1, 1, 3, 5)
        assert b.center() == Point(2, 3)
        assert b.area == 8


class TestBoundaryPoint:
    def test_corners(self):
        b = Block(name="b", width=4, height=2, x=0, y=0)
        assert b.boundary_point(0.0) == Point(0, 0)
        # Quarter perimeter = 3 units along the bottom (perimeter 12).
        assert b.boundary_point(0.25) == Point(3, 0)

    def test_wraps(self):
        b = Block(name="b", width=4, height=2, x=0, y=0)
        assert b.boundary_point(1.0) == b.boundary_point(0.0)

    def test_points_lie_on_boundary(self):
        b = Block(name="b", width=3, height=5, x=2, y=1)
        r = b.rect()
        for i in range(16):
            p = b.boundary_point(i / 16)
            assert r.contains(p)
            on_edge = (
                p.x in (r.x0, r.x1) or p.y in (r.y0, r.y1)
            )
            assert on_edge
