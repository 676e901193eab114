"""SVG rendering."""

import pytest

from repro.analysis.svg import SvgCanvas, floorplan_svg
from repro.floorplan import Block, Floorplan
from repro.geometry import Point, Rect


@pytest.fixture
def plan():
    return Floorplan(
        die=Rect(0, 0, 10, 10),
        blocks=[
            Block(name="a", width=3, height=3, x=1, y=1),
            Block(
                name="cache", width=3, height=3, x=5, y=5,
                allows_buffer_sites=False,
            ),
        ],
    )


class TestCanvas:
    def test_document_structure(self):
        c = SvgCanvas(Rect(0, 0, 10, 10), pixels_per_mm=10)
        c.rect(Rect(1, 1, 2, 2), fill="red")
        out = c.render()
        assert out.startswith("<svg")
        assert out.endswith("</svg>")
        assert 'width="100"' in out

    def test_y_axis_flipped(self):
        c = SvgCanvas(Rect(0, 0, 10, 10), pixels_per_mm=10)
        c.circle(Point(0, 0))  # lower-left in chip coords
        out = c.render()
        assert 'cy="100.0"' in out  # bottom of the image

    def test_title_tooltip(self):
        c = SvgCanvas(Rect(0, 0, 10, 10))
        c.rect(Rect(0, 0, 1, 1), title="blk")
        assert "<title>blk</title>" in c.render()


class TestFloorplanSvg:
    def test_blocks_rendered(self, plan):
        out = floorplan_svg(plan)
        assert out.count("<rect") >= 3  # die + 2 blocks
        assert "cache" in out

    def test_no_site_blocks_gray(self, plan):
        out = floorplan_svg(plan)
        assert "#b0b0b0" in out

    def test_buffer_dots(self, plan):
        out = floorplan_svg(plan, buffer_points=[Point(4, 4), Point(9, 1)])
        assert out.count("<circle") == 2
