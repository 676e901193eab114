"""SVG rendering of floorplans, buffer placements and sweep results.

Pure-stdlib string assembly: produces standalone ``.svg`` documents for
Fig.-1-style pictures (floorplan + buffer locations) and the scatter plot
of an explore sweep (``repro explore --svg``). No display dependencies;
files open in any browser.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.floorplan import Floorplan
from repro.geometry import Point, Rect

_HEADER = (
    '<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
    'viewBox="{vx} {vy} {vw} {vh}">'
)


class SvgCanvas:
    """Minimal SVG document builder in chip (mm) coordinates.

    The y axis is flipped so the die's lower-left corner renders at the
    bottom-left, matching the ASCII maps and the paper's figures.
    """

    def __init__(self, die: Rect, pixels_per_mm: float = 30.0):
        self.die = die
        self.scale = pixels_per_mm
        self._body: List[str] = []

    def _x(self, x: float) -> float:
        return (x - self.die.x0) * self.scale

    def _y(self, y: float) -> float:
        return (self.die.y1 - y) * self.scale

    def rect(
        self,
        r: Rect,
        fill: str = "none",
        stroke: str = "black",
        stroke_width: float = 1.0,
        opacity: float = 1.0,
        title: Optional[str] = None,
    ) -> None:
        inner = f"<title>{title}</title>" if title else ""
        self._body.append(
            f'<rect x="{self._x(r.x0):.1f}" y="{self._y(r.y1):.1f}" '
            f'width="{r.width * self.scale:.1f}" '
            f'height="{r.height * self.scale:.1f}" fill="{fill}" '
            f'stroke="{stroke}" stroke-width="{stroke_width}" '
            f'opacity="{opacity}">{inner}</rect>'
        )

    def line(
        self, a: Point, b: Point, stroke: str = "black", stroke_width: float = 1.0
    ) -> None:
        self._body.append(
            f'<line x1="{self._x(a.x):.1f}" y1="{self._y(a.y):.1f}" '
            f'x2="{self._x(b.x):.1f}" y2="{self._y(b.y):.1f}" '
            f'stroke="{stroke}" stroke-width="{stroke_width}"/>'
        )

    def circle(
        self, c: Point, radius_px: float = 2.0, fill: str = "red"
    ) -> None:
        self._body.append(
            f'<circle cx="{self._x(c.x):.1f}" cy="{self._y(c.y):.1f}" '
            f'r="{radius_px:.1f}" fill="{fill}"/>'
        )

    def text(self, at: Point, content: str, size_px: float = 10.0) -> None:
        self._body.append(
            f'<text x="{self._x(at.x):.1f}" y="{self._y(at.y):.1f}" '
            f'font-size="{size_px:.0f}">{content}</text>'
        )

    def render(self) -> str:
        w = self.die.width * self.scale
        h = self.die.height * self.scale
        header = _HEADER.format(w=f"{w:.0f}", h=f"{h:.0f}", vx=0, vy=0,
                                vw=f"{w:.0f}", vh=f"{h:.0f}")
        return "\n".join([header, *self._body, "</svg>"])


def floorplan_svg(
    floorplan: Floorplan,
    buffer_points: "Sequence[Point] | None" = None,
    pixels_per_mm: float = 30.0,
) -> str:
    """A Fig.-1-style picture: die, blocks, and buffer dots."""
    canvas = SvgCanvas(floorplan.die, pixels_per_mm)
    canvas.rect(floorplan.die, fill="white", stroke="black", stroke_width=2)
    for block in floorplan.blocks:
        fill = "#d0d7e4" if block.allows_buffer_sites else "#b0b0b0"
        canvas.rect(block.rect(), fill=fill, stroke="#445",
                    title=block.name)
        canvas.text(
            Point(block.rect().x0 + 0.1, block.rect().y1 - 0.1),
            block.name,
            size_px=max(6.0, pixels_per_mm / 4),
        )
    for p in buffer_points or ():
        canvas.circle(p, radius_px=max(1.5, pixels_per_mm / 12), fill="#c22")
    return canvas.render()


def scatter_svg(
    points: Sequence[dict],
    x: str,
    y: str,
    feasible_key: str = "feasible",
    frontier_key: str = "on_frontier",
    width_px: float = 480.0,
    height_px: float = 360.0,
    title: "str | None" = None,
) -> str:
    """Budget-vs-outcome scatter for sweep results (``repro explore --svg``).

    ``points`` are flat dicts carrying at least ``x`` and ``y`` numeric
    fields; feasible points render blue, infeasible red, and points
    flagged ``on_frontier`` get a ring. Axes are linear with simple
    min/max labels — this is a quick-look artifact, not a plotting
    library.
    """
    margin = 42.0
    usable_w = width_px - 2 * margin
    usable_h = height_px - 2 * margin
    xs = [float(p[x]) for p in points]
    ys = [float(p[y]) for p in points]
    if not xs:
        xs, ys = [0.0], [0.0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def px(value: float) -> float:
        return margin + (value - x_lo) / x_span * usable_w

    def py(value: float) -> float:
        return height_px - margin - (value - y_lo) / y_span * usable_h

    body: List[str] = [
        _HEADER.format(w=f"{width_px:.0f}", h=f"{height_px:.0f}", vx=0,
                       vy=0, vw=f"{width_px:.0f}", vh=f"{height_px:.0f}"),
        f'<rect x="0" y="0" width="{width_px:.0f}" height="{height_px:.0f}" '
        'fill="white"/>',
        f'<line x1="{margin}" y1="{height_px - margin}" x2="{width_px - margin}" '
        f'y2="{height_px - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height_px - margin}" stroke="black"/>',
        f'<text x="{width_px / 2:.0f}" y="{height_px - 8:.0f}" '
        f'font-size="11" text-anchor="middle">{x}</text>',
        f'<text x="12" y="{height_px / 2:.0f}" font-size="11" '
        f'text-anchor="middle" '
        f'transform="rotate(-90 12 {height_px / 2:.0f})">{y}</text>',
        f'<text x="{margin:.0f}" y="{height_px - margin + 14:.0f}" '
        f'font-size="9">{x_lo:g}</text>',
        f'<text x="{width_px - margin:.0f}" y="{height_px - margin + 14:.0f}" '
        f'font-size="9" text-anchor="end">{x_hi:g}</text>',
        f'<text x="{margin - 4:.0f}" y="{height_px - margin:.0f}" '
        f'font-size="9" text-anchor="end">{y_lo:g}</text>',
        f'<text x="{margin - 4:.0f}" y="{margin + 4:.0f}" '
        f'font-size="9" text-anchor="end">{y_hi:g}</text>',
    ]
    if title:
        body.append(
            f'<text x="{width_px / 2:.0f}" y="16" font-size="12" '
            f'text-anchor="middle">{title}</text>'
        )
    for p in points:
        cx, cy = px(float(p[x])), py(float(p[y]))
        fill = "#36c" if p.get(feasible_key) else "#c33"
        if p.get(frontier_key):
            body.append(
                f'<circle cx="{cx:.1f}" cy="{cy:.1f}" r="6.0" fill="none" '
                'stroke="#222" stroke-width="1.2"/>'
            )
        hover = p.get("label") or f"{x}={p[x]} {y}={p[y]}"
        body.append(
            f'<circle cx="{cx:.1f}" cy="{cy:.1f}" r="3.2" fill="{fill}">'
            f"<title>{hover}</title></circle>"
        )
    body.append("</svg>")
    return "\n".join(body)
