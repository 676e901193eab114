"""Hard macro blocks."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import FloorplanError
from repro.geometry import Point, Rect


@dataclass
class Block:
    """A hard rectangular macro.

    Attributes:
        name: unique block name.
        width, height: dimensions in mm.
        x, y: lower-left corner after placement; ``None`` until placed.
        allows_buffer_sites: False for array-structured macros (caches,
            data paths) that cannot host buffer sites; the tile-graph site
            distributor skips tiles covered by such blocks.
    """

    name: str
    width: float
    height: float
    x: "float | None" = None
    y: "float | None" = None
    allows_buffer_sites: bool = True

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise FloorplanError(f"block {self.name!r}: non-positive dimensions")

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def placed(self) -> bool:
        return self.x is not None and self.y is not None

    def rect(self) -> Rect:
        """Placed footprint. Raises when the block is unplaced."""
        if not self.placed:
            raise FloorplanError(f"block {self.name!r} is not placed")
        assert self.x is not None and self.y is not None
        return Rect(self.x, self.y, self.x + self.width, self.y + self.height)

    def center(self) -> Point:
        return self.rect().center

    def boundary_point(self, t: float) -> Point:
        """Point on the block boundary, parameterized by ``t in [0, 1)``.

        Walks the perimeter counter-clockwise from the lower-left corner.
        Used to place block pins deterministically.
        """
        r = self.rect()
        perimeter = 2 * (r.width + r.height)
        d = (t % 1.0) * perimeter
        if d < r.width:
            return Point(r.x0 + d, r.y0)
        d -= r.width
        if d < r.height:
            return Point(r.x1, r.y0 + d)
        d -= r.height
        if d < r.width:
            return Point(r.x1 - d, r.y1)
        d -= r.width
        return Point(r.x0, r.y1 - d)
