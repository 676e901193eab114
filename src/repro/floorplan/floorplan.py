"""A die plus placed blocks."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.errors import FloorplanError
from repro.floorplan.block import Block
from repro.geometry import Point, Rect


@dataclass
class Floorplan:
    """A fixed die outline with placed, non-overlapping hard blocks.

    ``validate`` enforces the invariants; construction does not, so a
    placer can build one before checking its result.
    """

    die: Rect
    blocks: List[Block] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._by_name: Dict[str, Block] = {}
        for block in self.blocks:
            if block.name in self._by_name:
                raise FloorplanError(f"duplicate block name {block.name!r}")
            self._by_name[block.name] = block

    def get(self, name: str) -> Block:
        if name not in self._by_name:
            raise FloorplanError(f"no block named {name!r}")
        return self._by_name[name]

    def validate(self) -> None:
        """Raise unless every block is placed, inside the die, and disjoint."""
        for block in self.blocks:
            if not block.placed:
                raise FloorplanError(f"block {block.name!r} is unplaced")
            if not self.die.contains_rect(block.rect()):
                raise FloorplanError(f"block {block.name!r} extends outside the die")
        rects = [(b.name, b.rect()) for b in self.blocks]
        for i, (name_a, rect_a) in enumerate(rects):
            for name_b, rect_b in rects[i + 1 :]:
                if rect_a.overlaps(rect_b):
                    raise FloorplanError(f"blocks {name_a!r} and {name_b!r} overlap")

    @property
    def block_area(self) -> float:
        return sum(b.area for b in self.blocks)

    @property
    def utilization(self) -> float:
        """Fraction of the die covered by blocks."""
        return self.block_area / self.die.area

    def free_space(self, p: Point) -> bool:
        """True when ``p`` is on the die but inside no block."""
        if not self.die.contains(p):
            return False
        return not any(b.rect().contains(p) for b in self.blocks)

    def block_at(self, p: Point) -> "Block | None":
        """The block covering ``p``, if any."""
        for block in self.blocks:
            if block.rect().contains(p):
                return block
        return None

    def pad_location(self, t: float) -> Point:
        """Point on the die boundary, parameterized by ``t in [0, 1)``.

        Walks the die perimeter counter-clockwise from the lower-left
        corner; used to place I/O pads deterministically.
        """
        perimeter = 2 * (self.die.width + self.die.height)
        d = (t % 1.0) * perimeter
        if d < self.die.width:
            return Point(self.die.x0 + d, self.die.y0)
        d -= self.die.width
        if d < self.die.height:
            return Point(self.die.x1, self.die.y0 + d)
        d -= self.die.height
        if d < self.die.width:
            return Point(self.die.x1 - d, self.die.y1)
        d -= self.die.width
        return Point(self.die.x0, self.die.y1 - d)
