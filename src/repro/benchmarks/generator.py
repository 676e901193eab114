"""Deterministic synthesis of benchmark instances from Table I statistics.

For each spec we synthesize:

* a die sized by ``grid x tile_area``;
* ``cells`` hard blocks with lognormal areas totalling ~60% of the die,
  placed by fast shelf packing (the role the paper fills with the BBP
  code's annealing floorplanner; any legal spread-out placement serves);
* ``pads`` I/O pads spaced around the die boundary;
* ``nets`` nets with ``sinks`` total sinks: every net gets one sink, the
  surplus is scattered multinomially so a few high-fanout nets exist; pins
  attach to block boundaries and pads uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Tuple

import numpy as np

from repro.benchmarks.spec import BenchmarkSpec
from repro.errors import ConfigurationError
from repro.floorplan import Block, Floorplan
from repro.geometry import Point, Rect
from repro.netlist import Net, Netlist, Pin
from repro.tilegraph import CapacityModel, TileGraph
from repro.tilegraph.graph import Tile
from repro.tilegraph.sites import distribute_sites_randomly
from repro.utils.rng import make_rng

#: Fraction of the die covered by macro blocks. MCNC floorplans after
#: annealing are tightly packed; a high target with uneven channel widths
#: reproduces the scarce, concentrated free space that buffer-block
#: planning depends on.
_BLOCK_UTILIZATION = 0.68


@dataclass
class BenchmarkInstance:
    """A fully materialized benchmark: geometry, netlist, tile graph."""

    spec: BenchmarkSpec
    die: Rect
    floorplan: Floorplan
    netlist: Netlist
    graph: TileGraph
    blocked_tiles: FrozenSet[Tile]
    seed: int

    @property
    def name(self) -> str:
        return self.spec.name


def _synthesize_blocks(
    spec: BenchmarkSpec, die: Rect, rng: np.random.Generator
) -> List[Block]:
    """Lognormal block areas summing to the utilization target."""
    raw = rng.lognormal(mean=0.0, sigma=0.8, size=spec.cells)
    areas = raw / raw.sum() * die.area * _BLOCK_UTILIZATION
    blocks: List[Block] = []
    for i, area in enumerate(areas):
        aspect = float(rng.uniform(0.5, 2.0))
        width = float(np.sqrt(area * aspect))
        height = float(area / width)
        # Keep individual blocks placeable within the die.
        width = min(width, die.width * 0.6)
        height = min(area / width, die.height * 0.6)
        blocks.append(Block(name=f"blk{i}", width=width, height=height))
    return blocks


def _shelf_pack(blocks: List[Block], die: Rect, rng: np.random.Generator) -> Floorplan:
    """Fast legal placement: height-sorted shelves, slack spread evenly."""
    order = sorted(blocks, key=lambda b: -b.height)
    shelves: List[List[Block]] = []
    shelf: List[Block] = []
    width_used = 0.0
    for block in order:
        if shelf and width_used + block.width > die.width:
            shelves.append(shelf)
            shelf = []
            width_used = 0.0
        shelf.append(block)
        width_used += block.width
    if shelf:
        shelves.append(shelf)

    total_shelf_height = sum(max(b.height for b in s) for s in shelves)
    if total_shelf_height > die.height:
        raise ConfigurationError("shelf packing overflows the die; lower utilization")
    # Uneven gap widths (Dirichlet split of the slack) give the floorplan a
    # realistic mix of tight abutments and a few wide channels, instead of
    # free space smeared uniformly between all blocks.
    y_slack = die.height - total_shelf_height
    y_gaps = rng.dirichlet([0.5] * (len(shelves) + 1)) * y_slack
    placed: List[Block] = []
    y = die.y0 + y_gaps[0]
    for s_idx, shelf_blocks in enumerate(shelves):
        shelf_height = max(b.height for b in shelf_blocks)
        row_width = sum(b.width for b in shelf_blocks)
        x_slack = die.width - row_width
        x_gaps = rng.dirichlet([0.5] * (len(shelf_blocks) + 1)) * x_slack
        x = die.x0 + x_gaps[0]
        for b_idx, block in enumerate(shelf_blocks):
            placed.append(
                Block(
                    name=block.name,
                    width=block.width,
                    height=block.height,
                    x=x,
                    y=y,
                    allows_buffer_sites=block.allows_buffer_sites,
                )
            )
            x += block.width + x_gaps[b_idx + 1]
        y += shelf_height + y_gaps[s_idx + 1]
    plan = Floorplan(die=die, blocks=placed)
    plan.validate()
    return plan


def _synthesize_netlist(
    spec: BenchmarkSpec,
    floorplan: Floorplan,
    rng: np.random.Generator,
    keepout: "Rect | None" = None,
) -> Netlist:
    """Nets with the published net/pad/sink counts.

    ``keepout`` is the interior of the cache-like blocked region: a real
    cache macro has pins on its boundary only, so no pin may fall strictly
    inside it (block-boundary points that would land there are resampled).
    """
    # Each pad is a single I/O pin (Table I's pad count is a pin count):
    # exactly `spec.pads` of the design's pins land on distinct pads,
    # spread randomly over all pin slots; every other pin sits on a block
    # boundary. This keeps per-tile terminal demand physical - a die
    # corner never collects dozens of net terminals.
    pads = [
        floorplan.pad_location((i + 0.5) / max(spec.pads, 1))
        for i in range(spec.pads)
    ]
    rng.shuffle(pads)
    blocks = floorplan.blocks

    total_pins = spec.nets + spec.sinks
    pad_slots = set(
        int(i) for i in rng.choice(total_pins, size=min(spec.pads, total_pins),
                                   replace=False)
    )
    slot_counter = [0]

    def random_pin(tag: str) -> Pin:
        slot = slot_counter[0]
        slot_counter[0] += 1
        if slot in pad_slots and pads:
            return Pin(name=tag, location=pads.pop(), owner="PAD")
        for _ in range(64):
            block = blocks[int(rng.integers(0, len(blocks)))]
            t = float(rng.random())
            location = block.boundary_point(t)
            if keepout is None or not keepout.contains(location):
                return Pin(name=tag, location=location, owner=block.name)
        # Pathological keepout (covers every block boundary): accept the
        # last draw rather than loop forever.
        return Pin(name=tag, location=location, owner=block.name)

    extra = spec.sinks - spec.nets
    if extra < 0:
        raise ConfigurationError(f"{spec.name}: fewer sinks than nets in spec")
    extra_per_net = rng.multinomial(extra, [1.0 / spec.nets] * spec.nets)

    netlist = Netlist()
    for i in range(spec.nets):
        source = random_pin(f"n{i}.src")
        n_sinks = 1 + int(extra_per_net[i])
        sinks = [random_pin(f"n{i}.s{k}") for k in range(n_sinks)]
        netlist.add(Net(name=f"net{i}", source=source, sinks=sinks))
    return netlist


def generate_benchmark(
    spec: BenchmarkSpec,
    seed: int = 0,
    grid: Optional[Tuple[int, int]] = None,
    total_sites: Optional[int] = None,
    wire_capacity: Optional[int] = None,
    blocked_size: int = 9,
) -> BenchmarkInstance:
    """Materialize a benchmark instance.

    Args:
        spec: the Table I statistics to honor.
        seed: master seed; the same (spec, seed, overrides) always yields
            the same instance.
        grid: tiling override (Table IV); default is the spec's grid.
        total_sites: buffer-site budget override (Table III).
        wire_capacity: per-edge capacity override; by default the spec's
            calibrated capacity, rescaled when ``grid`` deviates.
        blocked_size: side of the zero-site blocked region (paper: 9).

    Returns:
        A :class:`BenchmarkInstance` ready for :class:`RabidPlanner`.
    """
    rng = make_rng(seed)
    die = Rect(0.0, 0.0, spec.die_width_mm, spec.die_height_mm)
    blocks = _synthesize_blocks(spec, die, rng)
    # Shelf packing wastes some vertical space; shrink the blocks until the
    # pack fits (the utilization target is a synthesis knob, not a spec).
    for _ in range(20):
        try:
            floorplan = _shelf_pack(blocks, die, rng)
            break
        except ConfigurationError:
            blocks = [
                Block(
                    name=b.name,
                    width=b.width * 0.93,
                    height=b.height * 0.93,
                    allows_buffer_sites=b.allows_buffer_sites,
                )
                for b in blocks
            ]
    else:
        raise ConfigurationError(f"{spec.name}: could not pack blocks into the die")

    # The blocked cache-like region is a *physical* footprint: a square of
    # `blocked_size` default-grid tiles at a random tile-aligned position.
    # Its interior is a pin keepout (a cache macro has boundary pins only)
    # and its tiles - under whatever grid is in use - receive no sites.
    region_rect: "Rect | None" = None
    keepout: "Rect | None" = None
    if blocked_size > 0:
        side = spec.tile_side_mm
        span_x = min(blocked_size, spec.grid[0])
        span_y = min(blocked_size, spec.grid[1])
        x0 = int(rng.integers(0, spec.grid[0] - span_x + 1)) * side
        y0 = int(rng.integers(0, spec.grid[1] - span_y + 1)) * side
        region_rect = Rect(
            die.x0 + x0, die.y0 + y0,
            die.x0 + x0 + span_x * side, die.y0 + y0 + span_y * side,
        )
        if span_x > 2 and span_y > 2:
            keepout = Rect(
                region_rect.x0 + side, region_rect.y0 + side,
                region_rect.x1 - side, region_rect.y1 - side,
            )

    netlist = _synthesize_netlist(spec, floorplan, rng, keepout=keepout)

    use_grid = grid or spec.grid
    if wire_capacity is None:
        wire_capacity = (
            spec.default_wire_capacity
            if use_grid == spec.grid
            else spec.scaled_wire_capacity(use_grid)
        )
    graph = TileGraph(
        die, use_grid[0], use_grid[1], CapacityModel.uniform(wire_capacity)
    )
    blocked: FrozenSet[Tile] = frozenset()
    if region_rect is not None:
        blocked = frozenset(
            t for t in graph.tiles() if region_rect.contains(graph.tile_center(t))
        )
    distribute_sites_randomly(
        graph,
        total_sites if total_sites is not None else spec.buffer_sites,
        rng=int(rng.integers(0, 2**31 - 1)),
        blocked=blocked,
    )
    return BenchmarkInstance(
        spec=spec,
        die=die,
        floorplan=floorplan,
        netlist=netlist,
        graph=graph,
        blocked_tiles=blocked,
        seed=seed,
    )
