"""Tile-graph abstraction (paper Section II).

A tiling ``G(V, E)`` of the die: ``V`` is a grid of tiles, each carrying a
buffer-site count ``B(v)`` and a used count ``b(v)``; edges between
neighboring tiles carry a wire capacity ``W(e)`` and a usage ``w(e)``.
"""

from repro.tilegraph.graph import Tile, TileGraph
from repro.tilegraph.capacity import CapacityModel
from repro.tilegraph.sites import (
    SiteDistribution,
    blocked_region_tiles,
    distribute_sites_randomly,
)
from repro.tilegraph.congestion import CongestionStats, wire_congestion_stats, buffer_density_stats
from repro.tilegraph.legalize import PlacedBuffer, SitePlacement, legalize_buffers
from repro.tilegraph.hierarchy import (
    CHANNELS,
    SiteDemand,
    block_budgets,
    unconstrained_site_demand,
)

__all__ = [
    "CHANNELS",
    "SiteDemand",
    "block_budgets",
    "unconstrained_site_demand",
    "PlacedBuffer",
    "SitePlacement",
    "legalize_buffers",
    "Tile",
    "TileGraph",
    "CapacityModel",
    "SiteDistribution",
    "blocked_region_tiles",
    "distribute_sites_randomly",
    "CongestionStats",
    "wire_congestion_stats",
    "buffer_density_stats",
]
