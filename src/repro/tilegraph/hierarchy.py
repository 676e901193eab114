"""Hierarchical buffer-site budgeting (paper Section I-B).

For hierarchical designs the paper proposes: assume unlimited sites, run
the allocator, count the buffers landing inside each macro block, and use
those counts (with headroom) as the block's real site budget. This module
is the library form of that recipe:

* :func:`unconstrained_site_demand` — run RABID against a saturated site
  supply and census the per-block buffer usage;
* :func:`block_budgets` — turn the census into per-block budgets with a
  headroom factor.

``examples/site_budgeting.py`` runs the recipe on ami33.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.errors import ConfigurationError
from repro.floorplan import Floorplan
from repro.netlist import Netlist
from repro.tilegraph.graph import TileGraph

#: Census key for buffers landing outside every block.
CHANNELS = "<channels>"


@dataclass(frozen=True)
class SiteDemand:
    """Per-block buffer demand from an unconstrained allocation run.

    ``fails`` is the run's final count of nets missing their length rule.
    """

    per_block: Dict[str, int]
    total: int
    fails: int = 0

    def demand_for(self, block_name: str) -> int:
        return self.per_block.get(block_name, 0)


def unconstrained_site_demand(
    graph: TileGraph,
    floorplan: Floorplan,
    netlist: Netlist,
    length_limit: int,
    sites_per_tile: int = 50,
    stage4_iterations: int = 1,
) -> SiteDemand:
    """Census buffer demand with a saturated site supply.

    Overwrites ``graph``'s site distribution with ``sites_per_tile``
    everywhere, runs the planner, and counts used sites per covering
    block. The graph is left with the unconstrained run's usage (callers
    typically work on a scratch instance).
    """
    from repro.core import RabidConfig, RabidPlanner  # local: avoid cycle

    graph.used_sites[:] = 0
    for tile in graph.tiles():
        graph.set_sites(tile, sites_per_tile)
    config = RabidConfig(
        length_limit=length_limit,
        stage4_iterations=stage4_iterations,
        window_margin=10,
    )
    result = RabidPlanner(graph, netlist, config).run()

    census: Dict[str, int] = {}
    for tile in graph.tiles():
        used = graph.used_site_count(tile)
        if not used:
            continue
        block = floorplan.block_at(graph.tile_center(tile))
        key = block.name if block is not None else CHANNELS
        census[key] = census.get(key, 0) + used
    return SiteDemand(
        per_block=census,
        total=sum(census.values()),
        fails=result.final_metrics.num_fails,
    )


def block_budgets(
    demand: SiteDemand,
    headroom: float = 2.0,
    minimum: int = 0,
) -> Dict[str, int]:
    """Per-block site budgets: demand scaled by ``headroom``.

    Blocks that attracted no buffers get ``minimum`` sites (a designer may
    still want ECO spares there).
    """
    if headroom < 1.0:
        raise ConfigurationError("headroom must be >= 1")
    return {
        name: max(minimum, int(round(count * headroom)))
        for name, count in demand.per_block.items()
    }
