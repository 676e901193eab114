"""Buffer-site usage cost — the paper's Eq. (2).

    q(v) = (b(v) + p(v) + 1) / (B(v) - b(v))   when b(v)/B(v) < 1
           infinity                            otherwise

Analogous to the wire cost of Eq. (1): the penalty grows sharply as a
tile's sites fill, and the probability term reserves capacity for the
still-unprocessed nets expected to pass through the tile.
"""

from __future__ import annotations

from repro.tilegraph.graph import Tile, TileGraph


def buffer_site_cost(graph: TileGraph, tile: Tile, probability: float = 0.0) -> float:
    """Eq. (2) cost of taking one buffer site in ``tile``.

    Args:
        graph: tile graph carrying ``B(v)`` and ``b(v)``.
        tile: the tile in question.
        probability: ``p(v)``, expected future demand from unprocessed nets.

    Returns:
        Finite cost while sites remain, else ``inf`` (including ``B(v)=0``).
    """
    sites = graph.site_count(tile)
    used = graph.used_site_count(tile)
    if sites <= 0 or used >= sites:
        return float("inf")
    return (used + probability + 1.0) / (sites - used)

