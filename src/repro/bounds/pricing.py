"""Column-generation pricing: cheapest *buffered* source-sink paths.

The lower-bound oracle (:mod:`repro.bounds.oracle`) prices candidate
buffered routes against the current Garg-Konemann dual lengths. The
pricing problem is a resource-constrained shortest path on the tile
graph: a path from the net's source to a sink, broken by repeaters so
that no gate (driver or buffer) drives more than ``L`` tiles of wire —
the per-path projection of the repo's length rule
(:func:`repro.core.length_rule.net_meets_length_rule` bounds each
gate's *total* driven length, so every source-sink path inside a
feasible tree is itself a feasible buffered path; pricing over paths
therefore under-approximates trees, exactly what a lower bound needs).

The search is Stage 4's layered Dijkstra,
:func:`repro.core.two_path._layered_search`, over states ``(tile, d)``
where ``d`` is the tile distance since the last gate:

* a wire step to a neighbor costs ``wire_cost + l(e)`` and advances
  ``d`` by one (blocked when ``d + 1 > L``);
* inserting a buffer at the current tile costs ``buffer_cost + s(v)``
  and resets ``d`` to zero — allowed only on tiles with ``B(v) > 0``
  sites;
* edges and sites of infinite length (zero capacity) are never used.

One search per net prices every sink at once. The search is windowed
like :mod:`repro.routing.maze` (bounding box of the pins plus a margin,
escalating to the whole grid before declaring a sink unreachable), so
an infinite price is a *structural* certificate: no buffered path obeys
the spacing rule given the site placement at any congestion level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.two_path import _layered_search, _tile_masks
from repro.errors import ConfigurationError
from repro.routing.maze import _search_window
from repro.tilegraph.graph import TileGraph

Tile = Tuple[int, int]

INF = float("inf")


def reachability(lengths: Sequence[float]) -> List[float]:
    """0.0 where a dual length is finite, INF where it is not.

    These are the lengths scaled by ``theta = 0`` (``0.0 * l == 0.0``
    for finite ``l``): priced with them, a path costs its base costs
    alone and still avoids zero-capacity edges and sites.
    """
    return [0.0 if length < INF else INF for length in lengths]


@dataclass(frozen=True)
class PricedPath:
    """One sink's cheapest buffered path under the current lengths."""

    sink: Tile
    cost: float
    #: flat edge ids along the path, in source-to-sink order.
    edges: Tuple[int, ...]
    #: flat tile indices where the path inserts a buffer, in the same order.
    buffers: Tuple[int, ...]


@dataclass
class NetPricing:
    """All sinks of one net, priced by a single layered Dijkstra."""

    source: Tile
    costs: Dict[Tile, float]
    paths: Dict[Tile, PricedPath]

    @property
    def reachable(self) -> bool:
        return all(c < INF for c in self.costs.values())

    def dual_value(self) -> float:
        """``u_i``: the max-over-sinks path bound (INF when unreachable).

        Any feasible buffered tree contains, per sink, a feasible
        buffered path of no greater cost, so the *maximum* over sinks of
        the per-sink minima lower-bounds every feasible tree's cost.
        """
        return max(self.costs.values()) if self.costs else 0.0


class PathPricer:
    """Prices nets on one graph with the layered search.

    Each call builds a byte mask of the window's tiles with the sinks
    marked in a second mask and runs
    :func:`repro.core.two_path._layered_search` from ``(source, 0)``
    until every sink tile has settled. That docstring carries the search
    rules: a sink tile settles at its first pop, dominated ``(tile, d)``
    states are skipped, and a step costs ``(d + base) + length``, which
    is the left-to-right sum this pricer has always charged, so the
    oracle's certificates do not depend on the kernel being shared.
    Returned paths need every step to cost more than 0, which holds
    wherever paths are collected (base costs 1).
    """

    def __init__(self, graph: TileGraph, window_margin: int = 10) -> None:
        if window_margin < 0:
            raise ConfigurationError("window_margin must be >= 0")
        self.graph = graph
        self.flat = graph.flat()
        self.window_margin = window_margin
        #: tile indices without buffer sites (never priced as a buffer).
        self._siteless = (graph.sites_flat <= 0).nonzero()[0].tolist()

    # ------------------------------------------------------------------ #

    def price(
        self,
        source: Tile,
        sinks: Sequence[Tile],
        length_limit: int,
        edge_lengths: Sequence[float],
        site_lengths: Sequence[float],
        wire_cost: float = 1.0,
        buffer_cost: float = 1.0,
        collect_paths: bool = False,
    ) -> NetPricing:
        """Price every sink of one net under the given dual lengths.

        Base ``wire_cost``/``buffer_cost`` are charged per edge / per
        buffer on top of the lengths. The oracle's bound sweep prices
        with :func:`reachability` lists (the lengths at ``theta = 0``)
        and its length rounds with the lengths themselves.
        """
        if length_limit < 1:
            raise ConfigurationError("length_limit must be >= 1")
        site_costs = list(site_lengths)
        for tile in self._siteless:
            site_costs[tile] = INF
        flat = self.flat
        margins: List[int] = []
        whole = max(flat.nx, flat.ny)
        for margin in (self.window_margin, self.window_margin * 4, whole):
            if margin not in margins:
                margins.append(margin)
        result: Optional[NetPricing] = None
        for margin in margins:
            result = self._search(
                source, sinks, length_limit, edge_lengths, site_costs,
                wire_cost, buffer_cost, margin, collect_paths,
            )
            if result.reachable:
                return result
        assert result is not None
        return result

    # ------------------------------------------------------------------ #

    def _search(
        self,
        source: Tile,
        sinks: Sequence[Tile],
        length_limit: int,
        edge_costs: Sequence[float],
        site_costs: Sequence[float],
        wire_cost: float,
        buffer_cost: float,
        margin: int,
        collect_paths: bool,
    ) -> NetPricing:
        flat = self.flat
        ny = flat.ny
        layers = length_limit + 1
        targets = set(sinks)
        window = _search_window(self.graph, [source, *sinks], margin)
        inside, sink_tiles = _tile_masks(flat, targets, set(), window)
        start = (source[0] * ny + source[1]) * layers  # (source, d=0)
        found, dist, pred, _ = _layered_search(
            flat.adj, edge_costs, site_costs, inside, sink_tiles, start,
            layers, goals=len(targets), wire_base=wire_cost,
            site_base=buffer_cost,
        )
        # First-popped state per sink tile: the tile's cheapest state.
        first = {state // layers: state for state in found}

        costs: Dict[Tile, float] = {}
        paths: Dict[Tile, PricedPath] = {}
        adj = flat.adj
        for sink in sinks:
            best_state = first.get(sink[0] * ny + sink[1], -1)
            if best_state < 0:
                costs[sink] = INF
                continue
            best = dist[best_state]
            costs[sink] = best
            if collect_paths:
                edges: List[int] = []
                buffers: List[int] = []
                state = best_state
                while state != start:
                    prev = pred[state]
                    tile, prev_tile = state // layers, prev // layers
                    if tile == prev_tile:
                        buffers.append(tile)
                    else:
                        edges.append(
                            next(e for n, e in adj[prev_tile] if n == tile)
                        )
                    state = prev
                paths[sink] = PricedPath(
                    sink=sink,
                    cost=best,
                    edges=tuple(reversed(edges)),
                    buffers=tuple(reversed(buffers)),
                )
        return NetPricing(source=source, costs=costs, paths=paths)
