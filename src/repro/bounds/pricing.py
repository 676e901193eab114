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

The search runs Dijkstra over layered states ``(tile, d)`` where ``d``
is the tile distance since the last gate:

* a wire step to a neighbor costs ``wire_cost + scale * l(e)`` and
  advances ``d`` by one (blocked when ``d + 1 > L``);
* inserting a buffer at the current tile costs
  ``buffer_cost + scale * s(v)`` and resets ``d`` to zero — allowed
  only on tiles with ``B(v) > 0`` sites;
* zero-capacity edges and zero-site tiles are never used.

One Dijkstra per net prices every sink at once. The search is windowed
like :mod:`repro.routing.maze` (bounding box of the pins plus a margin,
escalating to the whole grid before declaring a sink unreachable), so
an infinite price is a *structural* certificate: no buffered path obeys
the spacing rule given the site placement at any congestion level.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.two_path import _tile_masks
from repro.errors import ConfigurationError
from repro.tilegraph.graph import TileGraph

Tile = Tuple[int, int]

INF = float("inf")


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
    """Reusable layered-Dijkstra kernel over one graph.

    State ``(tile, d)`` is the integer ``tile_index * (L + 1) + d`` over
    ``graph.flat().adj``. Each call allocates its own ``dist`` list (its
    size depends on the net's length limit), a ``pred`` list only when
    paths are collected (it keeps every relaxing state's integer alive),
    a byte mask of the window's tiles with the sinks marked in a second
    mask, and a byte mask of the tiles with sites; the flat adjacency is
    built once.

    Search rules:

    * *First-pop settlement.* A sink tile is priced by the first of its
      states the heap pops, and the search stops once every sink tile
      has been popped. Dijkstra pops in nondecreasing cost, so that
      state holds the tile's minimum cost. Heap keys are
      ``(cost, state)`` and the state integer grows with ``d``, so among
      equal-cost states of one tile the lowest ``d`` pops first: the
      state is the one a ``min`` over the tile's settled layers returns.
      This needs every step to cost more than 0, which holds wherever
      paths are collected (base costs 1). With zero-cost steps the
      costs still agree, but an equal-cost lower-``d`` state may arrive
      after the first pop, so the path may differ.
    * *Dominance skip.* A state ``(t, d)`` is dropped once some
      ``(t, d')`` with ``d' < d`` has settled at a strictly smaller
      cost: a relaxation into it is not pushed, and a pushed entry is
      not expanded when popped. Any continuation of ``(t, d)`` replays
      from ``(t, d')`` for no more cost: every wire step stays legal at
      the lower depth, and a buffer costs the same or is left out when
      the replay is already at ``d = 0``. Float addition is monotone,
      so the replay is no dearer after rounding either, and no tile's
      minimum cost changes. With every step > 0 the dropped states never
      lie on a returned path (the argument of
      :func:`repro.core.two_path.best_buffered_path`).

    The step costs are evaluated as ``d + wire_cost + scale * l(e)`` and
    ``d + buffer_cost + scale * s(v)``, left to right, on every call.
    Tabulating ``wire_cost + scale * l(e)`` per arc would round
    differently (``(d + w) + θl`` is not ``d + (w + θl)`` in floats) and
    move the oracle's certificates.
    """

    def __init__(self, graph: TileGraph, window_margin: int = 10) -> None:
        if window_margin < 0:
            raise ConfigurationError("window_margin must be >= 0")
        self.graph = graph
        self.flat = graph.flat()
        self.window_margin = window_margin
        self._sites = graph.sites_flat

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
        scale: float = 1.0,
        collect_paths: bool = False,
    ) -> NetPricing:
        """Price every sink of one net under the given dual lengths.

        ``scale`` multiplies the dual terms only: the oracle prices its
        bound at 0 and its length rounds at 1. Base
        ``wire_cost``/``buffer_cost`` are charged per edge / per buffer
        regardless.
        """
        if length_limit < 1:
            raise ConfigurationError("length_limit must be >= 1")
        flat = self.flat
        margins: List[int] = []
        whole = max(flat.nx, flat.ny)
        for margin in (self.window_margin, self.window_margin * 4, whole):
            if margin not in margins:
                margins.append(margin)
        result: Optional[NetPricing] = None
        for margin in margins:
            result = self._search(
                source, sinks, length_limit, edge_lengths, site_lengths,
                wire_cost, buffer_cost, scale, margin, collect_paths,
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
        edge_lengths: Sequence[float],
        site_lengths: Sequence[float],
        wire_cost: float,
        buffer_cost: float,
        scale: float,
        margin: int,
        collect_paths: bool,
    ) -> NetPricing:
        flat = self.flat
        ny = flat.ny
        layers = length_limit + 1
        last = length_limit

        xs = [source[0], *(s[0] for s in sinks)]
        ys = [source[1], *(s[1] for s in sinks)]
        window = (min(xs) - margin, min(ys) - margin,
                  max(xs) + margin, max(ys) + margin)
        targets = set(sinks)
        inside, sink_tiles = _tile_masks(flat, targets, set(), window)
        has_sites = (self._sites > 0).tobytes()

        dist = [INF] * (flat.num_tiles * layers)
        pred = [-1] * len(dist) if collect_paths else None
        # Lowest depth settled so far per tile (``layers`` = none yet).
        low_d = [layers] * flat.num_tiles
        # First-popped state per sink tile: the tile's cheapest state.
        first: Dict[int, int] = {}
        left = len(targets)  # sink tiles not popped yet

        start = (source[0] * ny + source[1]) * layers  # (source, d=0)
        dist[start] = 0.0
        heap: List[Tuple[float, int]] = [(0.0, start)]
        pop = heapq.heappop
        push = heapq.heappush
        adj = flat.adj
        while heap:
            d_cur, state = pop(heap)
            if d_cur > dist[state]:
                continue  # stale entry; the state settled cheaper
            tile = state // layers
            depth = state - tile * layers
            low = low_d[tile]
            if low > depth:
                if low == layers and sink_tiles[tile]:
                    first[tile] = state
                    left -= 1
                    if not left:
                        break
                low_d[tile] = depth
            elif dist[state - depth + low] < d_cur:
                continue  # a lower depth of this tile settled cheaper
            # Buffer insertion: reset the spacing counter on a site tile.
            if depth and has_sites[tile]:
                s_len = site_lengths[tile]
                if s_len < INF:
                    nd = d_cur + buffer_cost + scale * s_len
                    nstate = state - depth
                    if nd < dist[nstate]:
                        dist[nstate] = nd
                        if collect_paths:
                            pred[nstate] = state
                        push(heap, (nd, nstate))
            # Wire step: advance one tile, spend one unit of drive length.
            if depth < last:
                nj = depth + 1
                for nbr, eid in adj[tile]:
                    if inside[nbr]:
                        e_len = edge_lengths[eid]
                        if e_len < INF:
                            nd = d_cur + wire_cost + scale * e_len
                            nstate = nbr * layers + nj
                            if nd < dist[nstate]:
                                low = low_d[nbr]
                                if low < nj and dist[nstate - nj + low] < nd:
                                    continue  # dominated on arrival
                                dist[nstate] = nd
                                if collect_paths:
                                    pred[nstate] = state
                                push(heap, (nd, nstate))

        costs: Dict[Tile, float] = {}
        paths: Dict[Tile, PricedPath] = {}
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
