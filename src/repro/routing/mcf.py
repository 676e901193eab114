"""Approximate multicommodity-flow global routing.

The paper notes RABID "could alternatively begin with the solution from
any global router, e.g., the multicommodity flow-based approach of
[Albrecht, ISPD 2000]". This module provides that alternative: a
Garg-Konemann-style fractional router with exponential edge-length
updates, followed by per-net rounding to the least-congested candidate
tree.

Algorithm sketch:

1. every edge starts with length ``delta / W(e)``;
2. for ``iterations`` rounds, each net is routed by a tree-growing
   Dijkstra under the current lengths; the tree receives fractional flow
   and every used edge's length is multiplied by
   ``1 + epsilon / W(e)`` (scaled by the edge's share of capacity), so
   popular cuts become expensive and later rounds route around them;
3. each net keeps the distinct candidate trees seen across rounds;
   rounding picks, net by net (most-constrained first), the candidate
   minimizing the resulting maximum edge congestion.

This is deliberately the *simple* member of the MCF family — enough to
serve as a drop-in Stage-1/2 replacement (``RabidConfig(router="mcf")``)
and to compare against the Prim-Dijkstra + rip-up default.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import ConfigurationError
from repro.netlist import Net, Netlist
from repro.obs import NULL_TRACER
from repro.routing.maze import route_net_on_tiles
from repro.routing.tree import RouteTree
from repro.tilegraph.graph import Tile, TileGraph
from repro.utils.rng import make_rng


@dataclass
class McfOptions:
    """Fractional-routing parameters.

    Attributes:
        iterations: fractional rounds; more rounds spread demand further.
        epsilon: length-update aggressiveness (0 < epsilon <= 1).
        window_margin: Dijkstra search-window margin in tiles.
        seed: rounding tie-break seed; candidates tied on the
            (max-congestion, total-congestion) objective are broken by
            one seeded draw, so rounding is explicitly deterministic.
    """

    iterations: int = 6
    epsilon: float = 0.5
    window_margin: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ConfigurationError("MCF needs at least one iteration")
        if not 0 < self.epsilon <= 1:
            raise ConfigurationError("epsilon must be in (0, 1]")


class McfRouter:
    """Fractional MCF routing with greedy least-congestion rounding."""

    def __init__(
        self,
        graph: TileGraph,
        options: "McfOptions | None" = None,
        tracer=None,
    ):
        self.graph = graph
        self.options = options or McfOptions()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # Dual edge lengths, flat per edge id (the maze kernel's
        # ``cost_array``); zero-capacity edges are priced unroutable.
        self._lengths: List[float] = [
            1.0 / cap if cap > 0 else float("inf")
            for cap in graph.edge_capacity.tolist()
        ]

    def _edge_length(self, graph: TileGraph, u: Tile, v: Tile) -> float:
        return self._lengths[graph.edge_id(u, v)]

    def _bump(self, u: Tile, v: Tile) -> None:
        cap = self.graph.wire_capacity(u, v)
        if cap <= 0:
            return
        eid = self.graph.edge_id(u, v)
        self._lengths[eid] *= 1.0 + self.options.epsilon / cap

    def route_all(self, netlist: Netlist) -> Dict[str, RouteTree]:
        """Route every net; the graph's wire usage is written in place.

        Returns the selected tree per net; ``graph`` usage reflects them.
        """
        candidates: Dict[str, List[RouteTree]] = {n.name: [] for n in netlist}
        pins: Dict[str, Tuple[Tile, List[Tile]]] = {}
        for net in netlist:
            source = self.graph.tile_of(net.source.location)
            sinks = [self.graph.tile_of(p) for p in net.sink_locations()]
            pins[net.name] = (source, sinks)

        for round_index in range(self.options.iterations):
            with self.tracer.span("mcf.round", **{"round": round_index}):
                for net in netlist:
                    source, sinks = pins[net.name]
                    tree = route_net_on_tiles(
                        self.graph,
                        source,
                        sinks,
                        cost_array=self._lengths,
                        net_name=net.name,
                        window_margin=self.options.window_margin,
                        tracer=self.tracer,
                    )
                    for u, v in tree.edges():
                        self._bump(u, v)
                    seen = candidates[net.name]
                    signature = frozenset(
                        (min(u, v), max(u, v)) for u, v in tree.edges()
                    )
                    if all(
                        signature
                        != frozenset((min(a, b), max(a, b)) for a, b in t.edges())
                        for t in seen
                    ):
                        seen.append(tree)
                        if self.tracer.enabled:
                            self.tracer.count("mcf_candidate_trees")
        with self.tracer.span("mcf.rounding"):
            return self._round(netlist, candidates)

    def _round(
        self,
        netlist: Netlist,
        candidates: Dict[str, List[RouteTree]],
    ) -> Dict[str, RouteTree]:
        """Greedy rounding: most-constrained nets pick first.

        Ordering and selection are fully deterministic: nets tie-break
        on name, and candidates tied on the congestion objective are
        resolved by a single draw from the options seed.
        """
        order = sorted(
            (n.name for n in netlist),
            key=lambda name: (-len(candidates[name][0].nodes), name),
        )
        rng = make_rng(self.options.seed)
        chosen: Dict[str, RouteTree] = {}
        for name in order:
            best_cost: Tuple[float, float] = (float("inf"), float("inf"))
            tied: List[RouteTree] = []
            for tree in candidates[name]:
                worst = 0.0
                total = 0.0
                for u, v in tree.edges():
                    cap = self.graph.wire_capacity(u, v)
                    use = self.graph.wire_usage(u, v) + 1
                    ratio = use / cap if cap else float("inf")
                    worst = max(worst, ratio)
                    total += ratio
                cost = (worst, total)
                if cost < best_cost:
                    best_cost = cost
                    tied = [tree]
                elif cost == best_cost:
                    tied.append(tree)
            assert tied
            best_tree = (
                tied[0]
                if len(tied) == 1
                else tied[int(rng.integers(0, len(tied)))]
            )
            best_tree.add_usage(self.graph)
            chosen[name] = best_tree
        return chosen


def mcf_initial_routes(
    graph: TileGraph,
    netlist: Netlist,
    options: "McfOptions | None" = None,
    tracer=None,
) -> Dict[str, RouteTree]:
    """Convenience wrapper: route a whole netlist MCF-style.

    The graph must carry no prior usage for these nets; usage for the
    selected trees is recorded on return.
    """
    return McfRouter(graph, options, tracer=tracer).route_all(netlist)
