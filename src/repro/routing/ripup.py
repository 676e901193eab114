"""Nair-style rip-up-and-reroute (Stage 2).

Every net is ripped up and rerouted in a fixed order (the paper sorts by
ascending delay), even nets that violate nothing — improving uncongested
nets frees capacity for later ones and avoids local minima. The loop runs
until either ``max_iterations`` full passes complete or no edge overflows.
Each reroute sees the usage every earlier net of the pass committed, so
the walk is strictly sequential.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

from repro.errors import ConfigurationError
from repro.obs import NULL_TRACER
from repro.routing.maze import route_net_on_tiles
from repro.routing.tree import RouteTree
from repro.tilegraph.congestion import wire_congestion_stats
from repro.tilegraph.graph import TileGraph


@dataclass
class RipupOptions:
    """Options for :func:`ripup_and_reroute`.

    Attributes:
        max_iterations: full passes over the net list (paper: 3).
        radius_weight: PD trade-off used when rerouting (paper: 0.4).
        window_margin: maze-router search window margin in tiles.
    """

    max_iterations: int = 3
    radius_weight: float = 0.4
    window_margin: int = 6

    def __post_init__(self) -> None:
        if self.max_iterations < 0:
            raise ConfigurationError("max_iterations must be >= 0")
        if self.radius_weight < 0:
            raise ConfigurationError("radius_weight must be >= 0")
        if self.window_margin < 0:
            raise ConfigurationError("window_margin must be >= 0")


def ripup_and_reroute(
    graph: TileGraph,
    routes: Dict[str, RouteTree],
    order: Sequence[str],
    options: "RipupOptions | None" = None,
    on_pass_end: "Callable[[int], None] | None" = None,
    tracer=None,
) -> int:
    """Rip up and reroute every net per pass until congestion clears.

    Args:
        graph: tile graph carrying the current usage of all ``routes``.
        routes: net name -> current route; mutated in place with new routes.
        order: net processing order (paper: ascending delay).
        options: iteration/rerouting knobs.
        on_pass_end: optional callback after each full pass (pass index).
        tracer: optional :class:`repro.obs.Tracer`; each pass becomes a
            ``stage2.pass`` span and each net emits ``ripped_up`` /
            ``rerouted`` events plus the ``nets_rerouted`` counter.

    Returns:
        Number of full passes executed.
    """
    options = options or RipupOptions()
    tracer = tracer if tracer is not None else NULL_TRACER
    passes = 0
    for iteration in range(options.max_iterations):
        with tracer.span("stage2.pass", **{"pass": iteration}):
            _run_pass(graph, routes, order, options, tracer)
            passes += 1
            if on_pass_end is not None:
                on_pass_end(iteration)
        if wire_congestion_stats(graph).overflow == 0:
            break
    return passes


def _run_pass(
    graph: TileGraph,
    routes: Dict[str, RouteTree],
    order: Sequence[str],
    options: RipupOptions,
    tracer,
) -> None:
    for name in order:
        tree = routes[name]
        tree.remove_usage(graph)
        if tracer.enabled:
            tracer.event("ripped_up", name, stage="2", nodes=len(tree.nodes))
        new_tree = route_net_on_tiles(
            graph,
            tree.source,
            tree.sink_tiles,
            radius_weight=options.radius_weight,
            net_name=name,
            window_margin=options.window_margin,
            tracer=tracer,
        )
        new_tree.add_usage(graph)
        routes[name] = new_tree
        if tracer.enabled:
            tracer.count("nets_rerouted")
            tracer.event("rerouted", name, stage="2", nodes=len(new_tree.nodes))


def reroute_order_by_delay(
    delays: Dict[str, float], ascending: bool = True
) -> List[str]:
    """Net order sorted by delay (paper Stage 2: smallest first)."""
    return sorted(delays, key=lambda n: (delays[n], n), reverse=not ascending)
