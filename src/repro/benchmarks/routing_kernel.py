"""The Stage-2 routing golden builder: a seeded routing instance and its run.

The scenario is a uniform grid carrying the netlist of
:func:`repro.service.jobs.generate_nets` (32x32 / 500 mostly-local
multi-sink nets by default). :func:`run_routing_kernel` routes every net
once with the strict Eq. (1) cost and then runs the full Nair
rip-up-and-reroute loop, without the Stage-3/4 buffering machinery.

Nothing here is timed. The routing goldens
(``tests/golden/routing_kernel_*``) pin its output through
:func:`routes_signature` (a SHA-256 over every net's canonical edge
list, so a router change that alters one edge of one net changes it) and
:func:`routes_as_json`. Routing time is measured by ``rabidbench``
(``routing.maze.route_s`` on ``eco-ladder32``, ``core.rabid.stage2_s``
on ``plan-ami49``); ``benchmarks/BENCH_routing.json`` is the recorded
history of the retired timing emitter.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.geometry import Rect
from repro.routing.maze import route_net_on_tiles
from repro.routing.ripup import RipupOptions, ripup_and_reroute
from repro.routing.tree import RouteTree
from repro.service.jobs import generate_nets
from repro.tilegraph import CapacityModel, TileGraph
from repro.tilegraph.congestion import wire_congestion_stats


@dataclass
class RoutingScenario:
    """A reproducible routing workload: a graph plus pin sets per net."""

    graph: TileGraph
    #: net name -> (source tile, sink tiles); iteration order == net order.
    nets: Dict[str, Tuple[Tuple[int, int], List[Tuple[int, int]]]]

    @property
    def order(self) -> List[str]:
        return list(self.nets)


def make_routing_scenario(
    grid: int = 32,
    num_nets: int = 500,
    capacity: int = 8,
    seed: int = 0,
) -> RoutingScenario:
    """A ``grid`` x ``grid`` graph of uniform ``capacity`` and its nets."""
    graph = TileGraph(
        Rect(0.0, 0.0, float(grid), float(grid)),
        grid,
        grid,
        CapacityModel.uniform(capacity),
    )
    return RoutingScenario(graph=graph, nets=generate_nets(grid, num_nets, seed))


@dataclass
class KernelResult:
    """The routing run's output figures on one instance."""

    overflow: int
    wirelength_tiles: int
    signature: str
    routes: Dict[str, RouteTree] = field(repr=False, default_factory=dict)


def routes_signature(routes: Dict[str, RouteTree]) -> str:
    """SHA-256 over every net's canonical (sorted, undirected) edge list."""
    canon = {
        name: sorted(
            (min(u, v), max(u, v)) for u, v in routes[name].edges()
        )
        for name in sorted(routes)
    }
    payload = json.dumps(canon, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def routes_as_json(routes: Dict[str, RouteTree]) -> Dict[str, List[List[List[int]]]]:
    """Canonical JSON-able edges per net (for golden files)."""
    return {
        name: [
            [list(min(u, v)), list(max(u, v))]
            for u, v in sorted(
                (min(u, v), max(u, v)) for u, v in routes[name].edges()
            )
        ]
        for name in sorted(routes)
    }


def run_routing_kernel(
    scenario: RoutingScenario,
    passes: int = 2,
    radius_weight: float = 0.4,
    window_margin: int = 6,
) -> KernelResult:
    """Route every net, then rip-up/reroute for ``passes`` full passes."""
    graph = scenario.graph
    routes: Dict[str, RouteTree] = {}
    for name, (source, sinks) in scenario.nets.items():
        tree = route_net_on_tiles(
            graph,
            source,
            sinks,
            radius_weight=radius_weight,
            net_name=name,
            window_margin=window_margin,
        )
        tree.add_usage(graph)
        routes[name] = tree
    options = RipupOptions(
        max_iterations=passes,
        radius_weight=radius_weight,
        window_margin=window_margin,
    )
    ripup_and_reroute(graph, routes, scenario.order, options)
    return KernelResult(
        overflow=wire_congestion_stats(graph).overflow,
        wirelength_tiles=sum(t.wirelength_tiles() for t in routes.values()),
        signature=routes_signature(routes),
        routes=routes,
    )
