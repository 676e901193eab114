"""The Stage-3 golden builder: a seeded buffering instance and its walk.

The scenario reuses the routing kernel's 32x32 / 500-net workload: every
net is maze-routed once, buffer sites are scattered with the paper's
recipe (a 9x9 blocked region plus a uniform scatter), and
:func:`run_buffering_kernel` runs the Stage-3 walk
(:func:`repro.core.assignment.run_buffer_walk`) over every net in name
order — the Eq. (2) cost evaluation, the Fig. 9 DP and its kind sizing,
the greedy fallback for DP-infeasible nets, and the ``p(v)`` bookkeeping.

Nothing here is timed. The buffering goldens
(``tests/golden/buffering_kernel_*`` and
``buffering_multitype_tech_16x16_seed0.json``) pin its output through
:func:`repro.core.assignment.buffering_signature`. The walk's timing is
measured by ``rabidbench`` (``core.rabid.stage3_s`` on ``plan-ami49``,
``service.engine.buffer_walk_s`` on ``eco-ladder32``);
``benchmarks/BENCH_buffering.json`` is the recorded history of the
retired timing emitter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.benchmarks.routing_kernel import (
    RoutingScenario,
    make_routing_scenario,
)
from repro.core.assignment import buffering_signature, run_buffer_walk
from repro.core.rabid import RabidConfig
from repro.routing.maze import route_net_on_tiles
from repro.routing.tree import RouteTree
from repro.tilegraph.sites import SiteDistribution


@dataclass
class BufferingScenario:
    """A reproducible Stage-3 workload: routed nets plus site distribution."""

    scenario: RoutingScenario
    routes: Dict[str, RouteTree]
    length_limit: int

    @property
    def graph(self):
        return self.scenario.graph

    @property
    def order(self) -> List[str]:
        return sorted(self.routes)


def make_buffering_scenario(
    grid: int = 32,
    num_nets: int = 500,
    capacity: int = 8,
    seed: int = 0,
    length_limit: int = 5,
    total_sites: int = 2500,
    site_seed: int = 0,
    window_margin: int = 6,
) -> BufferingScenario:
    """Route the kernel workload once and scatter the buffer sites.

    The routed trees and the site distribution are both deterministic in
    the seeds, so every call with the same arguments produces the same
    Stage-3 input instance.
    """
    scenario = make_routing_scenario(
        grid=grid, num_nets=num_nets, capacity=capacity, seed=seed
    )
    graph = scenario.graph
    routes: Dict[str, RouteTree] = {}
    for name, (source, sinks) in scenario.nets.items():
        tree = route_net_on_tiles(
            graph, source, sinks, net_name=name, window_margin=window_margin
        )
        tree.add_usage(graph)
        routes[name] = tree
    SiteDistribution(
        total_sites=total_sites, blocked_size=9, seed=site_seed
    ).apply(graph)
    return BufferingScenario(
        scenario=scenario,
        routes=routes,
        length_limit=length_limit,
    )


@dataclass
class BufferingKernelResult:
    """The Stage-3 walk's output figures on one instance."""

    buffers_inserted: int
    num_fails: int
    dp_infeasible: int
    failed_nets: List[str]
    signature: str


def run_buffering_kernel(
    instance: BufferingScenario,
    tracer=None,
    library: str = "single",
) -> BufferingKernelResult:
    """Run the Stage-3 walk over the whole instance in name order.

    ``library`` names the buffer library the walk sizes over; the
    default one-kind library reproduces the ``buffering_kernel_*``
    goldens exactly.
    """
    config = RabidConfig(buffer_library=library)
    limits = {name: instance.length_limit for name in instance.routes}
    outcomes = run_buffer_walk(
        instance.graph,
        instance.routes,
        limits,
        instance.order,
        config,
        tracer=tracer,
    )
    failed = [name for name, o in outcomes.items() if not o.meets]
    return BufferingKernelResult(
        buffers_inserted=sum(len(o.specs) for o in outcomes.values()),
        num_fails=len(failed),
        dp_infeasible=sum(1 for o in outcomes.values() if not o.dp_ok),
        failed_nets=failed,
        signature=buffering_signature(instance.routes, instance.graph, failed),
    )
