"""The planning engine behind the service: full plans and cached state.

The service pipeline routes every net once (congestion-aware maze
search, sorted name order), then runs the Stage-3 walk in the same
order: :func:`repro.core.assignment.run_buffer_walk`, the walk RABID's
Stage 3 runs in descending-delay order. The engine keeps the walk's
*per-net* outcomes — the exact buffer specs, length-rule verdict, DP
feasibility, and Eq. (2) cost each net committed — because the
incremental engine (:mod:`repro.service.incremental`) replays those
cached outcomes verbatim for nets a delta cannot have touched.

Determinism is the load-bearing property: a :class:`ScenarioSpec` fully
determines the plan, so ``full_plan(scenario)`` is the reference the
incremental path must (and is sample-verified to) reproduce.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.core.assignment import NetOutcome, buffering_signature, run_buffer_walk
from repro.core.candidates import INF
from repro.core.rabid import RabidConfig
from repro.geometry import Rect
from repro.obs import NULL_TRACER
from repro.routing.maze import route_net_on_tiles
from repro.routing.tree import RouteTree
from repro.service.jobs import ScenarioSpec
from repro.tilegraph import CapacityModel, TileGraph

Tile = Tuple[int, int]


@dataclass
class PlanBackup:
    """Everything needed to restore a :class:`PlanState` in place."""

    scenario: ScenarioSpec
    routes: Dict[str, RouteTree]
    outcomes: Dict[str, NetOutcome]
    signature: str
    usage: tuple
    sites: np.ndarray
    edge_capacity: np.ndarray


@dataclass
class PlanState:
    """A cached baseline plan the service can re-plan incrementally.

    The graph carries the plan's full usage state (wire usage, ``b(v)``
    bookings); ``routes`` and ``outcomes`` pin each net's tree and
    committed buffering. ``signature`` is the buffering-kernel SHA-256
    (specs + used-sites grid + failed nets) that identifies the plan.
    """

    scenario: ScenarioSpec
    config: RabidConfig
    graph: TileGraph
    routes: Dict[str, RouteTree]
    outcomes: Dict[str, NetOutcome]
    signature: str
    seconds_full: float = 0.0

    @property
    def order(self) -> List[str]:
        return sorted(self.routes)

    @property
    def failed_nets(self) -> List[str]:
        return sorted(n for n, o in self.outcomes.items() if not o.meets)

    def limits(self) -> Dict[str, int]:
        return self.scenario.limits(self.order)

    def summary(self) -> Dict[str, object]:
        return {
            "signature": self.signature,
            "nets": len(self.routes),
            "buffers": sum(len(o.specs) for o in self.outcomes.values()),
            "failed_nets": self.failed_nets,
            "seconds_full": round(self.seconds_full, 4),
        }

    # -- rollback -------------------------------------------------------- #

    def backup(self) -> PlanBackup:
        """Snapshot for rollback-safe incremental re-planning."""
        return PlanBackup(
            scenario=self.scenario,
            routes=dict(self.routes),
            outcomes=dict(self.outcomes),
            signature=self.signature,
            usage=self.graph.snapshot_usage(),
            sites=self.graph.sites.copy(),
            edge_capacity=self.graph.edge_capacity.copy(),
        )

    def restore(self, backup: PlanBackup) -> None:
        """Undo a failed partial re-plan: graph arrays, routes, outcomes.

        Buffer annotations live on the trees and may have been rewritten
        mid-replay, so each surviving tree gets its cached specs
        re-applied.
        """
        graph = self.graph
        graph.sites[:] = backup.sites
        graph._notify_all_sites_changed()
        graph.edge_capacity[:] = backup.edge_capacity
        graph.restore_usage(backup.usage)
        self.scenario = backup.scenario
        self.routes = backup.routes
        self.outcomes = backup.outcomes
        self.signature = backup.signature
        for name, tree in self.routes.items():
            tree.apply_buffers(list(self.outcomes[name].specs))


def build_graph(scenario: ScenarioSpec) -> TileGraph:
    """Materialize a scenario's tile graph: die, ``W(e)``, ``B(v)``."""
    grid = scenario.grid
    graph = TileGraph(
        Rect(0.0, 0.0, float(grid), float(grid)),
        grid,
        grid,
        CapacityModel.uniform(scenario.capacity),
    )
    for u, v, cap in scenario.capacity_overrides:
        graph.set_wire_capacity(tuple(u), tuple(v), cap)
    graph.sites[:] = scenario.effective_sites()
    graph._notify_all_sites_changed()
    return graph


def route_one(
    graph: TileGraph,
    name: str,
    source: Tile,
    sinks,
    config: RabidConfig,
    tracer=None,
) -> RouteTree:
    """Route one net with the service's fixed routing parameters.

    Both the full and the incremental path call exactly this, so a
    rerouted net inside a replay reproduces what the full plan would
    route given the same prefix usage state.
    """
    return route_net_on_tiles(
        graph,
        source,
        list(sinks),
        radius_weight=config.pd_tradeoff,
        net_name=name,
        window_margin=config.window_margin,
        tracer=tracer,
    )


def full_plan(
    scenario: ScenarioSpec,
    config: "RabidConfig | None" = None,
    tracer=None,
    abort_check: "Callable[[], bool] | None" = None,
) -> PlanState:
    """Plan a scenario from scratch; the incremental path's reference.

    ``abort_check`` (the caller's deadline hook) is polled between
    routed nets and between buffered nets; a True return abandons the
    partial plan by raising :class:`repro.errors.DeadlineError`. The
    plan is built on a fresh graph, so an abort leaves no shared state
    to undo.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    config = config or RabidConfig()
    if scenario.buffer_library:
        # A scenario-pinned library replaces the config's; with
        # buffer_library == "" the config is untouched, so legacy
        # scenarios plan byte-identically to before the field existed.
        from dataclasses import replace

        config = replace(config, buffer_library=scenario.buffer_library)
    start = time.perf_counter()
    with tracer.span("service.full_plan", nets=scenario.num_nets):
        graph = build_graph(scenario)
        nets = scenario.nets()
        order = sorted(nets)
        routes: Dict[str, RouteTree] = {}
        for name in order:
            if abort_check is not None and abort_check():
                from repro.errors import DeadlineError

                raise DeadlineError(f"full plan aborted before routing net {name!r}")
            source, sinks = nets[name]
            tree = route_one(graph, name, source, sinks, config, tracer=tracer)
            tree.add_usage(graph)
            routes[name] = tree
        limits = scenario.limits(order)
        outcomes = run_buffer_walk(
            graph, routes, limits, order, config, tracer=tracer,
            abort_check=abort_check,
        )
    failed = [n for n in order if not outcomes[n].meets]
    state = PlanState(
        scenario=scenario,
        config=config,
        graph=graph,
        routes=routes,
        outcomes=outcomes,
        signature=buffering_signature(routes, graph, failed),
        seconds_full=time.perf_counter() - start,
    )
    if tracer.enabled:
        tracer.observe("service.full_plan_seconds", state.seconds_full)
    return state


def plan_cost(outcomes: Dict[str, NetOutcome]) -> float:
    """Total committed Eq. (2) cost (greedy-fallback nets excluded)."""
    return sum(o.cost for o in outcomes.values() if o.cost != INF)
