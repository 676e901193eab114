"""Exact, local incremental re-planning for the planning service.

The exact-replay strategy
-------------------------

The service pipeline is sequential and deterministic: nets are routed in
sorted name order against accumulating wire usage, then buffered in the
same order against accumulating ``b(v)`` and the shrinking ``p(v)``
field. The incremental engine *re-executes the walk*, and replays a
cached result wherever the delta provably cannot have changed it. Three
rules decide, each built on what a step of the walk actually read or
changed:

1. **Each route records the window its search read.** The maze router
   stamps every tree with ``read_box``, the widest window any of its
   attempts searched (:func:`repro.routing.maze.route_net_on_tiles`).
   The wavefront reads ``costs[e]`` only between two live tiles; a live
   tile is inside the current window or on the partial tree, whose
   tiles earlier windows of the same net found, and the windows are
   nested. So a route is a function of the net's pins and of the Eq. (1)
   costs of the edges inside its ``read_box`` — and an edge's cost is a
   function of its ``W(e)`` and of the usage the nets before it booked.
   A tree of any other origin (a restored checkpoint) has
   ``read_box = None``, which stands for the whole grid.
2. **Route-dirty means the edge's prefix usage changed.** The route
   phase walks old and new nets together in name order and keeps, per
   edge, the new minus the old usage booked by the nets before the
   current one: a removed net subtracts its old edges when the walk
   reaches its name, a re-searched net whose edges changed swaps its
   cached edges for its new ones, an added net adds its edges. An edge
   is dirty while that difference is non-zero, and for the whole walk
   when its ``W(e)`` changed. A net is searched again only if its pins
   changed, it is new, or a dirty edge lies inside its ``read_box``.
   Otherwise every cost its cached search read is unchanged, the search
   would return the cached tree, and the tree is re-booked as it is. By
   induction over the walk every route, and so every prefix usage, is
   the full plan's.
3. **A rerouted net seeds the buffer phase only with the tiles it
   gained or lost.** :func:`repro.core.assignment.run_buffer_walk`
   adds every net's ``1/L`` to ``p(v)`` in walk order and removes it in
   walk order, so on a tile a rerouted net keeps, with its limit
   unchanged, the float operations — and every ``p(v)`` a solve reads
   there — are the same. Limit-changed, added and removed nets seed all
   of their tiles, as do tiles whose ``B(v)`` changed; the seeding is
   complete before the walk starts, because ``p(v)`` flows from later
   nets into earlier solves. ``b(v)`` flows forward instead: a re-solved
   net whose buffers moved dirties the tiles it changed as the walk
   commits it (``on_solved``). A net re-solves if it was rerouted, its
   pins or limit changed, it is new, or one of its tiles is dirty; every
   other net books its cached :class:`NetOutcome` verbatim.

The composed plan is therefore the one
:func:`repro.service.engine.full_plan` produces, byte for byte. The
scheduler's sampled verification (:mod:`repro.service.verify`) guards
against bugs, not against a known gap.

All site bookings happen inside one :class:`SiteLedger` transaction and
the mutated :class:`PlanState` is restored from a backup if anything
raises, so a failed partial re-plan leaves the baseline untouched.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.assignment import NetOutcome, buffering_signature, run_buffer_walk
from repro.errors import DeadlineError
from repro.obs import NULL_TRACER
from repro.routing.tree import RouteTree
from repro.service.engine import PlanState, route_one
from repro.service.jobs import DeltaSpec, ScenarioSpec, apply_delta
from repro.tilegraph.graph import TileGraph

Tile = Tuple[int, int]

_NO_EDGES = np.zeros(0, dtype=np.int64)


@dataclass
class IncrementalStats:
    """What one incremental re-plan actually did.

    ``nets_searched`` counts the maze searches the route phase ran;
    ``nets_rerouted`` counts only those whose route edges changed.
    ``dirty_tiles`` counts the buffer-dirty tiles plus the endpoints of
    the edges whose usage or ``W(e)`` differs from the old plan's.
    """

    signature: str
    seconds: float
    nets_total: int
    nets_rerouted: int
    nets_searched: int
    nets_resolved: int
    nets_replayed: int
    dirty_tiles: int
    rerouted_nets: List[str] = field(default_factory=list)
    resolved_nets: List[str] = field(default_factory=list)

    def as_dict(self) -> Dict[str, object]:
        return {
            "signature": self.signature,
            "seconds": round(self.seconds, 6),
            "nets_total": self.nets_total,
            "nets_rerouted": self.nets_rerouted,
            "nets_searched": self.nets_searched,
            "nets_resolved": self.nets_resolved,
            "nets_replayed": self.nets_replayed,
            "dirty_tiles": self.dirty_tiles,
        }


class _DirtyEdges:
    """Rule 2's route-dirty edge set, kept as the walk advances.

    ``delta[e]`` is the new minus the old usage the walk's prefix books
    on edge ``e``; an edge is dirty while that is non-zero, or for good
    when its ``W(e)`` changed. The mask is viewed as the horizontal
    ``(nx - 1, ny)`` and vertical ``(nx, ny - 1)`` edge grids, indexed by
    the lower tile, so the edges inside a box are two slices.
    """

    def __init__(self, graph: TileGraph, capacity_changed: np.ndarray) -> None:
        self._capacity_changed = capacity_changed
        self._delta = np.zeros(len(capacity_changed), dtype=np.int64)
        self._mask = capacity_changed.copy()
        self._any = bool(capacity_changed.any())
        self._shape = (graph.nx, graph.ny)
        nh = graph.num_h_edges
        self._h = self._mask[:nh].reshape(graph.nx - 1, graph.ny)
        self._v = self._mask[nh:].reshape(graph.nx, graph.ny - 1)

    def book(self, lost: np.ndarray, gained: np.ndarray) -> None:
        """One net's old edges leave the prefix and its new ones enter."""
        self._delta[lost] -= 1
        self._delta[gained] += 1
        np.not_equal(self._delta, 0, out=self._mask)
        self._mask |= self._capacity_changed
        self._any = bool(self._mask.any())

    def read_by(self, box: Optional[Tuple[int, int, int, int]]) -> bool:
        """Whether a dirty edge has both endpoints inside ``box``."""
        if not self._any:
            return False
        if box is None:
            return True
        x0, y0, x1, y1 = box
        return bool(
            self._h[x0:x1, y0 : y1 + 1].any() or self._v[x0 : x1 + 1, y0:y1].any()
        )

    def endpoint_mask(self) -> np.ndarray:
        """``(nx, ny)`` mask of the endpoints of the dirty edges."""
        tiles = np.zeros(self._shape, dtype=bool)
        tiles[:-1, :] |= self._h
        tiles[1:, :] |= self._h
        tiles[:, :-1] |= self._v
        tiles[:, 1:] |= self._v
        return tiles


def _normalize(pins) -> Tuple[Tile, Tuple[Tile, ...]]:
    source, sinks = pins
    return tuple(source), tuple(tuple(s) for s in sinks)


def _edge_ids(graph: TileGraph, tree: RouteTree) -> np.ndarray:
    """The tree's flat edge ids, sorted (a canonical edge set)."""
    edge_id = graph.edge_id
    ids = np.fromiter(
        (edge_id(u, v) for u, v in tree.edges()),
        dtype=np.int64,
        count=tree.num_edges(),
    )
    ids.sort()
    return ids


def incremental_replan(
    state: PlanState,
    delta: DeltaSpec,
    tracer=None,
    abort_check: "Callable[[], bool] | None" = None,
) -> IncrementalStats:
    """Apply ``delta`` to a cached baseline plan, in place.

    On success ``state`` holds the new plan (scenario, routes, outcomes,
    graph usage, signature). On any exception the backup is restored and
    the exception propagates — the baseline is never left half-planned.
    ``abort_check`` (the caller's deadline hook) is polled between nets
    of both phases; a True return raises
    :class:`repro.errors.DeadlineError`, so the backup is restored.
    Traced, the replan counts ``service.nets_searched`` and
    ``service.nets_rerouted``.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    new_scenario = apply_delta(state.scenario, delta)
    backup = state.backup()
    try:
        with tracer.span("service.incremental_replan"):
            stats = _replay(state, new_scenario, tracer, abort_check)
    except Exception:
        state.restore(backup)
        raise
    if tracer.enabled:
        tracer.count("service.nets_searched", stats.nets_searched)
        tracer.count("service.nets_rerouted", stats.nets_rerouted)
        tracer.gauge("service.dirty_nets", stats.nets_resolved)
        tracer.observe("service.incremental_seconds", stats.seconds)
    return stats


def _replay(
    state: PlanState, new_scenario: ScenarioSpec, tracer, abort_check
) -> IncrementalStats:
    start = time.perf_counter()
    graph = state.graph
    config = state.config
    old_scenario = state.scenario
    old_routes = state.routes
    old_outcomes = state.outcomes

    old_nets = {k: _normalize(v) for k, v in old_scenario.nets().items()}
    new_nets = {k: _normalize(v) for k, v in new_scenario.nets().items()}
    order = sorted(new_nets)

    # New nets count as pins-changed: they have no cached route.
    pins_changed = {
        name
        for name in new_nets
        if old_nets.get(name) != new_nets[name]
    }
    removed = set(old_nets) - set(new_nets)
    added = set(new_nets) - set(old_nets)
    old_limits = old_scenario.limits(old_nets)
    new_limits = new_scenario.limits(order)
    limit_changed = {
        name
        for name in order
        if name in old_nets and old_limits[name] != new_limits[name]
    }

    # ---- install the new scenario's capacities and sites --------------- #
    old_capacity = graph.edge_capacity.copy()
    old_sites = graph.sites.copy()
    graph.reset_usage()
    graph.edge_capacity[:] = new_scenario.capacity
    for u, v, cap in new_scenario.capacity_overrides:
        graph.set_wire_capacity(tuple(u), tuple(v), cap)
    graph._notify_all_usage_changed()
    graph.sites[:] = new_scenario.effective_sites()
    graph._notify_all_sites_changed()

    # ---- route phase (Rules 1 and 2) ----------------------------------- #
    dirty_edges = _DirtyEdges(graph, old_capacity != graph.edge_capacity)
    # The buffer phase's seed: tiles whose B(v) changed, plus the tiles
    # each re-searched net gains or loses (added below, as the walk goes).
    buffer_dirty: Set[Tile] = {
        (int(x), int(y))
        for x, y in zip(*np.nonzero(old_sites != graph.sites))
    }
    routes: Dict[str, RouteTree] = {}
    rerouted: List[str] = []
    searched = 0
    for name in sorted(new_nets.keys() | removed):
        if abort_check is not None and abort_check():
            raise DeadlineError(f"replan aborted before routing net {name!r}")
        cached = old_routes.get(name)
        if name in removed:
            dirty_edges.book(_edge_ids(graph, cached), _NO_EDGES)
            continue
        if name not in pins_changed and not dirty_edges.read_by(cached.read_box):
            cached.clear_buffers()  # rebooked bare; buffers re-booked below
            cached.add_usage(graph)
            routes[name] = cached
            continue
        source, sinks = new_nets[name]
        searched += 1
        tree = route_one(graph, name, source, list(sinks), config, tracer=tracer)
        tree.add_usage(graph)
        routes[name] = tree
        new_ids = _edge_ids(graph, tree)
        old_ids = _edge_ids(graph, cached) if cached is not None else _NO_EDGES
        if cached is None or not np.array_equal(old_ids, new_ids):
            rerouted.append(name)
            dirty_edges.book(old_ids, new_ids)
        if cached is not None:
            # Rule 3: on the tiles the net keeps, p(v) is unchanged.
            buffer_dirty.update(cached.nodes.keys() ^ tree.nodes.keys())

    # ---- buffer phase (Rule 3) ----------------------------------------- #
    # Seed everything that perturbs B(v) or a p(v) contribution; solves
    # earlier in the order read p(v) from *later* nets, so this must be
    # complete before the walk starts. b(v) differences are discovered
    # and propagated as the walk commits (`on_solved`).
    for name in removed:
        buffer_dirty.update(old_routes[name].nodes)
    for name in limit_changed | added:
        buffer_dirty.update(routes[name].nodes)

    forced = set(rerouted) | limit_changed | pins_changed
    resolved: List[str] = []

    def replay_cb(name: str):
        if name in forced or name not in old_outcomes:
            return None
        if not buffer_dirty.isdisjoint(routes[name].nodes):
            return None
        return old_outcomes[name]

    def on_solved(name: str, outcome: NetOutcome) -> None:
        resolved.append(name)
        old = old_outcomes.get(name)
        new_counts = _spec_counts(outcome)
        old_counts = _spec_counts(old) if old is not None else {}
        if new_counts != old_counts:
            for tile in set(new_counts) ^ set(old_counts):
                buffer_dirty.add(tile)
            for tile in set(new_counts) & set(old_counts):
                if new_counts[tile] != old_counts[tile]:
                    buffer_dirty.add(tile)

    outcomes = run_buffer_walk(
        graph,
        routes,
        new_limits,
        order,
        config,
        tracer=tracer,
        replay=replay_cb,
        on_solved=on_solved,
        abort_check=abort_check,
    )

    failed = [n for n in order if not outcomes[n].meets]
    state.scenario = new_scenario
    state.routes = routes
    state.outcomes = outcomes
    state.signature = buffering_signature(routes, graph, failed)
    dirty_tiles = dirty_edges.endpoint_mask()
    if buffer_dirty:
        xs, ys = zip(*buffer_dirty)
        dirty_tiles[list(xs), list(ys)] = True
    return IncrementalStats(
        signature=state.signature,
        seconds=time.perf_counter() - start,
        nets_total=len(order),
        nets_rerouted=len(rerouted),
        nets_searched=searched,
        nets_resolved=len(resolved),
        nets_replayed=len(order) - len(resolved),
        dirty_tiles=int(dirty_tiles.sum()),
        rerouted_nets=rerouted,
        resolved_nets=resolved,
    )


def _spec_counts(outcome: NetOutcome) -> Dict[Tile, int]:
    counts: Dict[Tile, int] = {}
    for spec in outcome.specs:
        counts[spec.tile] = counts.get(spec.tile, 0) + 1
    return counts
