"""Congestion-driven maze routing on the tile graph (Stage 2, Eq. 1).

``congestion_cost`` implements the paper's Eq. (1):

    Cost(e) = (w(e) + 1) / (W(e) - w(e))   when w(e)/W(e) < 1
              infinity                     otherwise

The router grows a tree from the source tile by wavefront (Dijkstra)
expansion: each unreached sink is connected to the partial tree by a
minimum-cost path, nearest sink first; shared prefixes make the result a
Steiner tree over tiles. An optional Prim-Dijkstra-style ``radius_weight``
biases attachment points by their congestion-cost distance from the source,
mirroring the Stage-1 trade-off on the tile graph.

When the strict cost leaves a sink unreachable (every remaining cut is at
capacity), the router retries with a *soft* cost that charges a large but
finite penalty per overfull edge, guaranteeing a route exists on a
connected grid.

The wavefront itself runs on the graph's flat CSR index
(:meth:`TileGraph.flat`): integer tile ids, per-edge costs read from the
:class:`~repro.tilegraph.cost_cache.CongestionCostCache` lists, and
preallocated dist/parent buffers held in a :class:`RoutingWorkspace` that
is reused across nets (stamped with a search epoch instead of cleared).
Because tile id ``x * ny + y`` is monotone in the ``(x, y)`` lexicographic
order the old object-keyed heap used for tie-breaking, and the cached
costs are bit-identical to the scalar formulas, the flat kernel settles
tiles in exactly the same order and returns byte-identical trees.

A caller-supplied ``cost_fn`` other than the two built-ins still works —
it takes the original dict-based wavefront — but the fast path also
accepts ``cost_array`` (per-edge-id costs) so bulk callers like the MCF
router can stay on the flat kernel.
"""

from __future__ import annotations

import heapq
import weakref
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import RoutingError
from repro.routing.tree import RouteTree
from repro.tilegraph.cost_cache import OVERFLOW_PENALTY
from repro.tilegraph.graph import Tile, TileGraph

EdgeCost = Callable[[TileGraph, Tile, Tile], float]

__all__ = [
    "OVERFLOW_PENALTY",
    "RoutingWorkspace",
    "congestion_cost",
    "route_net_on_tiles",
    "scalar_edge_cost",
    "soft_congestion_cost",
]

_INF = float("inf")


def congestion_cost(graph: TileGraph, u: Tile, v: Tile) -> float:
    """Paper Eq. (1): wires-crossing over wires-remaining, or infinity."""
    usage = graph.wire_usage(u, v)
    capacity = graph.wire_capacity(u, v)
    if capacity <= 0 or usage >= capacity:
        return float("inf")
    return (usage + 1) / (capacity - usage)


def soft_congestion_cost(graph: TileGraph, u: Tile, v: Tile) -> float:
    """Eq. (1) with saturation mapped to a large finite penalty.

    Keeps the router total: on a connected grid every sink is reachable,
    at the price of recorded overflow (which later passes will repair).
    """
    usage = graph.wire_usage(u, v)
    capacity = graph.wire_capacity(u, v)
    if capacity <= 0:
        return OVERFLOW_PENALTY * (usage + 1)
    if usage >= capacity:
        return OVERFLOW_PENALTY * (usage - capacity + 1)
    return (usage + 1) / (capacity - usage)


def scalar_edge_cost(graph: TileGraph, cost_fn: EdgeCost) -> EdgeCost:
    """Swap a built-in cost for its cached-lookup equivalent.

    The monotone optimizer evaluates edge costs one scalar at a time
    while *mutating usage between evaluations*, so it cannot hold
    a cost list across calls; the returned closure re-reads the cache on
    every lookup, which is still just a staleness check plus a list index
    once the dirty set is empty. Unrecognized cost functions are returned
    unchanged.
    """
    if cost_fn is congestion_cost:
        cache = graph.cost_cache()
        edge_id = graph.edge_id

        def _strict(_g: TileGraph, u: Tile, v: Tile) -> float:
            return cache.strict_costs()[edge_id(u, v)]

        return _strict
    if cost_fn is soft_congestion_cost:
        cache = graph.cost_cache()
        edge_id = graph.edge_id

        def _soft(_g: TileGraph, u: Tile, v: Tile) -> float:
            return cache.soft_costs()[edge_id(u, v)]

        return _soft
    return cost_fn


def _search_window(
    graph: TileGraph, tiles: Sequence[Tile], margin: int
) -> Tuple[int, int, int, int]:
    """Bounding box of ``tiles`` expanded by ``margin``, clipped to grid."""
    xs = [t[0] for t in tiles]
    ys = [t[1] for t in tiles]
    return (
        max(0, min(xs) - margin),
        max(0, min(ys) - margin),
        min(graph.nx - 1, max(xs) + margin),
        min(graph.ny - 1, max(ys) + margin),
    )


class RoutingWorkspace:
    """Preallocated wavefront buffers for one tile graph, reused per search.

    Buffers are *stamped*, not cleared: :meth:`begin` bumps an epoch and a
    slot only counts as written when its stamp matches, so starting a new
    search costs O(1) instead of O(num_tiles). One workspace serves any
    number of sequential searches; concurrent searches (parallel Stage 2)
    each need their own instance.
    """

    __slots__ = ("num_tiles", "epoch", "dist", "dist_stamp",
                 "parent", "parent_eid", "heap")

    def __init__(self, num_tiles: int) -> None:
        self.num_tiles = num_tiles
        self.epoch = 0
        self.dist: List[float] = [0.0] * num_tiles
        self.dist_stamp: List[int] = [0] * num_tiles
        self.parent: List[int] = [0] * num_tiles
        self.parent_eid: List[int] = [0] * num_tiles
        self.heap: List[Tuple[float, int]] = []

    def begin(self) -> int:
        """Start a fresh search; returns the new epoch."""
        self.epoch += 1
        del self.heap[:]
        return self.epoch


#: One lazily-created default workspace per graph (sequential callers).
_default_workspaces: "weakref.WeakKeyDictionary[TileGraph, RoutingWorkspace]" = (
    weakref.WeakKeyDictionary()
)


def workspace_for(graph: TileGraph) -> RoutingWorkspace:
    """The graph's shared sequential workspace (created on first use)."""
    ws = _default_workspaces.get(graph)
    if ws is None or ws.num_tiles != graph.num_tiles:
        ws = RoutingWorkspace(graph.num_tiles)
        _default_workspaces[graph] = ws
    return ws


def _dijkstra_flat(
    flat,
    ws: RoutingWorkspace,
    costs: Sequence[float],
    seeds: Sequence[Tuple[int, float]],
    targets: Set[int],
    window: Tuple[int, int, int, int],
    blocked: Iterable[int] = (),
) -> Tuple[int, int, int, int]:
    """Flat-index wavefront from ``seeds`` until the cheapest target settles.

    Returns ``(target_idx, expanded, pops, lookups)`` with ``target_idx``
    of -1 when no target is reachable within the window under finite
    costs. Parent links land in ``ws.parent``/``ws.parent_eid`` (valid for
    this epoch only). Seeds are expandable even when they lie outside the
    window — only *neighbor* tiles are window-clipped, matching the
    object-graph router. ``blocked`` tile indices are never entered (a
    seed among them is still expanded).
    """
    x0, y0, x1, y1 = window
    epoch = ws.begin()
    dist = ws.dist
    dist_stamp = ws.dist_stamp
    parent = ws.parent
    parent_eid = ws.parent_eid
    adj = flat.adj
    ny = flat.ny
    # One byte per tile doubling as window membership AND not-yet-settled:
    # a single index in the inner loop instead of a window test plus a
    # settled-stamp compare. Settling clears the byte; out-of-window tiles
    # start cleared, which excludes them exactly like a window test would.
    live = bytearray(flat.num_tiles)
    row = b"\x01" * (y1 - y0 + 1)
    for x in range(x0, x1 + 1):
        base = x * ny + y0
        live[base : base + len(row)] = row
    for idx in blocked:
        live[idx] = 0
    heap = ws.heap
    for idx, c in seeds:
        dist[idx] = c
        dist_stamp[idx] = epoch
        # Seeds are expandable even when outside the window.
        live[idx] = 1
        heap.append((c, idx))
    heapq.heapify(heap)
    push = heapq.heappush
    pop = heapq.heappop
    expanded = 0
    pops = 0
    lookups = 0
    while heap:
        d, u = pop(heap)
        pops += 1
        if not live[u]:
            continue
        live[u] = 0
        expanded += 1
        if u in targets:
            return u, expanded, pops, lookups
        for v, eid in adj[u]:
            if not live[v]:
                continue
            step = costs[eid]
            lookups += 1
            if step == _INF:
                continue
            nd = d + step
            if dist_stamp[v] != epoch or nd < dist[v]:
                dist[v] = nd
                dist_stamp[v] = epoch
                parent[v] = u
                parent_eid[v] = eid
                push(heap, (nd, v))
    return -1, expanded, pops, lookups


def _dijkstra_to_sink(
    graph: TileGraph,
    seeds: Dict[Tile, float],
    targets: Set[Tile],
    cost_fn: EdgeCost,
    window: Tuple[int, int, int, int],
) -> Tuple[Optional[Tuple[Tile, Dict[Tile, Tile]]], int]:
    """Dict-keyed wavefront — the fallback for caller-supplied cost_fns.

    Returns ``(result, nodes_expanded)`` where ``result`` is (reached
    target, predecessor map) or None when unreachable within the window
    under finite costs, and ``nodes_expanded`` counts settled tiles.
    """
    x0, y0, x1, y1 = window
    dist: Dict[Tile, float] = dict(seeds)
    pred: Dict[Tile, Tile] = {}
    heap: List[Tuple[float, Tile]] = [(c, t) for t, c in seeds.items()]
    heapq.heapify(heap)
    settled: Set[Tile] = set()
    expanded = 0
    while heap:
        d, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        expanded += 1
        if u in targets:
            return (u, pred), expanded
        for v in graph.neighbors(u):
            if not (x0 <= v[0] <= x1 and y0 <= v[1] <= y1):
                continue
            if v in settled:
                continue
            step = cost_fn(graph, u, v)
            if step == float("inf"):
                continue
            nd = d + step
            if nd < dist.get(v, float("inf")):
                dist[v] = nd
                pred[v] = u
                heapq.heappush(heap, (nd, v))
    return None, expanded


def _route_net_flat(
    graph: TileGraph,
    source: Tile,
    sinks: Sequence[Tile],
    strict_costs: Sequence[float],
    soft_costs_fn: Callable[[], Sequence[float]],
    start_soft: bool,
    radius_weight: float,
    net_name: str,
    window_margin: int,
    tracer,
    workspace: Optional[RoutingWorkspace],
    cache_backed: bool,
) -> RouteTree:
    """Fast path: route with per-edge-id cost lists on the flat index."""
    flat = graph.flat()
    ws = workspace if workspace is not None else workspace_for(graph)
    tile_index = graph.tile_index
    tile_at = graph.tile_at

    sink_set = {t for t in sinks}
    source_idx = tile_index(source)
    # idx -> path cost from source; insertion order mirrors tree growth.
    tree_tiles: Dict[int, float] = {source_idx: 0.0}
    parent: Dict[Tile, Tile] = {}
    pending: Set[int] = {tile_index(t) for t in sink_set} - {source_idx}

    all_pins = [source] + list(sinks)
    margins = [window_margin, window_margin * 4, max(graph.nx, graph.ny)]
    total_expanded = 0
    total_pops = 0
    total_lookups = 0
    # True once any search read beyond the first window (wider margins or
    # the soft rescan). Soft-start callers are conservatively escalated.
    escalated = start_soft

    while pending:
        target = -1
        used_costs = soft_costs_fn() if start_soft else strict_costs
        soft = start_soft
        for attempt, margin in enumerate(margins):
            window = _search_window(graph, all_pins, margin)
            seeds = [
                (idx, radius_weight * path_cost)
                for idx, path_cost in tree_tiles.items()
            ]
            target, expanded, pops, lookups = _dijkstra_flat(
                flat, ws, used_costs, seeds, pending, window
            )
            total_expanded += expanded
            total_pops += pops
            total_lookups += lookups
            if target >= 0:
                break
            escalated = True
            if attempt == len(margins) - 1 and not soft:
                # Full-grid strict search failed: relax to the soft cost
                # and rescan the margins. The workspace (dist/parent/heap
                # buffers) carries over — only the epoch advances.
                soft = True
                used_costs = soft_costs_fn()
                for margin2 in margins:
                    window = _search_window(graph, all_pins, margin2)
                    target, expanded, pops, lookups = _dijkstra_flat(
                        flat, ws, used_costs, seeds, pending, window
                    )
                    total_expanded += expanded
                    total_pops += pops
                    total_lookups += lookups
                    if target >= 0:
                        break
                break
        if target < 0:
            unreachable = sorted(tile_at(i) for i in pending)
            raise RoutingError(
                f"net {net_name!r}: sink(s) {unreachable} unreachable from {source}"
            )
        # Walk back to the tree, recording path costs from the source.
        ws_parent = ws.parent
        ws_parent_eid = ws.parent_eid
        path = [target]
        while path[-1] not in tree_tiles:
            path.append(ws_parent[path[-1]])
        attach = path[-1]
        path.reverse()  # attach ... target
        running = tree_tiles[attach]
        for b in path[1:]:
            running += used_costs[ws_parent_eid[b]]
            if b not in tree_tiles:
                tree_tiles[b] = running
                parent[tile_at(b)] = tile_at(ws_parent[b])
        pending -= tree_tiles.keys()

    if tracer is not None and tracer.enabled:
        if total_expanded:
            tracer.count("maze_nodes_expanded", total_expanded)
        if total_pops:
            tracer.count("route.heap_pops", total_pops)
        if cache_backed and total_lookups:
            tracer.count("route.cache_hits", total_lookups)
    sink_tiles = sorted(sink_set)
    tree = RouteTree.from_parent_map(source, parent, sink_tiles, net_name=net_name)
    # Everything this search read lies inside the first window iff it
    # never escalated — the parallel Stage-2 commit relies on this flag.
    tree.search_escalated = escalated
    return tree


def _route_net_generic(
    graph: TileGraph,
    source: Tile,
    sinks: Sequence[Tile],
    cost_fn: EdgeCost,
    radius_weight: float,
    net_name: str,
    window_margin: int,
    tracer,
) -> RouteTree:
    """Dict-keyed path for caller-supplied cost functions."""
    sink_set = {t for t in sinks}
    tree_tiles: Dict[Tile, float] = {source: 0.0}  # tile -> path cost from source
    parent: Dict[Tile, Tile] = {}
    pending: Set[Tile] = set(sink_set) - {source}

    all_pins = [source] + list(sinks)
    margins = [window_margin, window_margin * 4, max(graph.nx, graph.ny)]
    total_expanded = 0
    escalated = cost_fn is soft_congestion_cost

    while pending:
        found = None
        used_cost: EdgeCost = cost_fn
        for attempt, margin in enumerate(margins):
            window = _search_window(graph, all_pins, margin)
            seeds = {
                t: radius_weight * path_cost for t, path_cost in tree_tiles.items()
            }
            found, expanded = _dijkstra_to_sink(
                graph, seeds, pending, used_cost, window
            )
            total_expanded += expanded
            if found is not None:
                break
            escalated = True
            if attempt == len(margins) - 1 and used_cost is not soft_congestion_cost:
                # Full-grid search failed: relax to the soft cost and
                # rescan the margins.
                used_cost = soft_congestion_cost
                for margin2 in margins:
                    window = _search_window(graph, all_pins, margin2)
                    found, expanded = _dijkstra_to_sink(
                        graph, seeds, pending, used_cost, window
                    )
                    total_expanded += expanded
                    if found is not None:
                        break
                break
        if found is None:
            raise RoutingError(
                f"net {net_name!r}: sink(s) {sorted(pending)} unreachable from {source}"
            )
        target, pred = found
        # Walk back to the tree, recording path costs from the source.
        path = [target]
        while path[-1] not in tree_tiles:
            path.append(pred[path[-1]])
        attach = path[-1]
        path.reverse()  # attach ... target
        running = tree_tiles[attach]
        for a, b in zip(path, path[1:]):
            running += used_cost(graph, a, b)
            if b not in tree_tiles:
                tree_tiles[b] = running
                parent[b] = a
        pending -= set(tree_tiles)

    if tracer is not None and tracer.enabled and total_expanded:
        tracer.count("maze_nodes_expanded", total_expanded)
    sink_tiles = sorted(sink_set)
    tree = RouteTree.from_parent_map(source, parent, sink_tiles, net_name=net_name)
    tree.search_escalated = escalated
    return tree


def route_net_on_tiles(
    graph: TileGraph,
    source: Tile,
    sinks: Sequence[Tile],
    cost_fn: EdgeCost = congestion_cost,
    radius_weight: float = 0.0,
    net_name: str = "",
    window_margin: int = 6,
    tracer=None,
    cost_array: Optional[Sequence[float]] = None,
    workspace: Optional[RoutingWorkspace] = None,
) -> RouteTree:
    """Route one net on the tile graph, congestion-aware.

    Args:
        graph: tile graph carrying current usage (this net must already be
            ripped up, i.e., its own usage removed).
        source: driver tile.
        sinks: sink tiles (duplicates and the source tile allowed).
        cost_fn: per-edge cost; defaults to the strict Eq. (1) cost. The
            two built-ins run on the flat kernel with cached cost lists;
            any other callable takes the dict-keyed fallback.
        radius_weight: PD-style bias ``c``; attaching to a tree tile whose
            path cost from the source is ``P`` charges ``c * P`` up front.
        net_name: label for the returned tree.
        window_margin: initial search-window margin in tiles; doubled, then
            dropped (whole grid) if a sink is unreachable, before falling
            back to the soft cost.
        tracer: optional :class:`repro.obs.Tracer`; accumulates
            ``maze_nodes_expanded``, ``route.heap_pops`` and (when the
            cost cache serves the search) ``route.cache_hits``.
        cost_array: per-edge-id costs overriding ``cost_fn`` on the flat
            kernel (bulk callers, e.g. the MCF router). The soft-cost
            fallback still applies when it leaves a sink unreachable.
        workspace: preallocated buffers to use; defaults to the graph's
            shared sequential workspace. Parallel callers must pass a
            per-thread instance.

    Returns:
        A :class:`RouteTree` connecting the source to every sink. The
        tree carries a ``search_escalated`` attribute — ``False``
        guarantees every edge the search read lies inside the first
        ``window_margin`` window around the pins (the speculation
        contract of the parallel Stage-2 pool backend).

    Raises:
        RoutingError: only if even the soft cost cannot connect (grid
            disconnected), which cannot happen on a standard grid.
    """
    if cost_array is not None:
        cache = graph.cost_cache()
        return _route_net_flat(
            graph, source, sinks, cost_array, cache.soft_costs, False,
            radius_weight, net_name, window_margin, tracer, workspace,
            cache_backed=False,
        )
    if cost_fn is congestion_cost:
        cache = graph.cost_cache()
        return _route_net_flat(
            graph, source, sinks, cache.strict_costs(), cache.soft_costs,
            False, radius_weight, net_name, window_margin, tracer, workspace,
            cache_backed=True,
        )
    if cost_fn is soft_congestion_cost:
        cache = graph.cost_cache()
        return _route_net_flat(
            graph, source, sinks, cache.soft_costs(), cache.soft_costs,
            True, radius_weight, net_name, window_margin, tracer, workspace,
            cache_backed=True,
        )
    return _route_net_generic(
        graph, source, sinks, cost_fn, radius_weight, net_name,
        window_margin, tracer,
    )
