"""The flat-array maze kernel: fallback parity, workspaces, blocked tiles."""

import heapq
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import RoutingError
from repro.routing.maze import (
    RoutingWorkspace,
    _dijkstra_flat,
    _search_window,
    congestion_cost,
    route_net_on_tiles,
    scalar_edge_cost,
    soft_congestion_cost,
    workspace_for,
)
from repro.routing.tree import RouteTree
from repro.tilegraph import CapacityModel, TileGraph
from repro.tilegraph.graph import Tile, TileGraph

EdgeCost = Callable[[TileGraph, Tile, Tile], float]

# Reference: the dict-keyed wavefront ``route_net_on_tiles`` once ran for
# caller-supplied cost functions, copied verbatim. It calls the scalar
# cost formulas, so it also checks the flat kernel's cached cost lists.


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



def canonical_edges(tree):
    return sorted((min(u, v), max(u, v)) for u, v in tree.edges())


def saturate_column(graph, x):
    """Fill every horizontal edge (x, y)-(x+1, y) to capacity."""
    for y in range(graph.ny):
        cap = graph.wire_capacity((x, y), (x + 1, y))
        graph.add_wire((x, y), (x + 1, y), cap)


class TestSoftFallbackParity:
    def test_strict_to_soft_fallback_matches_direct_soft_run(self, die10):
        """Regression: the strict->soft retry must return the same tree as
        routing with the soft cost from the start (same buffers reused)."""
        graph_a = TileGraph(die10, 10, 10, CapacityModel.uniform(2))
        graph_b = TileGraph(die10, 10, 10, CapacityModel.uniform(2))
        for g in (graph_a, graph_b):
            saturate_column(g, 4)  # wall between x=4 and x=5
        fallback = route_net_on_tiles(graph_a, (0, 5), [(9, 5)])
        direct = _route_net_generic(
            graph_b, (0, 5), [(9, 5)], soft_congestion_cost, 0.0, "", 6, None
        )
        assert canonical_edges(fallback) == canonical_edges(direct)

    def test_fallback_reuses_workspace_buffers(self, die10):
        """The soft retry runs on the same preallocated buffers (no new
        workspace allocation mid-net)."""
        graph = TileGraph(die10, 10, 10, CapacityModel.uniform(2))
        saturate_column(graph, 4)
        ws = workspace_for(graph)
        assert not ws.heap
        epoch_before = ws.epoch
        route_net_on_tiles(graph, (0, 5), [(9, 5)])
        assert workspace_for(graph) is ws
        # strict margins (3 windows) + at least one soft rescan, all on
        # the same workspace: the epoch advanced once per search.
        assert ws.epoch >= epoch_before + 4


class TestFlatVsGenericParity:
    def test_flat_path_matches_generic_dict_path(self, die10):
        """The flat kernel and the dict-keyed reference agree edge-for-edge."""
        flat_graph = TileGraph(die10, 10, 10, CapacityModel.uniform(3))
        generic_graph = TileGraph(die10, 10, 10, CapacityModel.uniform(3))
        rng = np.random.default_rng(7)
        pins = []
        for _ in range(30):
            pts = [(int(a), int(b)) for a, b in rng.integers(0, 10, size=(4, 2))]
            pins.append((pts[0], pts[1:]))

        for i, (source, sinks) in enumerate(pins):
            fast = route_net_on_tiles(
                flat_graph, source, sinks, radius_weight=0.4, net_name=f"n{i}"
            )
            slow = _route_net_generic(
                generic_graph, source, sinks, congestion_cost, 0.4, f"n{i}",
                6, None,
            )
            assert canonical_edges(fast) == canonical_edges(slow), f"net {i}"
            fast.add_usage(flat_graph)
            slow.add_usage(generic_graph)
        assert (flat_graph.edge_usage == generic_graph.edge_usage).all()

    def test_scalar_edge_cost_tracks_mutation(self, graph10):
        """The monotone optimizer's lookup reads the soft cost afresh
        after every usage change, overfull edges included."""
        lookup = scalar_edge_cost(graph10)
        edge = ((0, 0), (1, 0))
        capacity = graph10.wire_capacity(*edge)
        for load in (0, capacity - 1, 1, capacity):
            assert lookup(*edge) == soft_congestion_cost(graph10, *edge)
            graph10.add_wire(*edge, load)
        assert lookup(*edge) == soft_congestion_cost(graph10, *edge)
        assert graph10.wire_usage(*edge) > capacity


class TestBlockedTiles:
    def _path(self, graph, ws, target):
        path = [target]
        while path[-1] != graph.tile_index((0, 5)):
            path.append(ws.parent[path[-1]])
        return [graph.tile_at(i) for i in reversed(path)]

    def test_blocked_tiles_are_never_entered(self, graph10):
        """A wall of blocked tiles with one gap forces the path through it."""
        index = graph10.tile_index
        ws = RoutingWorkspace(graph10.num_tiles)
        wall = {(5, y) for y in range(1, 10)}
        target, _, _, _ = _dijkstra_flat(
            graph10.flat(), ws, graph10.cost_cache().strict_costs(),
            [(index((0, 5)), 0.0)], {index((9, 5))}, (0, 0, 9, 9),
            blocked=[index(t) for t in wall],
        )
        path = self._path(graph10, ws, target)
        assert path[-1] == (9, 5)
        assert (5, 0) in path and not wall & set(path)

    def test_blocked_seed_still_expands(self, graph10):
        index = graph10.tile_index
        ws = RoutingWorkspace(graph10.num_tiles)
        target, _, _, _ = _dijkstra_flat(
            graph10.flat(), ws, graph10.cost_cache().strict_costs(),
            [(index((0, 5)), 0.0)], {index((3, 5))}, (0, 0, 9, 9),
            blocked=[index((0, 5))],
        )
        assert self._path(graph10, ws, target) == [(x, 5) for x in range(4)]


class TestRouteCounters:
    def test_heap_pops_and_cache_hits_counted(self, graph10):
        from repro.obs import Tracer

        tracer = Tracer()
        route_net_on_tiles(graph10, (0, 0), [(7, 7)], tracer=tracer)
        expanded = tracer.metrics.value("maze_nodes_expanded")
        assert expanded > 0
        assert tracer.metrics.value("route.heap_pops") >= expanded
        assert tracer.metrics.value("route.cache_hits") > 0
