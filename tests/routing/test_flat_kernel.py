"""The flat-array maze kernel: fallback parity, workspaces, parallel Stage 2."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.geometry import Rect
from repro.routing.maze import (
    RoutingWorkspace,
    _dijkstra_flat,
    congestion_cost,
    route_net_on_tiles,
    scalar_edge_cost,
    soft_congestion_cost,
    workspace_for,
)
from repro.routing.ripup import RipupOptions, ripup_and_reroute
from repro.tilegraph import CapacityModel, TileGraph


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
        direct = route_net_on_tiles(
            graph_b, (0, 5), [(9, 5)], cost_fn=soft_congestion_cost
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

    def test_explicit_workspace_is_used(self, graph10):
        ws = RoutingWorkspace(graph10.num_tiles)
        tree = route_net_on_tiles(graph10, (0, 0), [(5, 5)], workspace=ws)
        assert ws.epoch > 0
        assert tree.sink_tiles == [(5, 5)]


class TestFlatVsGenericParity:
    def test_flat_path_matches_generic_dict_path(self, die10):
        """The flat kernel and the dict-based fallback agree edge-for-edge."""
        flat_graph = TileGraph(die10, 10, 10, CapacityModel.uniform(3))
        generic_graph = TileGraph(die10, 10, 10, CapacityModel.uniform(3))
        rng = np.random.default_rng(7)
        pins = []
        for _ in range(30):
            pts = [(int(a), int(b)) for a, b in rng.integers(0, 10, size=(4, 2))]
            pins.append((pts[0], pts[1:]))

        def strict_clone(graph, u, v):  # not `is congestion_cost` -> generic path
            return congestion_cost(graph, u, v)

        for i, (source, sinks) in enumerate(pins):
            fast = route_net_on_tiles(
                flat_graph, source, sinks, radius_weight=0.4, net_name=f"n{i}"
            )
            slow = route_net_on_tiles(
                generic_graph, source, sinks, cost_fn=strict_clone,
                radius_weight=0.4, net_name=f"n{i}",
            )
            assert canonical_edges(fast) == canonical_edges(slow), f"net {i}"
            fast.add_usage(flat_graph)
            slow.add_usage(generic_graph)
        assert (flat_graph.edge_usage == generic_graph.edge_usage).all()

    def test_cost_array_override(self, graph10):
        """A uniform cost array routes like an unweighted BFS (shortest path)."""
        costs = [1.0] * graph10.num_edges
        tree = route_net_on_tiles(graph10, (0, 0), [(6, 2)], cost_array=costs)
        assert tree.wirelength_tiles() == 8

    def test_scalar_edge_cost_tracks_mutation(self, graph10):
        lookup = scalar_edge_cost(graph10, congestion_cost)
        assert lookup(graph10, (0, 0), (1, 0)) == congestion_cost(
            graph10, (0, 0), (1, 0)
        )
        graph10.add_wire((0, 0), (1, 0), 5)
        assert lookup(graph10, (0, 0), (1, 0)) == congestion_cost(
            graph10, (0, 0), (1, 0)
        )
        # Unknown callables pass through untouched.
        custom = lambda g, u, v: 2.0
        assert scalar_edge_cost(graph10, custom) is custom


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


class TestParallelRipup:
    def _routes(self, graph, num_nets=40, seed=3):
        rng = np.random.default_rng(seed)
        routes = {}
        order = []
        for i in range(num_nets):
            sx, sy = (int(v) for v in rng.integers(0, graph.nx, size=2))
            dx, dy = (int(v) for v in rng.integers(-3, 4, size=2))
            tx = min(graph.nx - 1, max(0, sx + dx))
            ty = min(graph.ny - 1, max(0, sy + dy))
            name = f"n{i:02d}"
            tree = route_net_on_tiles(graph, (sx, sy), [(tx, ty)], net_name=name)
            tree.add_usage(graph)
            routes[name] = tree
            order.append(name)
        return routes, order

    def test_workers_validated(self):
        with pytest.raises(ConfigurationError):
            RipupOptions(workers=0)

    def test_parallel_matches_expected_usage_accounting(self, die10):
        graph = TileGraph(die10, 10, 10, CapacityModel.uniform(4))
        routes, order = self._routes(graph)
        ripup_and_reroute(graph, routes, order, RipupOptions(workers=3))
        expected = np.zeros_like(graph.edge_usage)
        for tree in routes.values():
            for u, v in tree.edges():
                expected[graph.edge_id(u, v)] += 1
        assert (expected == graph.edge_usage).all()

    def test_parallel_deterministic_across_worker_counts(self, die10):
        results = []
        for workers in (2, 4):
            graph = TileGraph(die10, 10, 10, CapacityModel.uniform(4))
            routes, order = self._routes(graph)
            ripup_and_reroute(graph, routes, order, RipupOptions(workers=workers))
            results.append(
                {name: canonical_edges(t) for name, t in routes.items()}
            )
        assert results[0] == results[1]

    def test_stage2_batches_counter(self, die10):
        from repro.obs import Tracer

        graph = TileGraph(die10, 10, 10, CapacityModel.uniform(4))
        routes, order = self._routes(graph)
        tracer = Tracer()
        ripup_and_reroute(
            graph, routes, order, RipupOptions(workers=2, max_iterations=1),
            tracer=tracer,
        )
        assert tracer.metrics.value("stage2.batches") >= 1
