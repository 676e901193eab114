"""Micro-benchmarks for the core algorithms.

Unlike the table drivers (single-shot harness runs), these measure the
individual kernels with proper repetition: Prim-Dijkstra construction,
Steiner overlap removal, maze routing, the single- and multi-sink DPs,
Elmore evaluation, and the two-path label search. Complexity claims from
the paper (single-sink O(nL); multi-sink O(mL^2 + nL)) are sanity-checked
by comparing two sizes.
"""

import numpy as np
from repro.core.single_sink import insert_buffers_single_sink
from repro.core.multi_sink import insert_buffers_multi_sink
from repro.core.two_path import best_buffered_path
from repro.geometry import Point, Rect
from repro.routing.maze import route_net_on_tiles
from repro.routing.prim_dijkstra import prim_dijkstra_tree
from repro.routing.steiner import remove_overlaps
from repro.routing.tree import RouteTree
from repro.technology import TECH_180NM
from repro.tilegraph import CapacityModel, TileGraph
from repro.timing.elmore import elmore_sink_delays


def _pins(n, seed=0):
    rng = np.random.default_rng(seed)
    return [Point(float(x), float(y)) for x, y in rng.uniform(0, 30, size=(n, 2))]


def _graph(size=30):
    return TileGraph(
        Rect(0, 0, float(size), float(size)), size, size, CapacityModel.uniform(10)
    )


def _path_tree(n):
    tiles = [(i, 0) for i in range(n)]
    parent = {b: a for a, b in zip(tiles, tiles[1:])}
    return RouteTree.from_parent_map(tiles[0], parent, [tiles[-1]])


def test_prim_dijkstra_20_pins(benchmark):
    pins = _pins(20)
    tree = benchmark(lambda: prim_dijkstra_tree(pins, c=0.4))
    assert tree.num_points == 20


def test_overlap_removal_20_pins(benchmark):
    pins = _pins(20)

    def body():
        return remove_overlaps(prim_dijkstra_tree(pins, c=0.4))

    tree = benchmark(body)
    tree.parent_order()


def test_maze_route_30x30(benchmark):
    graph = _graph(30)
    rng = np.random.default_rng(1)
    sinks = [tuple(map(int, rng.integers(0, 30, size=2))) for _ in range(4)]

    def body():
        return route_net_on_tiles(graph, (0, 0), sinks)

    tree = benchmark(body)
    assert set(tree.sink_tiles) == set(sinks)


def test_single_sink_dp_100_tiles(benchmark):
    path = [(i, 0) for i in range(100)]
    q = {t: 1.0 + (t[0] % 7) for t in path}

    def body():
        return insert_buffers_single_sink(path, q.__getitem__, 6)

    cost, buffers, feasible = benchmark(body)
    assert feasible


def test_multi_sink_dp_star(benchmark):
    center = (15, 15)
    paths, sinks = [], []
    for d, (dx, dy) in enumerate([(1, 0), (-1, 0), (0, 1), (0, -1)]):
        arm = [center] + [
            (center[0] + dx * k, center[1] + dy * k) for k in range(1, 12)
        ]
        paths.append(arm)
        sinks.append(arm[-1])
    tree = RouteTree.from_paths(center, paths, sinks)

    def body():
        return insert_buffers_multi_sink(tree, lambda t: 1.0, 5)

    result = benchmark(body)
    assert result.feasible


def test_elmore_long_buffered_line(benchmark):
    graph = _graph(30)
    tree = _path_tree(30)
    from repro.routing.tree import BufferSpec

    tree.apply_buffers([BufferSpec((k, 0), None) for k in range(5, 30, 5)])

    def body():
        return elmore_sink_delays(tree, graph, TECH_180NM)

    delays = benchmark(body)
    assert (29, 0) in delays


def test_two_path_label_search(benchmark):
    graph = _graph(30)
    for tile in graph.tiles():
        graph.set_sites(tile, 2)
    window = (0, 0, 29, 29)

    def body():
        return best_buffered_path(
            graph, (0, 0), (25, 20), 5, set(), window,
            graph.cost_cache().strict_costs(),
        )

    path = benchmark(body)
    assert path is not None


def test_dp_scaling_is_linear_in_tiles(benchmark):
    """The paper's O(nL): doubling n roughly doubles the DP time."""
    import time

    def run(n):
        path = [(i, 0) for i in range(n)]
        q = {t: 1.0 for t in path}
        start = time.perf_counter()
        for _ in range(30):
            insert_buffers_single_sink(path, q.__getitem__, 5)
        return time.perf_counter() - start

    def body():
        t_small = run(100)
        t_large = run(200)
        return t_small, t_large

    t_small, t_large = benchmark.pedantic(body, rounds=1, iterations=1)
    # Allow generous noise; quadratic would give ~4x.
    assert t_large < 3.2 * t_small
