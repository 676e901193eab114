"""Property-based parity: the flat Stage-4 kernel vs the dict-keyed search.

``best_buffered_path`` runs on integer states ``tile * (L + 1) + j`` with
per-search cost lists, byte masks and a dominance skip. The reference
below is the dict-keyed ``(Tile, j)`` Dijkstra it replaced, kept here
verbatim (and only here) together with the wire-only ``_plain_path``
fallback. Random cases cover small grids with saturated edges and
zero-site tiles, every length limit from 1 to 5, forbidden and goal
sets, strict and soft costs, and callable ``q_of`` tables with infinite
entries. Each case must return the identical path, or ``None`` from both.
"""

import heapq
import random
from typing import Dict, List, Optional, Set, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.two_path as two_path
from repro.core.costs import buffer_site_cost
from repro.core.two_path import _remove_loops, _wire_path, best_buffered_path
from repro.geometry import Rect
from repro.routing.maze import (
    congestion_cost,
    scalar_edge_cost,
    soft_congestion_cost,
)
from repro.tilegraph import CapacityModel, TileGraph

INF = float("inf")
Tile = Tuple[int, int]


# --------------------------------------------------------------------- #
# Reference: the dict-keyed searches the flat kernel replaced            #
# --------------------------------------------------------------------- #


def reference_buffered_path(
    graph, start, goal, q_of, length_limit, forbidden, window,
    wire_cost=congestion_cost,
):
    L = length_limit
    wire_cost = scalar_edge_cost(graph, wire_cost)
    goals: Set[Tile] = {goal} if isinstance(goal, tuple) else set(goal)
    if start in goals:
        return [start]
    x0, y0, x1, y1 = window
    dist: Dict[Tuple[Tile, int], float] = {(start, 0): 0.0}
    pred: Dict[Tuple[Tile, int], Tuple[Tile, int]] = {}
    heap: List[Tuple[float, Tile, int]] = [(0.0, start, 0)]
    settled: Set[Tuple[Tile, int]] = set()
    goal_state: Optional[Tuple[Tile, int]] = None
    while heap:
        d, tile, j = heapq.heappop(heap)
        state = (tile, j)
        if state in settled:
            continue
        settled.add(state)
        if tile in goals:
            goal_state = state
            break
        if j > 0:
            q = q_of(tile)
            if q != INF:
                nd = d + q
                nstate = (tile, 0)
                if nd < dist.get(nstate, INF):
                    dist[nstate] = nd
                    pred[nstate] = state
                    heapq.heappush(heap, (nd, tile, 0))
        if j + 1 <= L:
            for nbr in graph.neighbors(tile):
                if not (x0 <= nbr[0] <= x1 and y0 <= nbr[1] <= y1):
                    continue
                if nbr in forbidden and nbr not in goals:
                    continue
                step = wire_cost(graph, tile, nbr)
                if step == INF:
                    continue
                nd = d + step
                nstate = (nbr, j + 1)
                if nd < dist.get(nstate, INF):
                    dist[nstate] = nd
                    pred[nstate] = state
                    heapq.heappush(heap, (nd, nbr, j + 1))
    if goal_state is None:
        return None
    path: List[Tile] = []
    state = goal_state
    while True:
        tile = state[0]
        if not path or path[-1] != tile:
            path.append(tile)
        if state not in pred:
            break
        state = pred[state]
    path.reverse()
    return _remove_loops(path)


def reference_plain_path(graph, start, goal, forbidden, window, wire_cost):
    wire_cost = scalar_edge_cost(graph, wire_cost)
    x0, y0, x1, y1 = window
    dist: Dict[Tile, float] = {start: 0.0}
    pred: Dict[Tile, Tile] = {}
    heap: List[Tuple[float, Tile]] = [(0.0, start)]
    settled: Set[Tile] = set()
    while heap:
        d, tile = heapq.heappop(heap)
        if tile in settled:
            continue
        settled.add(tile)
        if tile == goal:
            path = [tile]
            while path[-1] in pred:
                path.append(pred[path[-1]])
            path.reverse()
            return path
        for nbr in graph.neighbors(tile):
            if not (x0 <= nbr[0] <= x1 and y0 <= nbr[1] <= y1):
                continue
            if nbr in forbidden and nbr != goal:
                continue
            step = wire_cost(graph, tile, nbr)
            if step == INF:
                continue
            nd = d + step
            if nd < dist.get(nbr, INF):
                dist[nbr] = nd
                pred[nbr] = tile
                heapq.heappush(heap, (nd, nbr))
    return None


# --------------------------------------------------------------------- #
# Random cases                                                          #
# --------------------------------------------------------------------- #

#: Positive site costs for callable q_of tables; INF marks an unusable tile.
Q_VALUES = [INF, INF, 0.25, 1.0 / 3.0, 0.5, 1.0, 2.0]


def _directional_cost(graph, u, v):
    """A custom wire cost that depends on the direction of travel."""
    base = congestion_cost(graph, u, v)
    return base if v > u else base * 1.5 + 0.125


def _graph(rng, nx, ny, capacity):
    graph = TileGraph(
        Rect(0, 0, float(nx), float(ny)), nx, ny, CapacityModel.uniform(capacity)
    )
    for u, v in graph.edges():
        # Mostly light loads, with saturated and overfull edges mixed in.
        graph.add_wire(u, v, rng.choice([0, 0, 0, 1, capacity, capacity + 1]))
    for tile in graph.tiles():
        sites = rng.choice([0, 0, 1, 2, 3])
        graph.set_sites(tile, sites)
        if sites:
            graph.use_site(tile, rng.randint(0, sites))
    return graph


def _tile(rng, nx, ny):
    return (rng.randrange(nx), rng.randrange(ny))


def _window(rng, nx, ny):
    if rng.random() < 0.3:
        return (0, 0, nx - 1, ny - 1)
    xa, xb = sorted((rng.randrange(nx), rng.randrange(nx)))
    ya, yb = sorted((rng.randrange(ny), rng.randrange(ny)))
    return (xa, ya, xb, yb)


@st.composite
def search_cases(draw):
    nx = draw(st.integers(4, 10))
    ny = draw(st.integers(4, 10))
    capacity = draw(st.integers(1, 4))
    length_limit = draw(st.integers(1, 5))
    wire = draw(st.sampled_from(["strict", "soft", "directional"]))
    q_kind = draw(st.sampled_from(["cache", "eq2", "table"]))
    goal_count = draw(st.integers(0, 3))  # 0 = a single goal tile
    forbidden_share = draw(st.sampled_from([0.0, 0.1, 0.3]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    graph = _graph(rng, nx, ny, capacity)
    if q_kind == "cache":
        q_of = graph.site_cost_cache().cost_fn()
    elif q_kind == "eq2":
        q_of = lambda tile: buffer_site_cost(graph, tile)  # noqa: E731
    else:
        table = {tile: rng.choice(Q_VALUES) for tile in graph.tiles()}
        q_of = table.__getitem__
    wire_cost = {
        "strict": congestion_cost,
        "soft": soft_congestion_cost,
        "directional": _directional_cost,
    }[wire]
    start = _tile(rng, nx, ny)
    if goal_count == 0:
        goal = _tile(rng, nx, ny)
    else:
        goal = {_tile(rng, nx, ny) for _ in range(goal_count)}
    forbidden = {t for t in graph.tiles() if rng.random() < forbidden_share}
    window = _window(rng, nx, ny)
    return graph, start, goal, q_of, length_limit, forbidden, window, wire_cost


class TestBufferedPathParity:
    @given(search_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_dict_keyed_search(self, case):
        graph, start, goal, q_of, limit, forbidden, window, wire_cost = case
        want = reference_buffered_path(
            graph, start, goal, q_of, limit, forbidden, window, wire_cost
        )
        got = best_buffered_path(
            graph, start, goal, q_of, limit, forbidden, window, wire_cost
        )
        assert got == want

    @given(search_cases())
    @settings(max_examples=150, deadline=None)
    def test_wire_path_matches_plain_path(self, case):
        """The wire-only fallback on the maze kernel (``_plain_path``'s
        replacement) returns the tuple-keyed Dijkstra's path."""
        graph, start, goal, _q, _limit, forbidden, window, wire_cost = case
        if isinstance(goal, set):
            goal = min(goal, default=start)
        if wire_cost is _directional_cost:
            wire_cost = congestion_cost
        cache = graph.cost_cache()
        costs = (
            cache.strict_costs()
            if wire_cost is congestion_cost
            else cache.soft_costs()
        )
        want = reference_plain_path(
            graph, start, goal, forbidden, window, wire_cost
        )
        assert _wire_path(graph, start, goal, forbidden, window, costs) == want


class TestDominanceSkip:
    def test_skip_fires_and_path_is_unchanged(self, graph10_sites, monkeypatch):
        """Around any 2x2 block the search reaches a tile again at a higher
        j for more cost (e.g. (1, 0) at j = 1 directly and at j = 3 via
        (0, 1) and (1, 1)); those states are dominated and dropped."""
        seen = []
        real = two_path._layered_search

        def spy(*args):
            result = real(*args)
            seen.append(result[2])
            return result

        monkeypatch.setattr(two_path, "_layered_search", spy)
        q_of = graph10_sites.site_cost_cache().cost_fn()
        args = (graph10_sites, (0, 0), (7, 5), q_of, 4, set(), (0, 0, 9, 9))
        got = best_buffered_path(*args)
        assert seen and seen[0] > 0
        assert got == reference_buffered_path(*args)
        assert got[0] == (0, 0) and got[-1] == (7, 5)
