"""Equal-length congestion cleanup (the paper's Table V postprocessing).

For Table V the paper applies "a postprocessing step (applied to both
RABID and BBP/FR) which tries to minimize congestion for the current
buffering solution without increasing wire length". Between two tiles, all
*monotone staircase* paths have the same (minimum) length; swapping a
congested staircase for a cheaper one is free in wirelength.

:func:`best_monotone_path` finds the min-congestion monotone path between
two tiles by DP over the bounding-box grid; :func:`reduce_congestion`
applies it to every two-path of every net whose endpoints allow it. Both
price an edge by the soft Eq. (1) cost, which stays finite on overfull
edges, so a saturated staircase is still comparable to a cleaner one.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.routing.maze import scalar_edge_cost
from repro.routing.tree import RouteTree
from repro.tilegraph.graph import Tile, TileGraph

INF = float("inf")


def is_monotone(path: Sequence[Tile]) -> bool:
    """True when the path never backtracks in x or in y."""
    dxs = {b[0] - a[0] for a, b in zip(path, path[1:]) if b[0] != a[0]}
    dys = {b[1] - a[1] for a, b in zip(path, path[1:]) if b[1] != a[1]}
    return len(dxs) <= 1 and len(dys) <= 1


def best_monotone_path(
    graph: TileGraph,
    start: Tile,
    goal: Tile,
    forbidden: "Set[Tile] | None" = None,
) -> Optional[List[Tile]]:
    """Cheapest monotone staircase path from ``start`` to ``goal``.

    All such paths have length ``|dx| + |dy|`` (the minimum possible), so
    any is wirelength-neutral versus an L-shape. DP proceeds over the
    bounding box in step order. Returns None when every staircase is
    blocked by ``forbidden`` tiles.
    """
    forbidden = forbidden or set()
    edge_cost = scalar_edge_cost(graph)
    dx = goal[0] - start[0]
    dy = goal[1] - start[1]
    sx = 1 if dx >= 0 else -1
    sy = 1 if dy >= 0 else -1
    nx, ny = abs(dx), abs(dy)

    def tile_at(i: int, j: int) -> Tile:
        return (start[0] + sx * i, start[1] + sy * j)

    cost: Dict[Tuple[int, int], float] = {(0, 0): 0.0}
    came: Dict[Tuple[int, int], Tuple[int, int]] = {}
    for i in range(nx + 1):
        for j in range(ny + 1):
            if (i, j) == (0, 0):
                continue
            here = tile_at(i, j)
            if here in forbidden and here != goal:
                cost[(i, j)] = INF
                continue
            best = INF
            src: Optional[Tuple[int, int]] = None
            if i > 0 and cost.get((i - 1, j), INF) != INF:
                c = cost[(i - 1, j)] + edge_cost(tile_at(i - 1, j), here)
                if c < best:
                    best, src = c, (i - 1, j)
            if j > 0 and cost.get((i, j - 1), INF) != INF:
                c = cost[(i, j - 1)] + edge_cost(tile_at(i, j - 1), here)
                if c < best:
                    best, src = c, (i, j - 1)
            cost[(i, j)] = best
            if src is not None:
                came[(i, j)] = src
    if cost.get((nx, ny), INF) == INF:
        return None
    path: List[Tile] = []
    cursor = (nx, ny)
    while True:
        path.append(tile_at(*cursor))
        if cursor == (0, 0):
            break
        cursor = came[cursor]
    path.reverse()
    return path


def reduce_congestion(
    graph: TileGraph,
    routes: Dict[str, RouteTree],
) -> int:
    """Swap two-paths for cheaper equal-length staircases, in place.

    Buffer annotations survive only on tiles common to old and new paths;
    since the intent is a *final* cleanup, buffers on the interior of a
    rerouted two-path are re-anchored by clearing and re-applying trunk
    buffers onto the new interior at the same distance from the head.

    Returns:
        The number of two-paths improved.
    """
    improved = 0
    edge_cost = scalar_edge_cost(graph)
    for name in sorted(routes):
        tree = routes[name]
        for old_path in tree.two_paths():
            head, tail = old_path[0], old_path[-1]
            # Only consider already-monotone-replaceable spans; a
            # detouring two-path is longer than the staircase and
            # swapping it would *reduce* wirelength, which is fine,
            # but the paper's step is equal-length, so skip those.
            span = abs(head[0] - tail[0]) + abs(head[1] - tail[1])
            if span != len(old_path) - 1 or span < 2:
                continue
            # Record buffer counts along the old interior (interior
            # nodes are degree-2: at most a trunk buffer plus one
            # decoupling buffer toward the single child).
            offsets = [
                (k, tree.node(t).buffer_count())
                for k, t in enumerate(old_path[1:-1], start=1)
                if tree.node(t).buffer_count()
            ]
            old_cost = 0.0
            for a, b in zip(old_path, old_path[1:]):
                graph.add_wire(a, b, -1)
            for a, b in zip(old_path, old_path[1:]):
                old_cost += edge_cost(a, b)
            forbidden = (set(tree.nodes) - set(old_path[1:-1])) - {head, tail}
            new_path = best_monotone_path(graph, head, tail, forbidden)
            if new_path is None or new_path == old_path:
                for a, b in zip(old_path, old_path[1:]):
                    graph.add_wire(a, b, 1)
                continue
            new_cost = sum(
                edge_cost(a, b) for a, b in zip(new_path, new_path[1:])
            )
            if new_cost >= old_cost - 1e-12:
                for a, b in zip(old_path, old_path[1:]):
                    graph.add_wire(a, b, 1)
                continue
            # Move buffers off the interior before surgery. Kinds are
            # released per kind and re-anchored as the default: the
            # moved-to tile is a fresh placement, and the caller
            # re-runs buffer insertion (which re-sizes) afterwards.
            for k, count in offsets:
                node = tree.node(old_path[k])
                for kind, kcount in node.kind_counts().items():
                    graph.use_site(old_path[k], -kcount, kind)
                node.trunk_buffer = False
                node.trunk_kind = ""
                node.decoupled_children.clear()
                node.decoupled_kinds.clear()
            tree.replace_two_path(old_path, new_path)
            for a, b in zip(new_path, new_path[1:]):
                graph.add_wire(a, b, 1)
            # Re-anchor the same buffer counts at the same offsets.
            for k, count in offsets:
                node = tree.node(new_path[k])
                node.trunk_buffer = True
                if count > 1:
                    node.decoupled_children.add(new_path[k + 1])
                graph.use_site(new_path[k], count)
            improved += 1
    return improved
