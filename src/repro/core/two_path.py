"""Stage 4: two-path rip-up and reroute (paper Section III-D).

Each net is taken apart one *two-path* at a time (a maximal tree path whose
interior is degree-2 and contains no sink/Steiner node). The two endpoints
are reconnected by the minimum-cost path under the combined wire (Eq. 1)
and buffer (Eq. 2) congestion costs, found by a wavefront expansion over
labels ``(tile, distance since the last buffer)`` — the buffer-aware maze
labels of Hur/Lillis and Zhou et al. that the paper cites. Afterwards the
caller rips out and reinserts the whole net's buffers via the Stage-3 DP.

The wavefront, :func:`_layered_search`, runs on the graph's flat index
(:meth:`TileGraph.flat`) with integer states, per-search cost lists and
byte masks. It is the repo's one buffered-path search: the rescue pass
and the lower-bound pricer (:mod:`repro.bounds.pricing`) run on it too.
The Stage-2 maze kernel's ``_dijkstra_flat`` serves the wire-only
fallback here.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.routing.maze import _dijkstra_flat, _search_window, workspace_for
from repro.routing.tree import RouteTree
from repro.tilegraph.graph import FlatTileGraph, Tile, TileGraph

INF = float("inf")


def best_buffered_path(
    graph: TileGraph,
    start: Tile,
    goal: "Tile | Set[Tile]",
    length_limit: int,
    forbidden: Set[Tile],
    window: Tuple[int, int, int, int],
    edge_costs: Sequence[float],
) -> Optional[List[Tile]]:
    """Min-cost start-to-goal path under wire + buffer congestion costs.

    States are ``(tile, j)`` with ``j`` the tile distance since the last
    buffer (the start counts as buffered, ``j = 0``). Moving to a neighbor
    costs ``edge_costs[edge id]`` (the Eq. (1) list of the graph's
    congestion-cost cache, strict or soft) and increments ``j``; taking a
    buffer site costs Eq. (2), read from the graph's
    :class:`~repro.tilegraph.ledger.SiteCostCache`, and resets ``j``.
    Paths whose ``j`` would reach ``length_limit`` must buffer first, so
    any returned path can be legally buffered.

    ``goal`` may be a single tile or a set of tiles (the path ends at the
    cheapest reachable member — used by the Stage-4 rescue pass to attach
    a sink to an existing tree). Neighbors outside ``window`` or in
    ``forbidden`` (unless a goal) are never entered.

    Returns the tile path (start first) or ``None`` when no legal path
    exists within the window. The search is :func:`_layered_search` with
    one goal; its docstring carries the tie-break and dominance arguments.
    """
    goals: Set[Tile] = {goal} if isinstance(goal, tuple) else set(goal)
    if start in goals:
        return [start]
    if length_limit < 1:
        return None  # no wire step is legal
    flat = graph.flat()
    open_tiles, goal_tiles = _tile_masks(flat, goals, forbidden, window)
    layers = length_limit + 1
    found, _, pred, _ = _layered_search(
        flat.adj, edge_costs, graph.site_cost_cache().costs(),
        open_tiles, goal_tiles, (start[0] * flat.ny + start[1]) * layers,
        layers,
    )
    if not found:
        return None
    # Trace back, dropping the buffer self-transitions.
    path: List[int] = []
    state = found[0]
    while state >= 0:
        tile = state // layers
        if not path or path[-1] != tile:
            path.append(tile)
        state = pred[state]
    path.reverse()
    tile_x, tile_y = flat.tile_x, flat.tile_y
    return _remove_loops([(tile_x[i], tile_y[i]) for i in path])


def _tile_masks(
    flat: FlatTileGraph,
    goals: Set[Tile],
    forbidden: Set[Tile],
    window: Tuple[int, int, int, int],
) -> Tuple[bytearray, bytearray]:
    """(enterable, goal) byte masks over tile indices.

    A tile is enterable when it lies in ``window`` and is not forbidden,
    or is a goal inside the window (goals win over ``forbidden``).
    """
    nx, ny = flat.nx, flat.ny
    x0, y0, x1, y1 = window
    x0, y0, x1, y1 = max(x0, 0), max(y0, 0), min(x1, nx - 1), min(y1, ny - 1)

    def inside(tile: Tile) -> bool:
        return x0 <= tile[0] <= x1 and y0 <= tile[1] <= y1

    open_tiles = bytearray(flat.num_tiles)
    row = b"\x01" * (y1 - y0 + 1)
    for x in range(x0, x1 + 1):
        base = x * ny + y0
        open_tiles[base : base + len(row)] = row
    goal_tiles = bytearray(flat.num_tiles)
    for tile in forbidden:
        if inside(tile):
            open_tiles[tile[0] * ny + tile[1]] = 0
    for tile in goals:
        if inside(tile):
            open_tiles[tile[0] * ny + tile[1]] = 1
            goal_tiles[tile[0] * ny + tile[1]] = 1
    return open_tiles, goal_tiles


def _layered_search(
    adj: Sequence,
    edge_costs: Sequence[float],
    site_costs: Sequence[float],
    open_tiles: bytearray,
    goal_tiles: bytearray,
    start: int,
    layers: int,
    goals: int = 1,
    wire_base: float = 0.0,
    site_base: float = 0.0,
) -> Tuple[List[int], List[float], List[int], int]:
    """Dijkstra over states ``tile * layers + j`` from state ``start``.

    The one buffered-path search: Stage 4, the rescue pass and the
    lower-bound pricer (:mod:`repro.bounds.pricing`) all run on it. ``j``
    is the tile distance since the last gate; ``adj`` is the flat
    adjacency (``(neighbor, edge id)`` rows). From a popped state of cost
    ``d``, a wire step into an enterable neighbor costs
    ``(d + wire_base) + edge_costs[eid]`` and increments ``j`` (a run of
    exactly ``L = layers - 1`` tiles between gates is legal, since a gate
    may drive ``L`` units); a buffer on a tile with ``j > 0`` costs
    ``(d + site_base) + site_costs[tile]`` and resets ``j``. INF entries
    are never used.

    Returns ``(found, dist, pred, dominated)``: the settled goal-tile
    states in pop order, the cost and predecessor lists (-1 at the start
    and at unreached states) and how many relaxations and pops the
    dominance skip dropped.

    First-pop settlement. A goal tile settles at the first of its states
    the heap pops, and the search stops once ``goals`` goal tiles have
    settled. Dijkstra pops in nondecreasing cost, so that state holds
    the tile's minimum cost. Heap keys are ``(cost, state)``; the state
    integer is monotone in ``(x, y, j)``, so ties break exactly as
    ``(cost, (x, y), j)`` keys would, and among equal-cost states of one
    tile the lowest ``j`` pops first. With zero-cost steps the costs
    still hold, but an equal-cost lower-``j`` state may arrive after the
    first pop, so the traced path may differ from the one a ``min`` over
    the tile's settled layers returns.

    Dominance skip. Call ``(t, j)`` dominated once some ``(t, j')`` with
    ``j' < j`` has settled at a strictly smaller cost. A relaxation into a
    dominated state is dropped, and a state that became dominated after
    it was pushed is not expanded when popped. Any continuation of
    ``(t, j)`` replays from ``(t, j')``: every wire step stays legal
    because the replay's ``j`` is no larger, and every buffer costs the
    same or, when the replay is already at ``j = 0``, is left out. Float
    addition is monotone, so the replay reaches the same tiles for no
    more cost after rounding too, and no tile's minimum cost changes.
    When every wire and site step costs more than 0 (Eq. (1) and Eq. (2)
    always do; the pricer's unit base costs do) the skip cannot change a
    returned path either: the replay stays at a lower ``j`` until a
    buffer joins the two walks, so were a state of the returned path
    dominated, its replay would reach the goal tile cheaper, or at the
    same cost with a lower ``j`` (which pops first), or would relax the
    joining buffer state first; each contradicts how Dijkstra chose
    that path.

    Rounding. The base costs are added once per popped state and the
    list entry once per neighbor, so a step costs ``(d + base) + c``:
    the float a caller summing ``d + base + c`` left to right gets.
    Tabulating ``base + c`` per edge would round as ``d + (base + c)``,
    which differs (a straight three-edge path of dual lengths 0.1, 0.1
    and 1/3 at unit base costs sums to 3.5333333333333337 left to right
    and to 3.533333333333333 tabulated) and would move the oracle's
    certificates. Stage 4 passes zero bases; ``d + 0.0 == d``, so its
    relaxations cost what they did before the bases existed.
    """
    num_states = len(open_tiles) * layers
    dist = [INF] * num_states
    pred = [-1] * num_states
    # Lowest j settled so far per tile (``layers`` = none yet). A settled
    # state's dist is final, so dist[tile * layers + low_j[tile]] is the
    # cost a higher-j state of the tile must beat to be worth expanding.
    low_j = [layers] * len(open_tiles)
    last = layers - 1  # = L
    found: List[int] = []
    dist[start] = 0.0
    heap: List[Tuple[float, int]] = [(0.0, start)]
    pop = heapq.heappop
    push = heapq.heappush
    dominated = 0
    while heap:
        d, state = pop(heap)
        if d > dist[state]:
            continue  # stale entry; the state settled cheaper
        tile = state // layers
        j = state - tile * layers
        low = low_j[tile]
        if low > j:
            if low == layers and goal_tiles[tile]:
                found.append(state)  # the tile's first pop settles it
                if len(found) == goals:
                    break
            low_j[tile] = j
        elif dist[state - j + low] < d:
            dominated += 1  # the lower-j state settled after this push
            continue
        # Buffer here (resets j); only from unbuffered states.
        if j:
            q = site_costs[tile]
            if q != INF:
                nd = d + site_base + q
                nstate = state - j
                if nd < dist[nstate]:
                    dist[nstate] = nd
                    pred[nstate] = state
                    push(heap, (nd, nstate))
        # Step to a neighbor.
        if j < last:
            nj = j + 1
            dw = d + wire_base
            for nbr, eid in adj[tile]:
                if open_tiles[nbr]:
                    step = edge_costs[eid]
                    if step != INF:
                        nd = dw + step
                        nstate = nbr * layers + nj
                        if nd < dist[nstate]:
                            low = low_j[nbr]
                            if low < nj and dist[nstate - nj + low] < nd:
                                dominated += 1  # would be skipped on pop
                                continue
                            dist[nstate] = nd
                            pred[nstate] = state
                            push(heap, (nd, nstate))
    return found, dist, pred, dominated


def _remove_loops(path: List[Tile]) -> List[Tile]:
    """Excise revisit loops so the path is simple over tiles.

    The (tile, j) state space legitimately revisits a tile (e.g., a detour
    to a buffer site and back), but a route tree needs simple tile paths;
    re-insertion of buffers afterwards restores legality where possible.
    """
    first_seen: Dict[Tile, int] = {}
    out: List[Tile] = []
    for tile in path:
        if tile in first_seen:
            del_from = first_seen[tile] + 1
            for dropped in out[del_from:]:
                del first_seen[dropped]
            del out[del_from:]
        else:
            first_seen[tile] = len(out)
            out.append(tile)
    return out


def _wire_path(
    graph: TileGraph,
    start: Tile,
    goal: Tile,
    forbidden: Set[Tile],
    window: Tuple[int, int, int, int],
    costs: Sequence[float],
) -> Optional[List[Tile]]:
    """Wire-cost-only path on the maze kernel (no bufferable path exists).

    ``(cost, index)`` heap keys order like ``(cost, (x, y))``, so this is
    the path a tuple-keyed Dijkstra over the same costs returns.
    """
    ny = graph.ny
    start_idx = start[0] * ny + start[1]
    ws = workspace_for(graph)
    target, _, _, _ = _dijkstra_flat(
        graph.flat(), ws, costs, [(start_idx, 0.0)],
        {goal[0] * ny + goal[1]}, window,
        blocked=[t[0] * ny + t[1] for t in forbidden if t != goal],
    )
    if target < 0:
        return None
    path = [target]
    while path[-1] != start_idx:
        path.append(ws.parent[path[-1]])
    path.reverse()
    return [graph.tile_at(i) for i in path]


def optimize_two_paths(
    graph: TileGraph,
    tree: RouteTree,
    length_limit: int,
    window_margin: int = 6,
) -> int:
    """Reroute every two-path of ``tree`` at minimum combined cost.

    Preconditions: the tree's *wire* usage is recorded on ``graph``; its
    *buffer* usage has already been released (Stage 4 rips a net's buffers
    before rerouting it). The tree's buffer annotations are cleared here.

    Returns:
        The number of two-paths whose route changed.
    """
    tree.clear_buffers()
    cache = graph.cost_cache()
    changed = 0
    for old_path in tree.two_paths():
        head, tail = old_path[0], old_path[-1]
        for a, b in zip(old_path, old_path[1:]):
            graph.add_wire(a, b, -1)
        forbidden = (set(tree.nodes) - set(old_path[1:-1])) - {head, tail}
        window = _search_window(graph, (head, tail), window_margin)
        new_path = best_buffered_path(
            graph, tail, head, length_limit, forbidden, window,
            cache.strict_costs(),
        )
        if new_path is None:
            # No bufferable path within capacity; try any within-capacity
            # path (the net's buffering may still be fixed elsewhere).
            new_path = _wire_path(
                graph, tail, head, forbidden, window, cache.strict_costs()
            )
        if new_path is None and not _path_fits(graph, old_path):
            # Only when even the old route overflows do we accept paying
            # overflow penalties for a (hopefully better) soft-cost route;
            # otherwise keeping the old route preserves the Stage-2
            # capacity guarantee.
            new_path = best_buffered_path(
                graph, tail, head, length_limit, forbidden, window,
                cache.soft_costs(),
            ) or _wire_path(
                graph, tail, head, forbidden, window, cache.soft_costs()
            )
        if new_path is None:
            new_path = list(reversed(old_path))  # keep the old route
        new_path = list(reversed(new_path))  # head first, as two_paths yields
        if new_path != old_path:
            changed += 1
        tree.replace_two_path(old_path, new_path)
        for a, b in zip(new_path, new_path[1:]):
            graph.add_wire(a, b, 1)
    return changed


def _path_fits(graph: TileGraph, path: List[Tile]) -> bool:
    """True when re-adding this (currently ripped) path stays in capacity."""
    return all(
        graph.wire_usage(a, b) < graph.wire_capacity(a, b)
        for a, b in zip(path, path[1:])
    )
