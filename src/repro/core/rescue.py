"""Stage-4 rescue pass: whole-net re-routing for still-failing nets.

Two-path optimization keeps a net's Steiner topology; when a Steiner node
sits deep inside the zero-site blocked region, no two-path swap can make
the net bufferable. This pass goes further for the nets that still fail
after the regular Stage-4 iterations: it rips the entire net and rebuilds
its tree with the buffer-aware ``(tile, j)`` wavefront — the source-to-
first-sink path and every subsequent sink-to-tree attachment are all
chosen from *bufferable* paths, so the new topology naturally detours
around site-starved territory. The Stage-3 DP then re-inserts buffers; if
the rebuilt net still has no legal buffering (or is worse), the original
route is restored.

This is an extension of the paper's Stage 4 in its spirit ("reduce ... the
number of nets which, up until now, have failed to meet their length
constraint"); it is switchable via ``RabidConfig.rescue_failing``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.assignment import assign_buffers_to_net
from repro.core.length_rule import length_violations
from repro.core.two_path import best_buffered_path
from repro.routing.maze import route_net_on_tiles
from repro.routing.tree import RouteTree
from repro.tilegraph.graph import Tile, TileGraph


def _bufferable_tree(
    graph: TileGraph,
    source: Tile,
    sinks: List[Tile],
    q_of: Callable[[Tile], float],
    length_limit: int,
    window_margin: int,
    net_name: str,
) -> Optional[RouteTree]:
    """Grow a tree from bufferable paths; None when any sink is cut off."""
    tree_tiles: Set[Tile] = {source}
    paths: List[List[Tile]] = []
    pending = sorted(
        (t for t in sinks if t != source),
        key=lambda t: abs(t[0] - source[0]) + abs(t[1] - source[1]),
    )
    for sink in pending:
        if sink in tree_tiles:
            continue
        # The window covers the current tree extent and the sink.
        xs = [t[0] for t in tree_tiles] + [sink[0]]
        ys = [t[1] for t in tree_tiles] + [sink[1]]
        margin = max(window_margin, 10)
        window = (
            max(0, min(xs) - margin),
            max(0, min(ys) - margin),
            min(graph.nx - 1, max(xs) + margin),
            min(graph.ny - 1, max(ys) + margin),
        )
        path = best_buffered_path(
            graph, sink, set(tree_tiles), q_of, length_limit,
            forbidden=set(), window=window,
        )
        if path is None:
            return None
        paths.append(path)
        tree_tiles.update(path)
    return RouteTree.from_paths(source, paths, sinks, net_name=net_name)


def rescue_net(
    graph: TileGraph,
    tree: RouteTree,
    length_limit: int,
    q_of: Callable[[Tile], float],
    window_margin: int = 10,
) -> Tuple[RouteTree, bool]:
    """Attempt a whole-net bufferable re-route.

    Preconditions: the tree's wire *and* buffer usage are recorded on the
    graph. On success returns ``(new_tree, True)`` with usage transferred;
    on failure the original tree and its usage are untouched and
    ``(tree, False)`` is returned.

    The whole attempt — rip, candidate wires, buffer reinsertion — runs
    inside one :class:`SiteLedger` transaction; a non-improvement (or an
    exception at any point) rolls every wire and site delta back, which
    restores exactly the state the old hand-rolled remove/add pairs did.
    """
    old_violations = length_violations(tree, length_limit)
    if old_violations == 0:
        return tree, False
    source = tree.source
    sinks = tree.sink_tiles

    ledger = graph.ledger()
    with ledger.transaction() as txn:
        tree.remove_usage(graph)
        candidate = _bufferable_tree(
            graph, source, sinks, q_of, length_limit, window_margin, tree.net_name
        )
        if candidate is None:
            txn.rollback()  # re-adds the original tree's usage
            return tree, False
        candidate.add_usage(graph)  # wires only; no buffers annotated yet
        meets, _, _ = assign_buffers_to_net(graph, candidate, length_limit, None)
        new_violations = length_violations(candidate, length_limit)
        if new_violations < old_violations:
            return candidate, True  # scope exit commits the transfer
        txn.rollback()  # drops the candidate's usage, restores the tree's
        return tree, False


def rescue_failing_nets(
    graph: TileGraph,
    routes: Dict[str, RouteTree],
    failing: List[str],
    length_limits: Dict[str, int],
    q_of: Callable[[Tile], float],
    window_margin: int = 10,
    tracer=None,
) -> List[str]:
    """Rescue every failing net; returns the names still failing after.

    With a ``tracer``, every whole-net re-route emits a ``rescued`` event
    (or ``failed`` when the net still violates its rule) and bumps the
    ``nets_rescued`` counter.
    """
    still_failing: List[str] = []
    for name in sorted(failing):
        tree = routes[name]
        limit = length_limits[name]
        new_tree, changed = rescue_net(
            graph, tree, limit, q_of, window_margin
        )
        routes[name] = new_tree
        still_fails = length_violations(new_tree, limit) > 0
        if still_fails:
            still_failing.append(name)
        if tracer is not None and tracer.enabled:
            if changed and not still_fails:
                tracer.count("nets_rescued")
            tracer.event(
                "rescued" if not still_fails else "failed",
                name,
                stage="4",
                rerouted=changed,
            )
            tracer.check_site_invariants(graph, f"rescue net {name}")
    return still_failing
