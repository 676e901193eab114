"""Stage-4 rescue pass: whole-net re-routing for still-failing nets.

Two-path optimization keeps a net's Steiner topology; when a Steiner node
sits deep inside the zero-site blocked region, no two-path swap can make
the net bufferable. This pass goes further for the nets that still fail
after the regular Stage-4 iterations: it rips the entire net and rebuilds
its tree with the buffer-aware ``(tile, j)`` wavefront — the source-to-
first-sink path and every subsequent sink-to-tree attachment are all
chosen from *bufferable* paths, so the new topology naturally detours
around site-starved territory. Stage 3's buffering (the DP, sized over the
plan's library when it has several kinds) then re-inserts buffers; if the
rebuilt net still has no legal buffering (or is worse), the original route
is restored.

This is an extension of the paper's Stage 4 in its spirit ("reduce ... the
number of nets which, up until now, have failed to meet their length
constraint"); it is switchable via ``RabidConfig.rescue_failing``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.assignment import assign_buffers_to_net
from repro.core.length_rule import length_violations
from repro.core import two_path
from repro.routing.maze import _search_window
from repro.routing.tree import RouteTree
from repro.technology import TECH_180NM, BufferLibrary, Technology
from repro.tilegraph.graph import Tile, TileGraph


def _bufferable_tree(
    graph: TileGraph,
    source: Tile,
    sinks: List[Tile],
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
        window = _search_window(
            graph, [*tree_tiles, sink], max(window_margin, 10)
        )
        # Through the module, so a wrapper installed there sees rescue's
        # searches as well as Stage 4's.
        path = two_path.best_buffered_path(
            graph, sink, set(tree_tiles), length_limit, set(), window,
            graph.cost_cache().strict_costs(),
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
    window_margin: int = 10,
    technology: Technology = TECH_180NM,
    library: "BufferLibrary | None" = None,
    tracer=None,
) -> Tuple[RouteTree, bool]:
    """Attempt a whole-net bufferable re-route.

    Preconditions: the tree's wire *and* buffer usage are recorded on the
    graph. On success returns ``(new_tree, True)`` with usage transferred;
    on failure the original tree and its usage are untouched and
    ``(tree, False)`` is returned. The new tree's buffers are sized over
    ``library`` (under ``technology``) when it has more than one kind,
    and ``tracer`` sees the buffering as it sees every Stage-3 net's.

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
            graph, source, sinks, length_limit, window_margin, tree.net_name
        )
        if candidate is None:
            txn.rollback()  # re-adds the original tree's usage
            return tree, False
        candidate.add_usage(graph)  # wires only; no buffers annotated yet
        assign_buffers_to_net(
            graph, candidate, length_limit, None,
            tracer=tracer, technology=technology, library=library,
        )
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
    window_margin: int = 10,
    tracer=None,
    technology: Technology = TECH_180NM,
    library: "BufferLibrary | None" = None,
) -> List[str]:
    """Rescue every failing net; returns the names still failing after.

    ``technology`` and ``library`` are the plan's: a rescued net is sized
    over a multi-kind library like every Stage-3 and Stage-4 net.

    With a ``tracer``, every whole-net re-route emits a ``rescued`` event
    (or ``failed`` when the net still violates its rule) and bumps the
    ``nets_rescued`` counter, and each re-route's buffering reports to it.
    """
    still_failing: List[str] = []
    for name in sorted(failing):
        tree = routes[name]
        limit = length_limits[name]
        new_tree, changed = rescue_net(
            graph, tree, limit, window_margin, technology, library, tracer
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
