"""Shared candidate representation and pruning for the buffering solvers.

Every buffering strategy in this repo is a bottom-up tree walk that keeps
per-node *candidate* sets and prunes dominated entries:

* the length-based DPs (single- and multi-sink) keep cost arrays indexed
  by unbuffered downstream length, pruned implicitly by the array min;
* van Ginneken keeps (capacitance, delay) pairs pruned to the Pareto
  frontier.

This module holds the pieces those walks share — the K-array recurrence
of the length DPs (advance one tile / buffer at the node), first-minimum
selection, Pareto pruning, and the oversubscription test — so each
strategy module carries only its own objective. Keeping the helpers here
(below both the buffering modules and ``assignment``) avoids import
cycles.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.tilegraph.graph import Tile, TileGraph

INF = float("inf")


def first_min_index(values: Sequence[float]) -> int:
    """Index of the first minimum of ``values`` (C-speed argmin).

    Equivalent to ``min(range(len(values)), key=values.__getitem__)`` —
    both return the earliest index achieving the minimum — but runs the
    scan in C. ``values`` must be non-empty and NaN-free.
    """
    return values.index(min(values))


def advance_and_buffer(
    child_c: List[float], q_v: float, limit: int
) -> Tuple[List[float], int]:
    """The length-DP K-array: one child's costs measured at its parent.

    Index ``j`` of the result (length ``limit + 1``) is the unbuffered
    length of the branch including the parent->child edge:

    * ``K[j] = C_child[j - 1]`` for ``j >= 1`` (advance one tile);
    * ``K[0] = q_v + min_j C_child[j]`` (a decoupling buffer at the
      parent drives ``1 + argmin <= limit`` units of the branch).

    Returns ``(K, buffer_choice)`` where ``buffer_choice`` is the child
    index consumed by the ``K[0]`` buffer, or ``-1`` when no buffer is
    placeable (``q_v`` infinite or the branch infeasible).

    ``child_c`` must have length ``limit`` (the parent-usable entries).
    """
    k = [INF] + child_c
    best = child_c.index(min(child_c))
    if q_v != INF and child_c[best] != INF:
        k[0] = q_v + child_c[best]
        return k, best
    return k, -1


def pareto_prune(cands: List, count=None) -> List:
    """Keep the Pareto frontier: increasing cap must decrease delay.

    ``cands`` entries need ``cap`` and ``delay`` attributes (van
    Ginneken's candidates). When ``count`` is given it is called with the
    number of dominated entries dropped (feeds ``dp.candidates_pruned``).
    """
    cands.sort(key=lambda c: (c.cap, c.delay))
    out: List = []
    best_delay = INF
    for c in cands:
        if c.delay < best_delay - 1e-18:
            out.append(c)
            best_delay = c.delay
    if count is not None:
        count(len(cands) - len(out))
    return out


def buffer_demand(specs) -> Dict[Tile, int]:
    """Per-tile buffer counts of a spec list."""
    per_tile: Dict[Tile, int] = {}
    for spec in specs:
        per_tile[spec.tile] = per_tile.get(spec.tile, 0) + 1
    return per_tile


def oversubscribes(
    graph: TileGraph,
    specs,
    freed: "Optional[Dict[Tile, int]]" = None,
) -> bool:
    """True when applying ``specs`` would push some tile past ``B(v)``.

    ``freed`` carries per-tile counts the net itself releases when it is
    re-buffered (the rip-up-and-recompute flow): those sites are still
    booked in ``b(v)`` but become available the moment the old buffering
    is ripped, so they count toward this net's budget.
    """
    freed = freed or {}
    return any(
        count - freed.get(tile, 0) > graph.free_sites(tile)
        for tile, count in buffer_demand(specs).items()
    )
