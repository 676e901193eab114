"""Greedy edge-overlap removal: spanning tree -> Steiner tree (paper Fig. 4).

Two tree edges sharing an endpoint ``u`` — ``(u, a)`` and ``(u, b)`` — have
rectilinear routes that can share up to ``dist(u, m)`` of wire, where ``m``
is the component-wise median of ``u``, ``a``, ``b`` (the Manhattan median
lies on a shortest path between every pair of the three points). Introducing
a Steiner point at ``m`` removes exactly that much wirelength. The greedy
loop repeatedly applies the largest available overlap until none remains;
it terminates because every new coordinate is drawn from the existing
coordinate set and total wirelength strictly decreases.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional, Tuple

from repro.geometry import manhattan
from repro.routing.prim_dijkstra import GeometricTree

#: Overlaps below this length (mm) are ignored; guards float noise.
_EPSILON = 1e-9


def _best_overlap(tree: GeometricTree) -> Optional[Tuple[float, int, int, int]]:
    """The largest (overlap, u, a, b) over edge pairs sharing node u."""
    best: Optional[Tuple[float, int, int, int]] = None
    for u in range(tree.num_points):
        neighbors = sorted(tree.adjacency[u])
        if len(neighbors) < 2:
            continue
        pu = tree.points[u]
        for a, b in combinations(neighbors, 2):
            m = pu.median_with(tree.points[a], tree.points[b])
            gain = manhattan(pu, m)
            if gain > _EPSILON and (best is None or gain > best[0]):
                best = (gain, u, a, b)
    return best


def remove_overlaps(tree: GeometricTree, max_rounds: int = 10_000) -> GeometricTree:
    """Apply greedy overlap removal in place; returns the same tree.

    Args:
        tree: a geometric spanning tree; modified in place (Steiner points
            appended, edges rewired).
        max_rounds: safety bound on greedy iterations.

    Returns:
        The input tree, now a Steiner tree with no removable overlap.
    """
    for _ in range(max_rounds):
        found = _best_overlap(tree)
        if found is None:
            return tree
        _, u, a, b = found
        m = tree.points[u].median_with(tree.points[a], tree.points[b])
        tree.disconnect(u, a)
        tree.disconnect(u, b)
        s = tree.add_point(m)
        tree.connect(u, s)
        # Zero-length edges (m coincides with a or b) are fine: the embed
        # step maps coincident points to the same tile.
        tree.connect(s, a)
        tree.connect(s, b)
    return tree
