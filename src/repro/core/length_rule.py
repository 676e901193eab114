"""Driven-length accounting for the length-based buffering rule.

The paper (Fig. 3) requires the *total* downstream interconnect driven by
any gate — the net's driver or any inserted buffer — to be at most ``L_i``
tile units. Summing over all branches (not just the longest path) prevents
the 7-sink star of Fig. 3 from passing with 11 driven units. The same rule
puts a floor under every passing net's cost (:func:`length_rule_floor`);
the lower-bound oracle uses it in its per-net duals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.routing.tree import RouteTree
from repro.tilegraph.graph import Tile


@dataclass(frozen=True)
class GateLoad:
    """One gate and the tile-length of wire it drives.

    ``gate_tile`` is where the gate sits; ``drives_child`` distinguishes a
    decoupling buffer (branch scope) from the driver / a trunk buffer
    (``None`` scope).
    """

    gate_tile: Tile
    drives_child: Optional[Tile]
    driven_length: int
    is_driver: bool = False


def _unbuffered_below(tree: RouteTree) -> Dict[Tile, int]:
    """Unbuffered downstream tile-length looking into each node."""
    below: Dict[Tile, int] = {}
    for node in tree.postorder():
        if node.trunk_buffer:
            below[node.tile] = 0
            continue
        total = 0
        for child in node.children:
            if child.tile in node.decoupled_children:
                continue
            total += 1 + below[child.tile]
        below[node.tile] = total
    return below


def driven_lengths(tree: RouteTree) -> List[GateLoad]:
    """The wire load of every gate on the net (driver first)."""
    below = _unbuffered_below(tree)
    out: List[GateLoad] = []

    def contents_length(node) -> int:
        total = 0
        for child in node.children:
            if child.tile in node.decoupled_children:
                continue
            total += 1 + below[child.tile]
        return total

    root = tree.root
    if root.trunk_buffer:
        out.append(GateLoad(root.tile, None, 0, is_driver=True))
    else:
        out.append(GateLoad(root.tile, None, contents_length(root), is_driver=True))

    for node in tree.preorder():
        if node.trunk_buffer:
            out.append(GateLoad(node.tile, None, contents_length(node)))
        for child in sorted(node.decoupled_children):
            out.append(GateLoad(node.tile, child, 1 + below[child]))
    return out


def length_violations(tree: RouteTree, length_limit: int) -> int:
    """Number of gates driving more than ``length_limit`` tile units.

    Counts the same gates as :func:`driven_lengths` without materializing
    the :class:`GateLoad` records — this runs once per net inside the
    Stage-3/4 commit path.
    """
    below = _unbuffered_below(tree)
    violations = 0
    root = tree.root
    if not root.trunk_buffer:
        total = 0
        for child in root.children:
            if child.tile not in root.decoupled_children:
                total += 1 + below[child.tile]
        if total > length_limit:
            violations += 1
    for node in tree.preorder():
        if node.trunk_buffer:
            total = 0
            for child in node.children:
                if child.tile not in node.decoupled_children:
                    total += 1 + below[child.tile]
            if total > length_limit:
                violations += 1
        for child in node.decoupled_children:
            if 1 + below[child] > length_limit:
                violations += 1
    return violations


def net_meets_length_rule(tree: RouteTree, length_limit: int) -> bool:
    """True when no gate of the net over-drives (the paper's per-net pass/fail)."""
    return length_violations(tree, length_limit) == 0


def length_rule_floor(
    pins: Sequence[Tile],
    length_limit: int,
    wire_cost: float = 1.0,
    buffer_cost: float = 1.0,
) -> float:
    """A lower bound on ``wire_cost * edges + buffer_cost * buffers`` for
    every tree on ``pins`` that meets the rule with ``L = length_limit``.

    A tree that spans the pins crosses every column and row of their
    bounding box, so it has at least ``hpwl`` edges. Each edge is driven
    by exactly one gate and each gate drives at most ``L``, so the tree
    has at least ``ceil(hpwl / L)`` gates: the driver and
    ``ceil(hpwl / L) - 1`` buffers.
    """
    xs = [tile[0] for tile in pins]
    ys = [tile[1] for tile in pins]
    hpwl = max(xs) - min(xs) + max(ys) - min(ys)
    buffers = max(0, -(-hpwl // length_limit) - 1)
    return wire_cost * hpwl + buffer_cost * buffers
