"""Route trees embedded in the tile graph.

A :class:`RouteTree` is a tree over *tiles*: the root is the tile containing
the net's driver, every tree edge joins 4-adjacent tiles, and each node may
carry buffer annotations produced by Stage 3/4:

* a *trunk* buffer at node ``v`` drives everything downstream of ``v``;
* a *decoupling* buffer at ``v`` toward child ``w`` drives only the branch
  rooted at ``w`` (paper Fig. 8 cases c/d). Both kinds may coexist in the
  same tile — the paper explicitly allows multiple buffers per tile.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import RoutingError
from repro.tilegraph.graph import Tile, TileGraph


@dataclass(frozen=True)
class BufferSpec:
    """One buffer assignment.

    ``drives_child is None`` marks a trunk buffer driving all branches below
    ``tile``; otherwise the buffer decouples the branch toward that child.
    ``kind`` names the :class:`repro.technology.BufferKind` realized on the
    site; the empty string means the library default (the planning
    repeater), which keeps payloads and signatures byte-identical to the
    pre-library format whenever only the default is used.
    """

    tile: Tile
    drives_child: Optional[Tile] = None
    kind: str = ""


@dataclass
class RouteNode:
    """One tile of a route tree."""

    tile: Tile
    parent: Optional["RouteNode"] = None
    children: List["RouteNode"] = field(default_factory=list)
    is_sink: bool = False
    #: True when a trunk buffer is placed at this node.
    trunk_buffer: bool = False
    #: Child tiles whose branch is driven by a decoupling buffer here.
    decoupled_children: Set[Tile] = field(default_factory=set)
    #: Kind of the trunk buffer ("" = library default).
    trunk_kind: str = ""
    #: Non-default kinds of decoupling buffers, keyed by child tile.
    #: Children absent from the map carry the default kind.
    decoupled_kinds: Dict[Tile, str] = field(default_factory=dict)

    @property
    def degree(self) -> int:
        return len(self.children) + (1 if self.parent else 0)

    def buffer_count(self) -> int:
        return (1 if self.trunk_buffer else 0) + len(self.decoupled_children)

    def kind_counts(self) -> Dict[str, int]:
        """Buffer counts at this node keyed by kind name ("" = default)."""
        out: Dict[str, int] = {}
        if self.trunk_buffer:
            out[self.trunk_kind] = out.get(self.trunk_kind, 0) + 1
        for child in self.decoupled_children:
            kind = self.decoupled_kinds.get(child, "")
            out[kind] = out.get(kind, 0) + 1
        return out


class RouteTree:
    """A net's tile-level route with buffer annotations.

    Construction is via :meth:`from_paths` (union of tile paths reduced to a
    tree) or :meth:`from_parent_map`. Each tile appears at most once.
    """

    def __init__(self, root: RouteNode, nodes: Dict[Tile, RouteNode], net_name: str = ""):
        self.root = root
        self.nodes = nodes
        self.net_name = net_name
        #: Inclusive ``(x0, y0, x1, y1)`` window the maze search that built
        #: this tree read; ``None`` (any other origin) means the whole grid.
        self.read_box: Optional[Tuple[int, int, int, int]] = None
        # Memoized topology queries; invalidated by replace_two_path (the
        # only post-construction topology mutator).
        self._edges_cache: Optional[List[Tuple[Tile, Tile]]] = None
        self._wl_mm_cache: Optional[Tuple[TileGraph, float]] = None
        self._postorder_cache: Optional[List[RouteNode]] = None
        self._preorder_cache: Optional[List[RouteNode]] = None
        self._tile_indices_cache: "Optional[Tuple[int, object]]" = None

    # ------------------------------------------------------------------ #
    # Construction                                                       #
    # ------------------------------------------------------------------ #

    @classmethod
    def from_parent_map(
        cls,
        source: Tile,
        parent: Dict[Tile, Tile],
        sinks: Sequence[Tile],
        net_name: str = "",
    ) -> "RouteTree":
        """Build from a child->parent tile map rooted at ``source``.

        Every sink must be reachable from the root via the map. Tiles not
        on any source-sink path are pruned.
        """
        # Keep only tiles on some sink->source chain.
        keep: Set[Tile] = {source}
        for sink in sinks:
            t = sink
            chain = []
            while t != source:
                if t in keep:
                    break
                chain.append(t)
                if t not in parent:
                    raise RoutingError(f"sink tile {t} is not connected to source {source}")
                t = parent[t]
            keep.update(chain)

        nodes: Dict[Tile, RouteNode] = {t: RouteNode(tile=t) for t in keep}
        root = nodes[source]
        for t in keep:
            if t == source:
                continue
            p = parent[t]
            nodes[t].parent = nodes[p]
            nodes[p].children.append(nodes[t])
        for node in nodes.values():
            node.children.sort(key=lambda n: n.tile)
        for sink in sinks:
            nodes[sink].is_sink = True
        return cls(root, nodes, net_name)

    @classmethod
    def from_paths(
        cls,
        source: Tile,
        paths: Sequence[Sequence[Tile]],
        sinks: Sequence[Tile],
        net_name: str = "",
    ) -> "RouteTree":
        """Build from tile paths whose union connects source and sinks.

        The union of path edges may contain cycles (paths produced
        independently often cross); a BFS from the source extracts a
        spanning tree of the union, which every sink must touch.
        """
        adjacency: Dict[Tile, Set[Tile]] = {source: set()}
        for path in paths:
            for a, b in zip(path, path[1:]):
                if abs(a[0] - b[0]) + abs(a[1] - b[1]) != 1:
                    raise RoutingError(f"path step {a} -> {b} is not 4-adjacent")
                adjacency.setdefault(a, set()).add(b)
                adjacency.setdefault(b, set()).add(a)
        parent: Dict[Tile, Tile] = {}
        seen = {source}
        frontier = [source]
        while frontier:
            nxt: List[Tile] = []
            for u in frontier:
                for v in sorted(adjacency.get(u, ())):
                    if v not in seen:
                        seen.add(v)
                        parent[v] = u
                        nxt.append(v)
            frontier = nxt
        for sink in sinks:
            if sink not in seen:
                raise RoutingError(f"sink tile {sink} not reached by the given paths")
        return cls.from_parent_map(source, parent, sinks, net_name)

    # ------------------------------------------------------------------ #
    # Topology queries                                                   #
    # ------------------------------------------------------------------ #

    @property
    def source(self) -> Tile:
        return self.root.tile

    @property
    def sink_tiles(self) -> List[Tile]:
        return sorted(n.tile for n in self.nodes.values() if n.is_sink)

    def __contains__(self, tile: Tile) -> bool:
        return tile in self.nodes

    def node(self, tile: Tile) -> RouteNode:
        if tile not in self.nodes:
            raise RoutingError(f"tile {tile} is not on net {self.net_name!r}")
        return self.nodes[tile]

    def edges(self) -> List[Tuple[Tile, Tile]]:
        """All (parent_tile, child_tile) edges, preorder (memoized).

        Stage-2 cost evaluation walks every net's edges repeatedly; the
        list is built once and reused until the topology mutates (see
        :meth:`replace_two_path`). Treat the result as read-only.
        """
        cache = self._edges_cache
        if cache is None:
            cache = []
            stack = [self.root]
            while stack:
                node = stack.pop()
                for child in node.children:
                    cache.append((node.tile, child.tile))
                    stack.append(child)
            self._edges_cache = cache
        return cache

    def _invalidate_topology(self) -> None:
        """Drop memoized edge/wirelength values after a topology change."""
        self._edges_cache = None
        self._wl_mm_cache = None
        self._postorder_cache = None
        self._preorder_cache = None
        self._tile_indices_cache = None

    def num_edges(self) -> int:
        return len(self.nodes) - 1

    def wirelength_tiles(self) -> int:
        """Routed length in tile units (== edge count)."""
        return self.num_edges()

    def wirelength_mm(self, graph: TileGraph) -> float:
        cached = self._wl_mm_cache
        if cached is not None and cached[0] is graph:
            return cached[1]
        value = sum(graph.edge_length_mm(u, v) for u, v in self.edges())
        self._wl_mm_cache = (graph, value)
        return value

    def postorder(self) -> List[RouteNode]:
        """Children-before-parents order (memoized; treat as read-only).

        Every buffering solver and the length rule walk this order per
        visit; like :meth:`edges` the list survives until the topology
        mutates (annotation changes do not invalidate it).
        """
        out = self._postorder_cache
        if out is None:
            out = []
            stack: List[Tuple[RouteNode, bool]] = [(self.root, False)]
            while stack:
                node, expanded = stack.pop()
                if expanded:
                    out.append(node)
                else:
                    stack.append((node, True))
                    for child in node.children:
                        stack.append((child, False))
            self._postorder_cache = out
        return out

    def preorder(self) -> List[RouteNode]:
        """Parents-before-children order (memoized; treat as read-only)."""
        out = self._preorder_cache
        if out is None:
            out = []
            stack = [self.root]
            while stack:
                node = stack.pop()
                out.append(node)
                stack.extend(reversed(node.children))
            self._preorder_cache = out
        return out

    def tile_indices(self, ny: int):
        """Flat tile indices (``x * ny + y``) of every node (memoized).

        Iteration order matches ``self.nodes`` so vectorized gathers can
        be zipped back against the node map. Treat as read-only.
        """
        cached = self._tile_indices_cache
        if cached is not None and cached[0] == ny:
            return cached[1]
        import numpy as np

        idx = np.fromiter(
            (t[0] * ny + t[1] for t in self.nodes),
            dtype=np.int64,
            count=len(self.nodes),
        )
        self._tile_indices_cache = (ny, idx)
        return idx

    def validate(self) -> None:
        """Check tree structure invariants; raises RoutingError on breakage."""
        seen: Set[Tile] = set()
        for node in self.preorder():
            if node.tile in seen:
                raise RoutingError(f"tile {node.tile} appears twice")
            seen.add(node.tile)
            for child in node.children:
                if child.parent is not node:
                    raise RoutingError(f"broken parent link at {child.tile}")
                du = abs(node.tile[0] - child.tile[0]) + abs(node.tile[1] - child.tile[1])
                if du != 1:
                    raise RoutingError(f"non-adjacent edge {node.tile} -> {child.tile}")
            for dec in node.decoupled_children:
                if dec not in {c.tile for c in node.children}:
                    raise RoutingError(f"decoupled child {dec} missing at {node.tile}")
        if seen != set(self.nodes):
            raise RoutingError("node map does not match reachable tree")

    # ------------------------------------------------------------------ #
    # Buffer annotations                                                 #
    # ------------------------------------------------------------------ #

    def clear_buffers(self) -> None:
        for node in self.nodes.values():
            node.trunk_buffer = False
            node.trunk_kind = ""
            node.decoupled_children.clear()
            node.decoupled_kinds.clear()

    def buffer_specs(self) -> List[BufferSpec]:
        """All buffers on this net, deterministic order."""
        out: List[BufferSpec] = []
        for node in sorted(self.nodes.values(), key=lambda n: n.tile):
            if node.trunk_buffer:
                out.append(BufferSpec(node.tile, None, node.trunk_kind))
            for child in sorted(node.decoupled_children):
                out.append(
                    BufferSpec(node.tile, child, node.decoupled_kinds.get(child, ""))
                )
        return out

    def buffer_count(self) -> int:
        return sum(node.buffer_count() for node in self.nodes.values())

    def buffer_counts(self) -> Dict[Tile, int]:
        """Per-tile counts of this net's current buffer annotations."""
        out: Dict[Tile, int] = {}
        for node in self.nodes.values():
            count = node.buffer_count()
            if count:
                out[node.tile] = count
        return out

    def buffer_kind_counts(self) -> Dict[Tile, Dict[str, int]]:
        """Per-tile, per-kind counts ("" = default) for kind-aware rips."""
        out: Dict[Tile, Dict[str, int]] = {}
        for node in self.nodes.values():
            counts = node.kind_counts()
            if counts:
                out[node.tile] = counts
        return out

    def apply_buffers(self, specs: Sequence[BufferSpec]) -> None:
        """Install buffer annotations (clearing any existing ones)."""
        self.clear_buffers()
        for spec in specs:
            node = self.node(spec.tile)
            if spec.drives_child is None:
                node.trunk_buffer = True
                node.trunk_kind = spec.kind
            else:
                if spec.drives_child not in {c.tile for c in node.children}:
                    raise RoutingError(
                        f"{spec.tile} has no child {spec.drives_child} to decouple"
                    )
                node.decoupled_children.add(spec.drives_child)
                if spec.kind:
                    node.decoupled_kinds[spec.drives_child] = spec.kind
                else:
                    node.decoupled_kinds.pop(spec.drives_child, None)

    # ------------------------------------------------------------------ #
    # Tile-graph usage                                                   #
    # ------------------------------------------------------------------ #

    def add_usage(self, graph: TileGraph) -> None:
        """Record this net's wires and buffers on the graph."""
        for u, v in self.edges():
            graph.add_wire(u, v, 1)
        for node in self.nodes.values():
            if node.trunk_buffer or node.decoupled_children:
                for kind, count in node.kind_counts().items():
                    graph.use_site(node.tile, count, kind)

    def remove_usage(self, graph: TileGraph) -> None:
        """Remove this net's wires and buffers from the graph."""
        for u, v in self.edges():
            graph.add_wire(u, v, -1)
        for node in self.nodes.values():
            if node.trunk_buffer or node.decoupled_children:
                for kind, count in node.kind_counts().items():
                    graph.use_site(node.tile, -count, kind)

    # ------------------------------------------------------------------ #
    # Two-path decomposition (Stage 4)                                   #
    # ------------------------------------------------------------------ #

    def two_paths(self) -> List[List[Tile]]:
        """Decompose into two-paths (paper Section III-D).

        A two-path starts and ends at a Steiner node (degree >= 3), the
        source, or a sink, and contains only degree-2 pass-through tiles in
        between. Returned head-first, where the head is the endpoint nearer
        the source (its upstream end).
        """
        def is_endpoint(node: RouteNode) -> bool:
            return (
                node is self.root
                or node.is_sink
                or len(node.children) >= 2
            )

        out: List[List[Tile]] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            for child in node.children:
                path = [node.tile, child.tile]
                walker = child
                while not is_endpoint(walker) and len(walker.children) == 1:
                    walker = walker.children[0]
                    path.append(walker.tile)
                out.append(path)
                stack.append(walker)
        return out

    def replace_two_path(self, old_path: List[Tile], new_path: List[Tile]) -> None:
        """Swap the interior of a two-path for a new tile path.

        ``old_path`` and ``new_path`` must share head (index 0) and tail
        (index -1). The new interior tiles must not collide with any other
        tile of the tree. Buffer annotations on removed tiles are dropped;
        the caller is expected to re-run buffer insertion afterwards.
        Removed nodes are unlinked from each other, so reference counting
        frees them without waiting for the cycle collector.
        """
        if old_path[0] != new_path[0] or old_path[-1] != new_path[-1]:
            raise RoutingError("replacement path must keep the same endpoints")
        head, tail = old_path[0], old_path[-1]
        interior_old = old_path[1:-1]
        interior_new = new_path[1:-1]
        occupied = set(self.nodes) - set(interior_old)
        for t in interior_new:
            if t in occupied:
                raise RoutingError(f"replacement tile {t} collides with the tree")
        head_node = self.node(head)
        tail_node = self.node(tail)
        # Detach: remove old interior nodes and the link into the tail.
        first_old = self.node(old_path[1]) if interior_old else tail_node
        head_node.children = [c for c in head_node.children if c is not first_old]
        head_node.decoupled_children.discard(first_old.tile)
        head_node.decoupled_kinds.pop(first_old.tile, None)
        for t in interior_old:
            node = self.nodes.pop(t)
            node.parent = None
            node.children = []
        # Attach new interior.
        prev = head_node
        for t in interior_new:
            node = RouteNode(tile=t, parent=prev)
            prev.children.append(node)
            prev.children.sort(key=lambda n: n.tile)
            self.nodes[t] = node
            prev = node
        tail_node.parent = prev
        prev.children.append(tail_node)
        prev.children.sort(key=lambda n: n.tile)
        self.read_box = None  # no longer the maze search's tree
        self._invalidate_topology()
