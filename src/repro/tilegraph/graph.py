"""The tile graph: grid, buffer sites, wire capacities and usages.

Storage is *flat*: tiles are numbered ``0 .. nx*ny - 1`` (column-major,
``index = x * ny + y``) and every tile-boundary edge has a flat id into
1-D usage/capacity arrays (horizontal edges first, then vertical). The
classic object API — ``(x, y)`` tile tuples, ``h_usage``/``v_usage`` 2-D
arrays — is preserved as *views* of the flat arrays, so existing call
sites keep working while the routing kernel indexes integers.

A :class:`FlatTileGraph` (built lazily, cached) packages the CSR-style
adjacency as plain Python lists for the maze router's inner loop, where
list indexing beats NumPy scalar access by a wide margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.geometry import Point, Rect
from repro.tilegraph.capacity import CapacityModel

#: A tile is addressed by integer grid coordinates ``(x, y)`` with the
#: origin tile (0, 0) at the lower-left corner of the die.
Tile = Tuple[int, int]


@dataclass
class FlatTileGraph:
    """Index-addressed adjacency of a :class:`TileGraph`, as Python lists.

    ``indptr``/``neighbors``/``edge_ids`` form a CSR over tile indices in
    the same deterministic E/W/N/S neighbor order as
    :meth:`TileGraph.neighbors`; ``tile_x``/``tile_y`` decode an index
    back to grid coordinates without divisions in the hot loop.
    """

    nx: int
    ny: int
    num_tiles: int
    num_edges: int
    indptr: List[int] = field(repr=False)
    neighbors: List[int] = field(repr=False)
    edge_ids: List[int] = field(repr=False)
    tile_x: List[int] = field(repr=False)
    tile_y: List[int] = field(repr=False)
    #: adj[i] = ((neighbor_idx, edge_id), ...) — the CSR row as one tuple,
    #: so the wavefront iterates pairs instead of indexing three arrays.
    adj: List[Tuple[Tuple[int, int], ...]] = field(repr=False)


class TileGraph:
    """A grid tiling of the die with buffer-site and wire-capacity state.

    The graph owns all mutable planning state:

    * ``B(v)`` — buffer sites per tile (``sites`` array),
    * ``b(v)`` — used buffer sites per tile (``used_sites`` array),
    * ``W(e)`` — wire capacity per tile-boundary edge,
    * ``w(e)`` — wire usage per tile-boundary edge.

    Edges are undirected. A *horizontal* edge ``((x, y), (x+1, y))`` is
    crossed by horizontally running wires; a *vertical* edge
    ``((x, y), (x, y+1))`` by vertically running ones.

    Flat layout: horizontal edge ``(x, y)-(x+1, y)`` has id
    ``x * ny + y``; vertical edge ``(x, y)-(x, y+1)`` has id
    ``num_h_edges + x * (ny - 1) + y``. ``h_usage``/``v_usage`` (and the
    capacity twins) are reshaped views of ``edge_usage``/``edge_capacity``,
    so writes through either spelling stay coherent.
    """

    def __init__(
        self,
        die: Rect,
        nx: int,
        ny: int,
        capacity_model: "CapacityModel | None" = None,
    ) -> None:
        """Create an ``nx`` x ``ny`` tiling of ``die``.

        Args:
            die: the chip outline in mm.
            nx, ny: tile counts in x and y; both must be >= 1.
            capacity_model: source of ``W(e)``; defaults to uniform 10.
        """
        if nx < 1 or ny < 1:
            raise ConfigurationError(f"grid must be at least 1x1, got {nx}x{ny}")
        self.die = die
        self.nx = nx
        self.ny = ny
        self.tile_w = die.width / nx
        self.tile_h = die.height / ny
        model = capacity_model or CapacityModel.uniform(10)
        h_cap = model.horizontal_capacity(self.tile_h)
        v_cap = model.vertical_capacity(self.tile_w)
        self.num_h_edges = max(nx - 1, 0) * ny
        self.num_v_edges = nx * max(ny - 1, 0)
        # Flat edge arrays; h_*/v_* below are reshaped views of these.
        self.edge_capacity = np.empty(self.num_h_edges + self.num_v_edges, dtype=np.int64)
        self.edge_usage = np.zeros_like(self.edge_capacity)
        # Edge views: h_* indexed [x, y] for edge (x,y)-(x+1,y);
        #             v_* indexed [x, y] for edge (x,y)-(x,y+1).
        self.h_capacity = self.edge_capacity[: self.num_h_edges].reshape(
            max(nx - 1, 0), ny
        )
        self.v_capacity = self.edge_capacity[self.num_h_edges :].reshape(
            nx, max(ny - 1, 0)
        )
        self.h_usage = self.edge_usage[: self.num_h_edges].reshape(max(nx - 1, 0), ny)
        self.v_usage = self.edge_usage[self.num_h_edges :].reshape(nx, max(ny - 1, 0))
        self.h_capacity[...] = h_cap
        self.v_capacity[...] = v_cap
        self.sites = np.zeros((nx, ny), dtype=np.int64)
        self.used_sites = np.zeros((nx, ny), dtype=np.int64)
        # Flat (length num_tiles) views of B(v)/b(v); index = x * ny + y.
        self.sites_flat = self.sites.reshape(-1)
        self.used_sites_flat = self.used_sites.reshape(-1)
        #: Cost caches notified when wire usage changes (see cost_cache.py).
        self._cost_caches: list = []
        self._default_cost_cache = None
        #: Site observers notified when b(v)/B(v) changes (see ledger.py).
        self._site_observers: list = []
        #: Non-default buffer-kind occupancy: (flat_index, kind) -> count.
        #: Default-kind usage lives only in ``used_sites``; this map refines
        #: the per-tile totals for sites realized as a specific library cell.
        self.kind_used: Dict[Tuple[int, str], int] = {}
        self._ledger = None
        self._site_cost_cache = None
        self._flat: "FlatTileGraph | None" = None

    # ------------------------------------------------------------------ #
    # Geometry                                                           #
    # ------------------------------------------------------------------ #

    @property
    def num_tiles(self) -> int:
        return self.nx * self.ny

    @property
    def tile_area_mm2(self) -> float:
        return self.tile_w * self.tile_h

    def tiles(self) -> Iterator[Tile]:
        """All tiles in column-major order."""
        for x in range(self.nx):
            for y in range(self.ny):
                yield (x, y)

    def in_bounds(self, tile: Tile) -> bool:
        x, y = tile
        return 0 <= x < self.nx and 0 <= y < self.ny

    def tile_of(self, p: Point) -> Tile:
        """The tile containing point ``p``, clamped onto the die."""
        fx = (p.x - self.die.x0) / self.tile_w if self.tile_w > 0 else 0.0
        fy = (p.y - self.die.y0) / self.tile_h if self.tile_h > 0 else 0.0
        x = min(self.nx - 1, max(0, int(math.floor(fx))))
        y = min(self.ny - 1, max(0, int(math.floor(fy))))
        return (x, y)

    def tile_center(self, tile: Tile) -> Point:
        x, y = tile
        return Point(
            self.die.x0 + (x + 0.5) * self.tile_w,
            self.die.y0 + (y + 0.5) * self.tile_h,
        )

    def tile_rect(self, tile: Tile) -> Rect:
        x, y = tile
        return Rect(
            self.die.x0 + x * self.tile_w,
            self.die.y0 + y * self.tile_h,
            self.die.x0 + (x + 1) * self.tile_w,
            self.die.y0 + (y + 1) * self.tile_h,
        )

    def neighbors(self, tile: Tile) -> List[Tile]:
        """4-neighborhood, in deterministic E/W/N/S order."""
        x, y = tile
        out: List[Tile] = []
        if x + 1 < self.nx:
            out.append((x + 1, y))
        if x - 1 >= 0:
            out.append((x - 1, y))
        if y + 1 < self.ny:
            out.append((x, y + 1))
        if y - 1 >= 0:
            out.append((x, y - 1))
        return out

    def edge_length_mm(self, u: Tile, v: Tile) -> float:
        """Center-to-center distance of adjacent tiles."""
        if u[0] != v[0]:
            return self.tile_w
        return self.tile_h

    # ------------------------------------------------------------------ #
    # Flat indexing                                                      #
    # ------------------------------------------------------------------ #

    def tile_index(self, tile: Tile) -> int:
        """Flat index of ``tile`` (column-major: ``x * ny + y``)."""
        return tile[0] * self.ny + tile[1]

    def tile_at(self, index: int) -> Tile:
        """Inverse of :meth:`tile_index`."""
        return (index // self.ny, index % self.ny)

    def edge_id(self, u: Tile, v: Tile) -> int:
        """Flat edge id of the boundary between adjacent tiles ``u``, ``v``.

        Assumes 4-adjacency (the validated path is :meth:`_edge_index`).
        """
        (ux, uy), (vx, vy) = u, v
        if uy == vy:
            return (ux if ux < vx else vx) * self.ny + uy
        return self.num_h_edges + ux * (self.ny - 1) + (uy if uy < vy else vy)

    def edge_endpoints(self, eid: int) -> Tuple[Tile, Tile]:
        """The (lower, upper) tile pair of flat edge ``eid``."""
        if eid < self.num_h_edges:
            x, y = divmod(eid, self.ny)
            return (x, y), (x + 1, y)
        rem = eid - self.num_h_edges
        x, y = divmod(rem, self.ny - 1)
        return (x, y), (x, y + 1)

    def flat(self) -> FlatTileGraph:
        """The cached index-addressed adjacency (built on first use).

        Topology never changes after construction, so the CSR is built
        exactly once per graph.
        """
        if self._flat is None:
            nx, ny = self.nx, self.ny
            n = nx * ny
            num_h = self.num_h_edges
            indptr = [0] * (n + 1)
            nbrs: List[int] = []
            eids: List[int] = []
            for x in range(nx):
                for y in range(ny):
                    if x + 1 < nx:
                        nbrs.append((x + 1) * ny + y)
                        eids.append(x * ny + y)
                    if x - 1 >= 0:
                        nbrs.append((x - 1) * ny + y)
                        eids.append((x - 1) * ny + y)
                    if y + 1 < ny:
                        nbrs.append(x * ny + y + 1)
                        eids.append(num_h + x * (ny - 1) + y)
                    if y - 1 >= 0:
                        nbrs.append(x * ny + y - 1)
                        eids.append(num_h + x * (ny - 1) + y - 1)
                    indptr[x * ny + y + 1] = len(nbrs)
            pairs = list(zip(nbrs, eids))
            self._flat = FlatTileGraph(
                nx=nx,
                ny=ny,
                num_tiles=n,
                num_edges=self.num_edges,
                indptr=indptr,
                neighbors=nbrs,
                edge_ids=eids,
                tile_x=[i // ny for i in range(n)],
                tile_y=[i % ny for i in range(n)],
                adj=[
                    tuple(pairs[indptr[i] : indptr[i + 1]]) for i in range(n)
                ],
            )
        return self._flat

    # ------------------------------------------------------------------ #
    # Cost-cache registration                                            #
    # ------------------------------------------------------------------ #

    def register_cost_cache(self, cache) -> None:
        """Subscribe ``cache`` to per-edge usage-change notifications."""
        if cache not in self._cost_caches:
            self._cost_caches.append(cache)

    def cost_cache(self):
        """The graph's shared congestion-cost cache (created on first use)."""
        if self._default_cost_cache is None:
            from repro.tilegraph.cost_cache import CongestionCostCache

            self._default_cost_cache = CongestionCostCache(self)
        return self._default_cost_cache

    def _notify_usage_changed(self, eid: int) -> None:
        for cache in self._cost_caches:
            cache.mark_dirty(eid)

    def _notify_all_usage_changed(self) -> None:
        for cache in self._cost_caches:
            cache.mark_all_dirty()
        for observer in self._site_observers:
            observer.all_sites_changed()

    # ------------------------------------------------------------------ #
    # Site-observer registration                                         #
    # ------------------------------------------------------------------ #

    def register_site_observer(self, observer) -> None:
        """Subscribe to per-tile site-change notifications.

        ``observer`` provides ``site_changed(flat_index, delta)``,
        ``all_sites_changed()``, and ``wire_changed(eid, delta)`` —
        the buffer-side mirror of :meth:`register_cost_cache`.
        """
        if observer not in self._site_observers:
            self._site_observers.append(observer)

    def ledger(self):
        """The graph's shared transactional :class:`SiteLedger`
        (created on first use)."""
        if self._ledger is None:
            from repro.tilegraph.ledger import SiteLedger

            self._ledger = SiteLedger(self)
        return self._ledger

    def site_cost_cache(self):
        """The graph's shared Eq. (2) cost cache (created on first use)."""
        if self._site_cost_cache is None:
            from repro.tilegraph.ledger import SiteCostCache

            self._site_cost_cache = SiteCostCache(self)
        return self._site_cost_cache

    def _notify_site_changed(self, index: int, delta: int) -> None:
        for observer in self._site_observers:
            observer.site_changed(index, delta)

    def _notify_all_sites_changed(self) -> None:
        """Broadcast a bulk B(v)/b(v) rewrite (site distribution, load)."""
        for observer in self._site_observers:
            observer.all_sites_changed()

    def _notify_wire_delta(self, eid: int, delta: int) -> None:
        for observer in self._site_observers:
            observer.wire_changed(eid, delta)

    # ------------------------------------------------------------------ #
    # Wire usage / capacity                                              #
    # ------------------------------------------------------------------ #

    def _edge_index(self, u: Tile, v: Tile) -> Tuple[bool, int, int]:
        """(is_horizontal, x, y) of the edge array slot for ``(u, v)``."""
        (ux, uy), (vx, vy) = u, v
        if abs(ux - vx) + abs(uy - vy) != 1:
            raise ConfigurationError(f"tiles {u} and {v} are not adjacent")
        if uy == vy:
            return True, min(ux, vx), uy
        return False, ux, min(uy, vy)

    def _checked_edge_id(self, u: Tile, v: Tile) -> int:
        (ux, uy), (vx, vy) = u, v
        if uy == vy:
            if vx - ux not in (1, -1):
                raise ConfigurationError(f"tiles {u} and {v} are not adjacent")
            return (ux if ux < vx else vx) * self.ny + uy
        if ux != vx or vy - uy not in (1, -1):
            raise ConfigurationError(f"tiles {u} and {v} are not adjacent")
        return self.num_h_edges + ux * (self.ny - 1) + (uy if uy < vy else vy)

    def wire_capacity(self, u: Tile, v: Tile) -> int:
        return int(self.edge_capacity[self._checked_edge_id(u, v)])

    def wire_usage(self, u: Tile, v: Tile) -> int:
        return int(self.edge_usage[self._checked_edge_id(u, v)])

    def add_wire(self, u: Tile, v: Tile, count: int = 1) -> None:
        """Record ``count`` wires crossing edge ``(u, v)`` (negative to remove)."""
        eid = self._checked_edge_id(u, v)
        usage = self.edge_usage
        if usage[eid] + count < 0:
            raise ConfigurationError(f"wire usage on {u}-{v} would go negative")
        usage[eid] += count
        if self._cost_caches:
            self._notify_usage_changed(eid)
        if count and self._site_observers:
            self._notify_wire_delta(eid, count)

    def add_wire_flat(self, eid: int, count: int = 1) -> None:
        """Flat-id variant of :meth:`add_wire` (hot path, unvalidated id)."""
        usage = self.edge_usage
        if usage[eid] + count < 0:
            u, v = self.edge_endpoints(eid)
            raise ConfigurationError(f"wire usage on {u}-{v} would go negative")
        usage[eid] += count
        if self._cost_caches:
            self._notify_usage_changed(eid)
        if count and self._site_observers:
            self._notify_wire_delta(eid, count)

    def set_wire_capacity(self, u: Tile, v: Tile, capacity: int) -> None:
        """Set ``W(e)`` for the boundary edge ``(u, v)``.

        Capacity edits (floorplan deltas, what-if scenarios) invalidate
        the congestion-cost caches for that edge; usage is untouched, so
        the edge may be left overflowing — the planner's rip-up stages
        are expected to resolve that.
        """
        if capacity < 0:
            raise ConfigurationError("wire capacity must be >= 0")
        if not (self.in_bounds(u) and self.in_bounds(v)):
            raise ConfigurationError(
                f"edge {u}-{v} is outside the {self.nx}x{self.ny} grid"
            )
        eid = self._checked_edge_id(u, v)
        self.edge_capacity[eid] = capacity
        if self._cost_caches:
            self._notify_usage_changed(eid)

    def edges(self) -> Iterator[Tuple[Tile, Tile]]:
        """All undirected edges, horizontal first, deterministic order."""
        for x in range(self.nx - 1):
            for y in range(self.ny):
                yield ((x, y), (x + 1, y))
        for x in range(self.nx):
            for y in range(self.ny - 1):
                yield ((x, y), (x, y + 1))

    @property
    def num_edges(self) -> int:
        return self.num_h_edges + self.num_v_edges

    # ------------------------------------------------------------------ #
    # Buffer sites                                                       #
    # ------------------------------------------------------------------ #

    def site_count(self, tile: Tile) -> int:
        """``B(v)``."""
        return int(self.sites[tile])

    def used_site_count(self, tile: Tile) -> int:
        """``b(v)``."""
        return int(self.used_sites[tile])

    def free_sites(self, tile: Tile) -> int:
        return int(self.sites[tile] - self.used_sites[tile])

    def set_sites(self, tile: Tile, count: int) -> None:
        if count < 0:
            raise ConfigurationError("site count must be >= 0")
        if count < self.used_sites[tile]:
            raise ConfigurationError("cannot set sites below current usage")
        self.sites[tile] = count
        if self._site_observers:
            # delta 0: a capacity change invalidates costs but is not a
            # usage delta, so the ledger journals nothing.
            self._notify_site_changed(tile[0] * self.ny + tile[1], 0)

    def use_site(self, tile: Tile, count: int = 1, kind: str = "") -> None:
        """Consume ``count`` buffer sites in ``tile`` (negative to release).

        Over-subscription is allowed (best-effort fallback paths may exceed
        ``B(v)``); constraint checks read the arrays directly. ``kind``
        names the buffer-library cell realized on the sites; the default
        ``""`` books plain (planning-repeater) sites and keeps the hot path
        unchanged.
        """
        self.use_site_flat(tile[0] * self.ny + tile[1], count, kind)

    def use_site_flat(self, index: int, count: int = 1, kind: str = "") -> None:
        """Flat-index variant of :meth:`use_site` (hot path)."""
        used = self.used_sites_flat
        if used[index] + count < 0:
            raise ConfigurationError(
                f"used sites in {self.tile_at(index)} would go negative"
            )
        used[index] += count
        if count and kind:
            self.adjust_kind_used(index, kind, count)
        if count and self._site_observers:
            self._notify_site_changed(index, count)

    def adjust_kind_used(self, index: int, kind: str, delta: int) -> None:
        """Adjust the per-kind refinement of ``used_sites`` (no total change).

        Used by :meth:`use_site_flat` for kinded bookings and by the
        :class:`~repro.tilegraph.ledger.SiteLedger` rollback replay, which
        must undo the kind refinement separately from the site total.
        """
        if not delta:
            return
        key = (index, kind)
        value = self.kind_used.get(key, 0) + delta
        if value < 0:
            raise ConfigurationError(
                f"kind {kind!r} usage in {self.tile_at(index)} would go negative"
            )
        if value:
            self.kind_used[key] = value
        else:
            self.kind_used.pop(key, None)
        if self._site_observers:
            for observer in self._site_observers:
                hook = getattr(observer, "site_kind_changed", None)
                if hook is not None:
                    hook(index, kind, delta)

    @property
    def total_sites(self) -> int:
        return int(self.sites.sum())

    @property
    def total_used_sites(self) -> int:
        return int(self.used_sites.sum())

    def reset_usage(self) -> None:
        """Clear all wire and buffer usage (capacities and sites kept)."""
        self.edge_usage[:] = 0
        self.used_sites[:] = 0
        self.kind_used.clear()
        self._notify_all_usage_changed()

    def snapshot_usage(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
        """Copies of (h_usage, v_usage, used_sites, kind_used) for
        save/restore."""
        return (
            self.h_usage.copy(),
            self.v_usage.copy(),
            self.used_sites.copy(),
            dict(self.kind_used),
        )

    def restore_usage(self, snapshot: Tuple) -> None:
        """Restore a :meth:`snapshot_usage` tuple.

        Accepts the legacy 3-tuple (no kind map) by clearing the per-kind
        refinement, so snapshots taken before kinds existed still restore.
        """
        h, v, b = snapshot[:3]
        self.h_usage[:] = h
        self.v_usage[:] = v
        self.used_sites[:] = b
        self.kind_used.clear()
        if len(snapshot) > 3:
            self.kind_used.update(snapshot[3])
        self._notify_all_usage_changed()
