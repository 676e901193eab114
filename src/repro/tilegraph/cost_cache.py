"""Incremental Eq. (1) congestion-cost cache over a tile graph's edges.

Stage 2 evaluates the paper's Eq. (1)

    Cost(e) = (w(e) + 1) / (W(e) - w(e))   when w(e)/W(e) < 1
              infinity                     otherwise

once per heap relaxation — millions of times per pass. Recomputing it from
the usage arrays on every lookup is what made the object-graph router
slow. This cache materializes the *strict* cost (infinite at saturation)
and the *soft* cost (saturation mapped to a large finite overflow penalty)
for every edge as plain Python lists, and recomputes only the edges whose
usage changed since the last refresh (a dirty set fed by
:meth:`TileGraph.add_wire`), so a net's rip-up/commit invalidates a few
dozen entries rather than the whole grid.

Lists, not NumPy arrays, are the lookup store: the maze kernel reads one
scalar per relaxation, and CPython list indexing is several times faster
than NumPy scalar access. Refreshes still *compute* vectorized — the dirty
indices are gathered, evaluated in one NumPy expression (bit-identical to
the scalar formulas, both are IEEE-754 double ops on exactly represented
integers), and scattered back.

Thread-safety contract: refresh and mutation must happen on the
coordinating thread; concurrent *readers* of the returned lists are safe
as long as no usage changes underneath them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Set

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.tilegraph.graph import TileGraph

#: Soft-mode penalty charged per unit of overflow on a saturated edge.
#: (Canonical home of the constant; re-exported by repro.routing.maze.)
OVERFLOW_PENALTY = 1_000.0


class CongestionCostCache:
    """Per-edge strict/soft Eq. (1) costs with dirty-set invalidation."""

    __slots__ = (
        "_graph",
        "_strict",
        "_soft",
        "_dirty",
        "_all_dirty",
        "refreshes",
        "edges_recomputed",
        "invalidations",
    )

    def __init__(self, graph: "TileGraph") -> None:
        self._graph = graph
        n = graph.num_edges
        self._strict: List[float] = [0.0] * n
        self._soft: List[float] = [0.0] * n
        self._dirty: Set[int] = set()
        self._all_dirty = True
        #: Telemetry counters (read by the obs layer / tests).
        self.refreshes = 0
        self.edges_recomputed = 0
        self.invalidations = 0
        graph.register_cost_cache(self)

    # -- invalidation --------------------------------------------------- #

    def mark_dirty(self, eid: int) -> None:
        """Record that edge ``eid``'s usage changed."""
        self.invalidations += 1
        if not self._all_dirty:
            self._dirty.add(eid)

    def mark_all_dirty(self) -> None:
        """Invalidate every edge (bulk usage reset/restore)."""
        self.invalidations += 1
        self._all_dirty = True
        self._dirty.clear()

    @property
    def dirty_count(self) -> int:
        """Edges pending recompute (the whole grid counts when all-dirty)."""
        return self._graph.num_edges if self._all_dirty else len(self._dirty)

    # -- refresh -------------------------------------------------------- #

    def _compute(self, usage: np.ndarray, capacity: np.ndarray):
        """Vectorized strict and soft Eq. (1) over the given edge slices."""
        in_capacity = (capacity > 0) & (usage < capacity)
        strict = np.full(usage.shape, np.inf)
        np.divide(
            usage + 1.0, capacity - usage, out=strict, where=in_capacity
        )
        soft = np.where(
            capacity <= 0,
            OVERFLOW_PENALTY * (usage + 1.0),
            np.where(
                usage >= capacity,
                OVERFLOW_PENALTY * (usage - capacity + 1.0),
                strict,
            ),
        )
        return strict, soft

    def refresh(self) -> int:
        """Recompute pending edges; returns how many were recomputed."""
        graph = self._graph
        if self._all_dirty:
            strict, soft = self._compute(graph.edge_usage, graph.edge_capacity)
            self._strict[:] = strict.tolist()
            self._soft[:] = soft.tolist()
            recomputed = graph.num_edges
            self._all_dirty = False
            self._dirty.clear()
        elif self._dirty:
            idx = np.fromiter(self._dirty, dtype=np.int64, count=len(self._dirty))
            strict, soft = self._compute(
                graph.edge_usage[idx], graph.edge_capacity[idx]
            )
            strict_list = self._strict
            soft_list = self._soft
            for i, s, f in zip(idx.tolist(), strict.tolist(), soft.tolist()):
                strict_list[i] = s
                soft_list[i] = f
            recomputed = len(self._dirty)
            self._dirty.clear()
        else:
            return 0
        self.refreshes += 1
        self.edges_recomputed += recomputed
        return recomputed

    # -- lookup --------------------------------------------------------- #

    def strict_costs(self) -> List[float]:
        """The strict Eq. (1) cost list, refreshed if stale.

        The returned list is live — do not mutate it; re-call after any
        usage change (a stale reference is only coherent until the next
        :meth:`refresh`).
        """
        if self._all_dirty or self._dirty:
            self.refresh()
        return self._strict

    def soft_costs(self) -> List[float]:
        """The soft-penalty cost list, refreshed if stale."""
        if self._all_dirty or self._dirty:
            self.refresh()
        return self._soft

    def strict_cost(self, u, v) -> float:
        """Scalar convenience lookup (tests/diagnostics)."""
        return self.strict_costs()[self._graph.edge_id(u, v)]

    def soft_cost(self, u, v) -> float:
        return self.soft_costs()[self._graph.edge_id(u, v)]
