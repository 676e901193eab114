"""Transactional buffer-site ledger and the Eq. (2) site-cost cache.

Stage 3/4 code used to protect multi-step usage mutations by hand:
snapshot ``b(v)`` (or remember per-tile rip counts), mutate, and restore
in an ``except`` block — one forgotten path and the accounting silently
drifts. The :class:`SiteLedger` replaces every such snapshot/restore with
*transaction scopes*: every ``use_site`` / ``add_wire`` delta performed
while a scope is open is journaled, a normal exit commits (folds the
journal into the enclosing scope, if any), and an exception — or an
explicit ``rollback()`` — replays the inverse deltas in reverse order.
Partial-failure paths are exception-safe by construction.

The ledger views the graph's site state as flat vectors (``used`` /
``capacity``, index = ``x * ny + y`` — the same flat tile arithmetic the
routing kernel uses), so feasibility probes are array reads, not dict
lookups over ``(x, y)`` tuples.

:class:`SiteCostCache` is the buffer-side twin of
:class:`repro.tilegraph.cost_cache.CongestionCostCache`: it materializes
the Eq. (2) cost

    q(v) = (b(v) + 1) / (B(v) - b(v))   when b(v)/B(v) < 1 and B(v) > 0
           infinity                     otherwise

(the ``p(v) = 0`` form — Stage 3 adds the probability term on top, see
``repro.core.assignment.Stage3CostField``) for every tile as a plain Python list, recomputed
vectorized over only the tiles whose ``b(v)`` or ``B(v)`` changed. Both
classes subscribe to the graph's site-observer hook
(:meth:`TileGraph.register_site_observer`), which mirrors the cost-cache
registration for wire edges.

Thread-safety contract (same as the congestion cache): mutation, refresh,
and transactions happen on the coordinating thread; concurrent *readers*
of a refreshed cost list are safe while no usage changes underneath them.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, List, Set, Tuple

import numpy as np

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.tilegraph.graph import Tile, TileGraph

#: Journal entry kinds.
_SITE = 0
_WIRE = 1
#: Per-kind refinement of a site booking: ident is ``(index, kind_name)``.
#: Always journaled alongside the matching ``_SITE`` entry (a kinded
#: ``use_site`` produces both), and undone via
#: :meth:`TileGraph.adjust_kind_used` so the rollback of the ``_SITE``
#: entry is not double-counted.
_KIND = 2


class Transaction:
    """Handle for one open ledger scope (see :meth:`SiteLedger.begin`).

    ``commit()`` / ``rollback()`` may be called once, innermost-first;
    the :meth:`SiteLedger.transaction` context manager calls whichever is
    still pending when the scope exits.
    """

    __slots__ = ("_ledger", "_depth", "closed")

    def __init__(self, ledger: "SiteLedger", depth: int) -> None:
        self._ledger = ledger
        self._depth = depth
        self.closed = False

    def commit(self) -> None:
        self._ledger.commit(self)

    def rollback(self) -> int:
        return self._ledger.rollback(self)


class SiteLedger:
    """Flat transactional view of a graph's buffer-site accounting."""

    __slots__ = (
        "_graph",
        "used",
        "capacity",
        "_journals",
        "_replaying",
        "commits",
        "rollbacks",
        "entries_rolled_back",
    )

    def __init__(self, graph: "TileGraph") -> None:
        self._graph = graph
        #: Flat (length ``num_tiles``) views of ``b(v)`` / ``B(v)`` —
        #: live aliases of ``graph.used_sites`` / ``graph.sites``.
        self.used = graph.used_sites.reshape(-1)
        self.capacity = graph.sites.reshape(-1)
        self._journals: List[List[Tuple[int, int, int]]] = []
        self._replaying = False
        #: Telemetry counters (read by the obs layer / tests).
        self.commits = 0
        self.rollbacks = 0
        self.entries_rolled_back = 0
        graph.register_site_observer(self)

    # -- flat reads ----------------------------------------------------- #

    def free(self, index: int) -> int:
        """Free sites of flat tile ``index`` (may be negative: the greedy
        fallback is allowed to overbook as a best effort)."""
        return int(self.capacity[index] - self.used[index])

    def free_tile(self, tile: "Tile") -> int:
        return self.free(self._graph.tile_index(tile))

    def overbooked_indices(self) -> List[int]:
        """Flat indices of tiles with ``b(v) > B(v)``."""
        return np.nonzero(self.used > self.capacity)[0].tolist()

    # -- observer protocol (fed by the graph) --------------------------- #

    def site_changed(self, index: int, delta: int) -> None:
        if self._journals and delta and not self._replaying:
            self._journals[-1].append((_SITE, index, delta))

    def site_kind_changed(self, index: int, kind: str, delta: int) -> None:
        if self._journals and delta and not self._replaying:
            self._journals[-1].append((_KIND, (index, kind), delta))

    def all_sites_changed(self) -> None:
        if self._journals:
            raise ConfigurationError(
                "bulk site/usage reset inside an open SiteLedger transaction"
            )

    def wire_changed(self, eid: int, delta: int) -> None:
        if self._journals and delta and not self._replaying:
            self._journals[-1].append((_WIRE, eid, delta))

    @property
    def active(self) -> bool:
        """True while at least one transaction scope is open."""
        return bool(self._journals)

    @property
    def depth(self) -> int:
        return len(self._journals)

    # -- transactions --------------------------------------------------- #

    def begin(self) -> Transaction:
        """Open a scope; every site/wire delta until close is journaled."""
        self._journals.append([])
        return Transaction(self, len(self._journals) - 1)

    def _check_innermost(self, txn: Transaction) -> None:
        if txn.closed:
            raise ConfigurationError("transaction already closed")
        if txn._depth != len(self._journals) - 1:
            raise ConfigurationError(
                "transactions must be closed innermost-first"
            )

    def commit(self, txn: Transaction) -> None:
        """Close ``txn`` keeping its effects.

        Inside an enclosing scope the journal is folded into the parent,
        so an outer rollback still undoes inner committed work.
        """
        self._check_innermost(txn)
        journal = self._journals.pop()
        if self._journals:
            self._journals[-1].extend(journal)
        txn.closed = True
        self.commits += 1

    def rollback(self, txn: Transaction) -> int:
        """Close ``txn`` undoing its effects; returns entries replayed."""
        self._check_innermost(txn)
        journal = self._journals.pop()
        graph = self._graph
        self._replaying = True
        try:
            for kind, ident, delta in reversed(journal):
                if kind == _SITE:
                    graph.use_site_flat(ident, -delta)
                elif kind == _KIND:
                    graph.adjust_kind_used(ident[0], ident[1], -delta)
                else:
                    graph.add_wire_flat(ident, -delta)
        finally:
            self._replaying = False
        txn.closed = True
        self.rollbacks += 1
        self.entries_rolled_back += len(journal)
        return len(journal)

    # -- whole-state snapshots ------------------------------------------ #

    def snapshot_state(self) -> "dict[str, List[int]]":
        """JSON-able copy of the ledger's used/capacity vectors.

        The service checkpoints call this so a restarted process resumes
        with the exact ``b(v)``/``B(v)`` accounting of the saved plan.
        """
        state: "dict[str, object]" = {
            "used": self.used.tolist(),
            "capacity": self.capacity.tolist(),
        }
        if self._graph.kind_used:
            state["kinds"] = sorted(
                [index, kind, count]
                for (index, kind), count in self._graph.kind_used.items()
            )
        return state

    def restore_state(self, state: "dict[str, List[int]]") -> None:
        """Install a :meth:`snapshot_state` payload onto the graph.

        Refused while a transaction is open (the journal could not undo a
        bulk overwrite), and on length mismatches against this graph.
        """
        if self._journals:
            raise ConfigurationError(
                "cannot restore ledger state inside an open transaction"
            )
        used = state["used"]
        capacity = state["capacity"]
        if len(used) != self.used.shape[0] or len(capacity) != self.capacity.shape[0]:
            raise ConfigurationError(
                f"ledger state is for {len(used)} tiles, graph has "
                f"{self.used.shape[0]}"
            )
        self.capacity[:] = np.asarray(capacity, dtype=np.int64)
        self.used[:] = np.asarray(used, dtype=np.int64)
        # Legacy payloads predate per-kind accounting: no "kinds" key means
        # every booked site was the default repeater.
        self._graph.kind_used.clear()
        for index, kind, count in state.get("kinds", ()):
            self._graph.kind_used[(int(index), str(kind))] = int(count)
        self._graph._notify_all_sites_changed()

    @contextmanager
    def transaction(self) -> Iterator[Transaction]:
        """Scope that commits on success and rolls back on exception.

        The yielded :class:`Transaction` supports an early explicit
        ``rollback()`` (e.g. the Stage-3 oversubscription retry); the
        scope exit then does nothing.
        """
        txn = self.begin()
        try:
            yield txn
        except BaseException:
            if not txn.closed:
                self.rollback(txn)
            raise
        else:
            if not txn.closed:
                self.commit(txn)


class SiteCostCache:
    """Per-tile Eq. (2) cost at ``p(v) = 0`` with dirty-set invalidation.

    The buffer-side mirror of :class:`CongestionCostCache`: Stage 4's
    buffered-path search (two-path reroutes and the rescue pass) reads
    the whole ``q(v)`` list once per search — list indexing on a lazily
    refreshed flat vector instead of two NumPy scalar probes and a
    division per read.
    """

    __slots__ = (
        "_graph",
        "_costs",
        "_dirty",
        "_all_dirty",
        "refreshes",
        "tiles_recomputed",
        "invalidations",
    )

    def __init__(self, graph: "TileGraph") -> None:
        self._graph = graph
        self._costs: List[float] = [0.0] * graph.num_tiles
        self._dirty: Set[int] = set()
        self._all_dirty = True
        #: Telemetry counters (read by the obs layer / tests).
        self.refreshes = 0
        self.tiles_recomputed = 0
        self.invalidations = 0
        graph.register_site_observer(self)

    # -- observer protocol ---------------------------------------------- #

    def site_changed(self, index: int, delta: int) -> None:
        self.invalidations += 1
        if not self._all_dirty:
            self._dirty.add(index)

    def all_sites_changed(self) -> None:
        self.invalidations += 1
        self._all_dirty = True
        self._dirty.clear()

    def wire_changed(self, eid: int, delta: int) -> None:
        pass  # q(v) does not depend on wire usage

    @property
    def dirty_count(self) -> int:
        return self._graph.num_tiles if self._all_dirty else len(self._dirty)

    # -- refresh -------------------------------------------------------- #

    @staticmethod
    def compute(sites: np.ndarray, used: np.ndarray) -> np.ndarray:
        """Vectorized Eq. (2) at ``p = 0`` (bit-identical to the scalar
        formula: both are IEEE-754 double ops on exactly represented
        integers)."""
        in_capacity = (sites > 0) & (used < sites)
        q = np.full(np.shape(sites), np.inf)
        np.divide(used + 1.0, sites - used, out=q, where=in_capacity)
        return q

    def refresh(self) -> int:
        """Recompute pending tiles; returns how many were recomputed."""
        graph = self._graph
        sites = graph.sites.reshape(-1)
        used = graph.used_sites.reshape(-1)
        if self._all_dirty:
            self._costs[:] = self.compute(sites, used).tolist()
            recomputed = graph.num_tiles
            self._all_dirty = False
            self._dirty.clear()
        elif self._dirty:
            idx = np.fromiter(self._dirty, dtype=np.int64, count=len(self._dirty))
            values = self.compute(sites[idx], used[idx])
            costs = self._costs
            for i, q in zip(idx.tolist(), values.tolist()):
                costs[i] = q
            recomputed = len(self._dirty)
            self._dirty.clear()
        else:
            return 0
        self.refreshes += 1
        self.tiles_recomputed += recomputed
        return recomputed

    # -- lookup --------------------------------------------------------- #

    def costs(self) -> List[float]:
        """The flat ``q(v)`` list, refreshed if stale.

        The returned list is live — do not mutate it; re-call after any
        site change.
        """
        if self._all_dirty or self._dirty:
            self.refresh()
        return self._costs

    def cost(self, tile: "Tile") -> float:
        """Scalar convenience lookup (tests/diagnostics)."""
        return self.costs()[self._graph.tile_index(tile)]
