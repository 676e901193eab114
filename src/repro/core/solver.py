"""The unified buffering-solver interface (Stage 3's pluggable core).

Every buffering algorithm in the repo — the length-based single-sink DP
(Fig. 6), the Fig. 9 multi-sink DP, the greedy best-effort pass, and the
timing-driven van Ginneken DP — is exposed behind one small protocol:

    solver.solve(request) -> SolveOutcome

A :class:`SolveRequest` carries the net (tree), its length limit, and a
``cost_of`` callable materialized from the flat Eq. (2) cost field; a
:class:`SolveOutcome` carries the proposed buffer specs. Solvers are
*pure*: they read the graph but never book sites or touch tree
annotations — committing an outcome (site booking under a
:class:`SiteLedger` transaction, greedy fallback on oversubscription) is
``repro.core.assignment``'s job.

The per-net ``q(v)`` lookups go through :class:`Stage3CostField`, which
gathers Eq. (2) over the net's own tiles in one vectorized shot (flat
index arithmetic, same ``x * ny + y`` scheme as the routing kernel)
instead of probing ``sites``/``used_sites``/``p(v)`` per tile. The
vectorized costs are bit-identical to the scalar formula: both are
IEEE-754 double ops on exactly represented integers.

Strategy selection is per net via :func:`make_solver` /
``RabidConfig.stage3_solver`` (plus the ``stage3_solvers`` per-net
override map); :func:`make_solver_lookup` turns a config into the
net-name -> solver mapping every Stage-3 walk uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.candidates import INF
from repro.core.multi_sink import insert_buffers_multi_sink
from repro.core.single_sink import insert_buffers_single_sink
from repro.errors import ConfigurationError
from repro.routing.tree import BufferSpec, RouteTree
from repro.tilegraph.graph import Tile, TileGraph

#: Names accepted by :func:`make_solver` and ``RabidConfig.stage3_solver``.
SOLVER_NAMES = ("dp", "single_sink", "greedy", "van_ginneken", "multi_type")


@dataclass(frozen=True)
class SolveRequest:
    """One net's buffering problem, as seen by a solver."""

    graph: TileGraph
    tree: RouteTree
    length_limit: int
    #: Eq. (2) cost per tile (with the ``p(v)`` term when Stage 3 runs
    #: with probabilities); defined at least on the tree's own tiles.
    cost_of: Callable[[Tile], float]
    tracer: object = None


@dataclass
class SolveOutcome:
    """A solver's proposal. Nothing is booked or annotated yet.

    ``feasible=False`` means the strategy found no legal solution (or
    deliberately defers, like the pure-greedy strategy) and the caller
    should run the greedy best-effort fallback.
    """

    specs: List[BufferSpec] = field(default_factory=list)
    cost: float = INF
    feasible: bool = False
    solver: str = ""


class BufferingSolver:
    """Protocol for buffering strategies (duck-typed; subclassing is
    optional). Implementations must be read-only with respect to the
    graph and the tree."""

    name: str = ""

    def solve(self, request: SolveRequest) -> SolveOutcome:  # pragma: no cover
        raise NotImplementedError


class MultiSinkDPSolver(BufferingSolver):
    """The paper's Fig. 9 DP — optimal length-legal buffering (default)."""

    name = "dp"

    def solve(self, request: SolveRequest) -> SolveOutcome:
        result = insert_buffers_multi_sink(
            request.tree,
            request.cost_of,
            request.length_limit,
            tracer=request.tracer,
        )
        return SolveOutcome(result.buffers, result.cost, result.feasible, self.name)


class SingleSinkDPSolver(BufferingSolver):
    """The Fig. 6 path DP for two-pin nets; multi-sink trees delegate.

    On a pure source-to-sink path the O(nL) single-sink recurrence and
    the O(mL^2 + nL) multi-sink DP agree on cost (the path has one branch
    everywhere), so delegation keeps mixed netlists correct.
    """

    name = "single_sink"

    def __init__(self) -> None:
        self._multi = MultiSinkDPSolver()

    def solve(self, request: SolveRequest) -> SolveOutcome:
        path = _as_path(request.tree)
        if path is None:
            return self._multi.solve(request)
        cost, specs, feasible = insert_buffers_single_sink(
            path, request.cost_of, request.length_limit
        )
        return SolveOutcome(specs, cost, feasible, self.name)


class GreedySolver(BufferingSolver):
    """Always use the greedy best-effort pass.

    Returns ``feasible=False`` with no specs: the shared commit path then
    runs :func:`repro.core.fallback.greedy_buffering` against live site
    availability — the same code path every other strategy falls back to.
    Nets buffered this way are reported in ``dp_infeasible_nets`` (the DP
    was never consulted).
    """

    name = "greedy"

    def solve(self, request: SolveRequest) -> SolveOutcome:
        return SolveOutcome([], INF, False, self.name)


class VanGinnekenSolver(BufferingSolver):
    """Timing-driven buffering (minimize worst Elmore sink delay).

    The paper positions this for later design stages when timing is
    meaningful; as a Stage-3 strategy it buffers for delay while the
    commit path still enforces site capacity (greedy fallback when the
    delay-optimal solution stacks more buffers into a tile than it has
    free sites). ``cost`` is reported as ``inf`` — Elmore delays are not
    comparable with Eq. (2) totals.
    """

    name = "van_ginneken"

    def __init__(self, technology, max_candidates: int = 64) -> None:
        if technology is None:
            raise ConfigurationError(
                "the van_ginneken strategy needs a technology"
            )
        self.technology = technology
        self.max_candidates = max_candidates

    def solve(self, request: SolveRequest) -> SolveOutcome:
        from repro.timing.van_ginneken import timing_driven_buffering

        _, specs = timing_driven_buffering(
            request.tree,
            request.graph,
            self.technology,
            max_candidates=self.max_candidates,
            tracer=request.tracer,
        )
        return SolveOutcome(specs, INF, True, self.name)


class MultiTypeDPSolver(BufferingSolver):
    """The Fig. 9 placement DP plus Li–Shi kind sizing over a library.

    Phase A is exactly the ``dp`` strategy's recurrence, so placements,
    Eq. (2) cost, and feasibility are identical to ``dp`` — with a
    single-kind library the outcome is byte-identical. Phase B
    (:func:`repro.core.multi_type.assign_buffer_kinds`) then picks each
    placed buffer's kind from the library to minimize the worst Elmore
    sink delay, with cross-kind Pareto pruning keeping the candidate
    lists O(b). Kinds equal to the library default are reported as ``""``.
    """

    name = "multi_type"

    def __init__(
        self,
        technology,
        library=None,
        max_candidates: int = 64,
    ) -> None:
        if technology is None:
            raise ConfigurationError(
                "the multi_type strategy needs a technology"
            )
        from repro.technology.buffers import resolve_library

        self.technology = technology
        self.library = (
            library
            if library is not None
            else resolve_library("single", technology)
        )
        self.max_candidates = max_candidates
        self._multi = MultiSinkDPSolver()

    def solve(self, request: SolveRequest) -> SolveOutcome:
        from repro.core.multi_type import assign_buffer_kinds

        placed = self._multi.solve(request)
        if not placed.feasible or not placed.specs:
            return SolveOutcome(
                placed.specs, placed.cost, placed.feasible, self.name
            )
        specs = assign_buffer_kinds(
            request.tree,
            request.graph,
            self.technology,
            self.library,
            placed.specs,
            max_candidates=self.max_candidates,
            tracer=request.tracer,
        )
        return SolveOutcome(specs, placed.cost, True, self.name)


def _as_path(tree: RouteTree) -> "Optional[List[Tile]]":
    """The root-to-sink tile path when ``tree`` is a simple chain."""
    path: List[Tile] = []
    node = tree.root
    while True:
        path.append(node.tile)
        if not node.children:
            return path if node.is_sink and len(tree.sink_tiles) == 1 else None
        if len(node.children) > 1 or node.is_sink:
            return None
        node = node.children[0]


def make_solver(
    name: str,
    technology=None,
    max_candidates: int = 64,
    buffer_library: str = "single",
) -> BufferingSolver:
    """Instantiate a strategy by registry name.

    Args:
        name: one of :data:`SOLVER_NAMES`.
        technology: electrical parameters, required by ``van_ginneken``
            and ``multi_type``.
        max_candidates: the per-node Pareto cap of the timing-driven
            strategies.
        buffer_library: named library (:data:`repro.technology.LIBRARY_NAMES`)
            the ``multi_type`` strategy sizes over; other strategies only
            ever place the default repeater and ignore it.
    """
    if name == "dp":
        return MultiSinkDPSolver()
    if name == "single_sink":
        return SingleSinkDPSolver()
    if name == "greedy":
        return GreedySolver()
    if name == "van_ginneken":
        return VanGinnekenSolver(technology, max_candidates)
    if name == "multi_type":
        from repro.technology.buffers import resolve_library

        if technology is None:
            raise ConfigurationError(
                "the multi_type strategy needs a technology"
            )
        return MultiTypeDPSolver(
            technology,
            library=resolve_library(buffer_library, technology),
            max_candidates=max_candidates,
        )
    raise ConfigurationError(
        f"unknown buffering solver {name!r}; expected one of {SOLVER_NAMES}"
    )


def make_solver_lookup(config) -> Callable[[str], BufferingSolver]:
    """Net name -> solver for a :class:`repro.core.RabidConfig`.

    Honors the per-net ``stage3_solvers`` overrides and builds each
    strategy once; every call returns a lookup with its own cache.
    """
    solvers: Dict[str, BufferingSolver] = {}

    def solver_for(name: str) -> BufferingSolver:
        key = config.solver_name_for(name)
        solver = solvers.get(key)
        if solver is None:
            solver = solvers[key] = make_solver(
                key,
                technology=config.technology,
                buffer_library=config.buffer_library,
            )
        return solver

    return solver_for


class Stage3CostField:
    """Vectorized per-net Eq. (2) costs with the ``p(v)`` term.

        q(v) = (b(v) + p(v) + 1) / (B(v) - b(v))   when b(v)/B(v) < 1
               infinity                            otherwise

    One gather over the net's memoized flat tile indices replaces a
    scalar ``buffer_site_cost``/``p(v)`` probe per DP node. The dict a
    solver receives is rebuilt per net, so it always reflects the
    bookings of every previously committed net.
    """

    def __init__(self, graph: TileGraph, probability=None) -> None:
        self._graph = graph
        self._sites = graph.sites_flat
        self._used = graph.used_sites_flat
        self._p = probability.field_flat if probability is not None else None

    def cost_map(self, tree: RouteTree) -> Dict[Tile, float]:
        """``{tile: q(v)}`` over the tree's tiles, freshly gathered."""
        idx = tree.tile_indices(self._graph.ny)
        sites = self._sites[idx]
        used = self._used[idx]
        numerator = used + self._p[idx] + 1.0 if self._p is not None else used + 1.0
        q = np.full(len(idx), INF)
        np.divide(
            numerator,
            sites - used,
            out=q,
            where=(sites > 0) & (used < sites),
        )
        return dict(zip(tree.nodes, q.tolist()))

    def cost_fn(self, tree: RouteTree) -> Callable[[Tile], float]:
        """A ``cost_of`` callable for one net's solve."""
        return self.cost_map(tree).__getitem__
