"""Stage 3: buffer assignment over all nets (paper Section III-C).

The per-net pipeline is *solve then commit*:

* **solve** — a :class:`repro.core.solver.BufferingSolver` strategy
  (Fig. 9 DP by default) proposes buffer specs against a vectorized
  Eq. (2) cost gather. Solvers are pure: they never mutate the graph or
  the tree.
* **commit** — the specs are booked through the graph's transactional
  :class:`repro.tilegraph.ledger.SiteLedger`. A proposal that would push
  a tile past ``B(v)`` is rolled back (counted as
  ``stage3.ledger_rollbacks``) and the greedy best-effort fallback runs
  in its place; exceptions anywhere inside a net's scope unwind its site
  bookings automatically.

Nets are walked strictly in order: each net's solve sees the bookings of
every net committed before it, which is what the paper's
descending-delay order relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

from repro.core.candidates import INF, oversubscribes
from repro.core.fallback import greedy_buffering
from repro.core.length_rule import net_meets_length_rule
from repro.core.probability import UsageProbability
from repro.core.solver import (
    BufferingSolver,
    MultiSinkDPSolver,
    SolveOutcome,
    SolveRequest,
    Stage3CostField,
)
from repro.obs import NULL_TRACER
from repro.routing.tree import RouteTree
from repro.tilegraph.graph import TileGraph

#: The oversubscription test, shared engine-wide (see
#: :func:`repro.core.candidates.oversubscribes`). Kept under its
#: historical name; the ``freed`` parameter accounts for sites a net
#: itself releases when it is re-buffered.
_oversubscribes = oversubscribes


@dataclass
class AssignmentResult:
    """Summary of a Stage-3 run."""

    buffers_inserted: int = 0
    failed_nets: List[str] = field(default_factory=list)
    dp_infeasible_nets: List[str] = field(default_factory=list)
    total_cost: float = 0.0

    @property
    def num_fails(self) -> int:
        return len(self.failed_nets)


def _solve_net(
    graph: TileGraph,
    tree: RouteTree,
    length_limit: int,
    cost_field: Stage3CostField,
    solver: BufferingSolver,
    tracer=None,
) -> SolveOutcome:
    """Run one net's strategy (read-only: nothing is booked)."""
    return solver.solve(
        SolveRequest(
            graph=graph,
            tree=tree,
            length_limit=length_limit,
            cost_of=cost_field.cost_fn(tree),
            tracer=tracer,
        )
    )


def _commit_outcome(
    graph: TileGraph,
    tree: RouteTree,
    length_limit: int,
    outcome: SolveOutcome,
    tracer=None,
) -> "tuple[bool, bool, float]":
    """Book a solver proposal under a ledger scope; fall back to greedy.

    The proposal's sites are booked inside a nested transaction; if any
    of its tiles ends up past ``B(v)`` the booking is rolled back (the
    DP prices each buffer at the same pre-net ``q(v)`` and so can stack
    a tile past its free sites) and the greedy pass — which always
    respects free-site counts — takes over.
    """
    ledger = graph.ledger()
    specs, cost = outcome.specs, outcome.cost
    with ledger.transaction():
        committed = False
        if outcome.feasible:
            txn = ledger.begin()
            for spec in specs:
                graph.use_site(spec.tile, 1, spec.kind)
            # Post-booking ``free < 0`` on a spec tile is exactly the old
            # pre-booking ``count > free_sites`` test.
            if any(ledger.free_tile(spec.tile) < 0 for spec in specs):
                ledger.rollback(txn)
                if tracer is not None and tracer.enabled:
                    tracer.count("stage3.ledger_rollbacks")
            else:
                ledger.commit(txn)
                committed = True
        if not committed:
            specs = greedy_buffering(tree, graph, length_limit)
            cost = INF
            for spec in specs:
                graph.use_site(spec.tile, 1)
        tree.apply_buffers(specs)
    return net_meets_length_rule(tree, length_limit), outcome.feasible, cost


def assign_buffers_to_net(
    graph: TileGraph,
    tree: RouteTree,
    length_limit: int,
    probability: "UsageProbability | None" = None,
    tracer=None,
    solver: "BufferingSolver | None" = None,
    rebuffer: bool = False,
) -> "tuple[bool, bool, float]":
    """Buffer one net: strategy first, greedy fallback when infeasible.

    Applies the chosen buffers to the tree annotations and the graph's
    ``b(v)`` counters. The whole operation is one ledger transaction:
    partial failures cannot leak site bookings.

    Args:
        graph: tile graph carrying ``B(v)``/``b(v)``.
        tree: the net's route; annotations are overwritten.
        length_limit: the net's ``L_i``.
        probability: optional ``p(v)`` source for the Eq. (2) costs.
        tracer: optional :class:`repro.obs.Tracer`.
        solver: buffering strategy; default Fig. 9 multi-sink DP.
        rebuffer: the tree's current annotations are booked on the graph
            and should be released first (the rip-up-and-recompute flow) —
            the solver and the oversubscription test then both see the
            sites this net itself frees.

    Returns:
        ``(meets_rule, solver_was_feasible, cost)``.
    """
    if solver is None:
        solver = MultiSinkDPSolver()
    ledger = graph.ledger()
    with ledger.transaction():
        if rebuffer:
            for tile, kinds in tree.buffer_kind_counts().items():
                for kind, count in kinds.items():
                    graph.use_site(tile, -count, kind)
        outcome = _solve_net(
            graph,
            tree,
            length_limit,
            Stage3CostField(graph, probability),
            solver,
            tracer=tracer,
        )
        return _commit_outcome(graph, tree, length_limit, outcome, tracer=tracer)


def assign_buffers_stage3(
    graph: TileGraph,
    routes: Dict[str, RouteTree],
    length_limits: Dict[str, int],
    order: Sequence[str],
    use_probability: bool = True,
    tracer=None,
    solver_for: "Callable[[str], BufferingSolver] | None" = None,
) -> AssignmentResult:
    """Assign buffer sites to every net, highest-delay nets first.

    Args:
        graph: tile graph with wire usage already recorded (Stage 2 done)
            and ``b(v)`` counters at their pre-Stage-3 state.
        routes: net name -> route tree (annotations are overwritten).
        length_limits: per-net ``L_i``.
        order: processing order (paper: descending delay).
        use_probability: include the ``p(v)`` term of Eq. (2).
        tracer: optional :class:`repro.obs.Tracer`; per-net ``buffered`` /
            ``failed`` events and the ``buffer_sites_used`` counter, plus
            ``stage3.ledger_rollbacks``.
        solver_for: net name -> strategy (see
            :func:`repro.core.solver.make_solver_lookup`); default is the
            Fig. 9 multi-sink DP for every net.

    Returns:
        An :class:`AssignmentResult`; the trees and graph are updated in
        place.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    probability = None
    if use_probability:
        probability = UsageProbability(graph)
        for name in order:
            probability.add_net(routes[name], length_limits[name])
    cost_field = Stage3CostField(graph, probability)
    if solver_for is None:
        default_solver = MultiSinkDPSolver()

        def solver_for(name: str) -> BufferingSolver:
            return default_solver

    out = AssignmentResult()
    for name in order:
        tree = routes[name]
        if probability is not None:
            probability.remove_net(tree)
        outcome = _solve_net(
            graph,
            tree,
            length_limits[name],
            cost_field,
            solver_for(name),
            tracer=tracer,
        )
        meets, dp_ok, cost = _commit_outcome(
            graph, tree, length_limits[name], outcome, tracer=tracer
        )
        buffers = tree.buffer_count()
        out.buffers_inserted += buffers
        if cost != INF:
            out.total_cost += cost
        if not dp_ok:
            out.dp_infeasible_nets.append(name)
        if not meets:
            out.failed_nets.append(name)
        if tracer.enabled:
            tracer.count("buffer_sites_used", buffers)
            tracer.event(
                "buffered" if meets else "failed",
                name,
                stage="3",
                buffers=buffers,
                dp_feasible=dp_ok,
            )
            tracer.check_site_invariants(graph, f"stage3 net {name}")
    return out
