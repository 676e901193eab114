"""Stage 3: buffer assignment over all nets (paper Section III-C).

The per-net pipeline is *solve then commit*:

* **solve** — :func:`solve_net` runs the Fig. 9 DP over a vectorized
  Eq. (2) cost gather (:class:`Stage3CostField`) and, when the plan's
  buffer library has more than one kind, sizes each placed buffer with
  Li & Shi's kind assignment. Solving is pure: it never mutates the
  graph or the tree.
* **commit** — the specs are booked through the graph's transactional
  :class:`repro.tilegraph.ledger.SiteLedger`. A proposal that would push
  a tile past ``B(v)`` is rolled back (counted as
  ``stage3.ledger_rollbacks``) and the greedy best-effort fallback runs
  in its place, its buffers sized like the DP's; exceptions anywhere
  inside a net's scope unwind its site bookings automatically.

Stage 3's walk (:func:`run_buffer_walk`), Stage 4's reinsertion and the
rescue pass (both through :func:`assign_buffers_to_net`) buffer every net
this way. Nets are visited strictly in order: each net's solve sees the
bookings of every net committed before it. RABID walks in descending
delay, as the paper does; the service's ``full_plan`` and incremental
replay walk in name order and replay cached :class:`NetOutcome` records
where they can.

The plan signature (:func:`buffering_signature`, a SHA-256 over every
net's buffer specs, the ``b(v)`` grid and the failed-net list) pins
"identical Stage-3 output": moving even one buffer of one net changes
it. The buffering goldens and the service's plan identity both use it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.candidates import INF
from repro.core.fallback import greedy_buffering
from repro.core.length_rule import net_meets_length_rule
from repro.core.multi_sink import DPResult, insert_buffers_multi_sink
from repro.core.multi_type import assign_buffer_kinds
from repro.core.probability import UsageProbability
from repro.errors import DeadlineError
from repro.obs import NULL_TRACER
from repro.routing.tree import BufferSpec, RouteTree
from repro.technology import TECH_180NM, BufferLibrary, Technology, resolve_library
from repro.tilegraph.graph import Tile, TileGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.rabid import RabidConfig


class Stage3CostField:
    """Vectorized per-net Eq. (2) costs with the ``p(v)`` term.

        q(v) = (b(v) + p(v) + 1) / (B(v) - b(v))   when b(v)/B(v) < 1
               infinity                            otherwise

    One gather over the net's memoized flat tile indices (the routing
    kernel's ``x * ny + y`` scheme) replaces a scalar
    ``buffer_site_cost``/``p(v)`` probe per DP node, and is bit-identical
    to it: both are IEEE-754 double ops on exactly represented integers.
    The map is rebuilt per net, so it always reflects the bookings of
    every previously committed net.
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
        """The ``cost_of`` callable of one net's DP."""
        return self.cost_map(tree).__getitem__


@dataclass(frozen=True)
class NetOutcome:
    """One net's committed Stage-3 result (replayable)."""

    specs: Tuple[BufferSpec, ...]
    meets: bool
    dp_ok: bool
    cost: float


def buffers_as_json(
    routes: Dict[str, RouteTree]
) -> Dict[str, List[List[Optional[List[int]]]]]:
    """Canonical JSON-able buffer specs per net (for golden files).

    Default-kind buffers stay two-element ``[tile, child]`` entries, so
    every pre-library golden (and the signature over this payload) is
    byte-identical; a non-default kind appends its name as a third
    element.
    """
    return {
        name: [
            [list(s.tile), list(s.drives_child) if s.drives_child else None]
            + ([s.kind] if s.kind else [])
            for s in routes[name].buffer_specs()
        ]
        for name in sorted(routes)
    }


def buffering_signature(
    routes: Dict[str, RouteTree], graph, failed: List[str]
) -> str:
    """SHA-256 over buffer specs, the ``b(v)`` grid, and the failed nets."""
    payload = json.dumps(
        {
            "buffers": buffers_as_json(routes),
            "used_sites": graph.used_sites.tolist(),
            "failed": sorted(failed),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def solve_net(
    graph: TileGraph,
    tree: RouteTree,
    length_limit: int,
    cost_field: Stage3CostField,
    technology: Technology = TECH_180NM,
    library: "BufferLibrary | None" = None,
    tracer=None,
) -> DPResult:
    """Propose one net's buffers (read-only: nothing is booked).

    The Fig. 9 DP places buffers at the least total Eq. (2) cost of
    ``cost_field`` under the length rule. When ``library`` has more than
    one kind, :func:`repro.core.multi_type.assign_buffer_kinds` then picks
    each placed buffer's kind to cut the worst Elmore sink delay under
    ``technology``; positions, cost and feasibility stay the DP's. With a
    one-kind library (or none) every buffer is the default repeater.
    """
    result = insert_buffers_multi_sink(
        tree, cost_field.cost_fn(tree), length_limit, tracer=tracer
    )
    # An infeasible DP proposes no buffers, so only a legal placement is
    # ever sized.
    result.buffers = _sized(tree, graph, result.buffers, technology, library, tracer)
    return result


def _sized(
    tree: RouteTree,
    graph: TileGraph,
    specs: List[BufferSpec],
    technology: Technology,
    library: "BufferLibrary | None",
    tracer=None,
) -> List[BufferSpec]:
    """``specs`` with each buffer's kind picked over ``library`` when it
    has more than one kind (:func:`assign_buffer_kinds`), else as given."""
    if library is None or len(library.kinds) <= 1 or not specs:
        return specs
    return assign_buffer_kinds(tree, graph, technology, library, specs, tracer=tracer)


def _commit_outcome(
    graph: TileGraph,
    tree: RouteTree,
    length_limit: int,
    outcome: DPResult,
    technology: Technology,
    library: "BufferLibrary | None",
    tracer=None,
) -> "tuple[bool, bool, float]":
    """Book a proposal under a ledger scope; fall back to greedy.

    The proposal's sites are booked inside a nested transaction; if any
    of its tiles ends up past ``B(v)`` the booking is rolled back (the
    DP prices each buffer at the same pre-net ``q(v)`` and so can stack
    a tile past its free sites) and the greedy pass — which always
    respects free-site counts — takes over. Its buffers are sized over
    ``library`` as the DP's would have been.
    """
    ledger = graph.ledger()
    specs, cost = outcome.buffers, outcome.cost
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
            specs = _sized(
                tree,
                graph,
                greedy_buffering(tree, graph, length_limit),
                technology,
                library,
                tracer,
            )
            cost = INF
            for spec in specs:
                graph.use_site(spec.tile, 1, spec.kind)
        tree.apply_buffers(specs)
    return net_meets_length_rule(tree, length_limit), outcome.feasible, cost


def assign_buffers_to_net(
    graph: TileGraph,
    tree: RouteTree,
    length_limit: int,
    probability: "UsageProbability | None" = None,
    tracer=None,
    technology: Technology = TECH_180NM,
    library: "BufferLibrary | None" = None,
    rebuffer: bool = False,
) -> "tuple[bool, bool, float]":
    """Buffer one net: :func:`solve_net`, greedy fallback when infeasible.

    Applies the chosen buffers to the tree annotations and the graph's
    ``b(v)`` counters. The whole operation is one ledger transaction:
    partial failures cannot leak site bookings.

    Args:
        graph: tile graph carrying ``B(v)``/``b(v)``.
        tree: the net's route; annotations are overwritten.
        length_limit: the net's ``L_i``.
        probability: optional ``p(v)`` source for the Eq. (2) costs.
        tracer: optional :class:`repro.obs.Tracer`.
        technology: electrical parameters the kind sizing delays use.
        library: the plan's buffer library; with more than one kind the
            placed buffers are sized over it.
        rebuffer: the tree's current annotations are booked on the graph
            and should be released first (the rip-up-and-recompute flow) —
            the DP and the oversubscription test then both see the sites
            this net itself frees.

    Returns:
        ``(meets_rule, dp_was_feasible, cost)``.
    """
    ledger = graph.ledger()
    with ledger.transaction():
        if rebuffer:
            for tile, kinds in tree.buffer_kind_counts().items():
                for kind, count in kinds.items():
                    graph.use_site(tile, -count, kind)
        outcome = solve_net(
            graph,
            tree,
            length_limit,
            Stage3CostField(graph, probability),
            technology,
            library,
            tracer=tracer,
        )
        return _commit_outcome(
            graph, tree, length_limit, outcome, technology, library, tracer=tracer
        )


def run_buffer_walk(
    graph: TileGraph,
    routes: Dict[str, RouteTree],
    limits: Dict[str, int],
    order: Sequence[str],
    config: "RabidConfig",
    tracer=None,
    replay: "Callable[[str], Optional[NetOutcome]] | None" = None,
    on_solved: "Callable[[str, NetOutcome], None] | None" = None,
    abort_check: "Callable[[], bool] | None" = None,
) -> Dict[str, NetOutcome]:
    """Buffer every net of ``order``, one after another (Stage 3).

    ``p(v)`` is seeded from every net in ``order`` when
    ``config.use_probability`` is set, and each net's own contribution
    is removed just before its turn; the net is then solved
    (:func:`solve_net`, sized over ``config.buffer_library``) and
    committed under ``B(v)``.

    When ``replay`` returns a cached :class:`NetOutcome` for a net, its
    specs are *booked* (use-site + annotations) without re-running the
    DP; because the walk reconstructs the same prefix ``b(v)``/
    ``p(v)`` state the original run saw, replayed and re-solved nets
    compose into a plan identical to a from-scratch walk. ``on_solved``
    is called after each solved (not replayed) net.

    The whole walk runs inside one :class:`SiteLedger` transaction, so
    an exception anywhere unwinds every site booking made so far.
    ``abort_check`` is the caller's deadline hook: polled between nets,
    a True return raises :class:`repro.errors.DeadlineError` and the
    graph is left untouched.

    Traced, each solved net emits a ``buffered`` or ``failed`` event
    (``stage="3"``), adds its buffers to ``buffer_sites_used`` and
    ``stage3.nets_solved``, and runs the ``stage3 net {name}`` site
    check; each replayed net counts ``stage3.nets_replayed``.

    Returns:
        net name -> committed outcome, in walk order; the trees and
        graph are updated in place.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    probability = None
    if config.use_probability:
        probability = UsageProbability(graph)
        for name in order:
            probability.add_net(routes[name], limits[name])
    cost_field = Stage3CostField(graph, probability)
    technology = config.technology
    library = resolve_library(config.buffer_library, technology)
    outcomes: Dict[str, NetOutcome] = {}
    ledger = graph.ledger()
    with ledger.transaction():
        for name in order:
            if abort_check is not None and abort_check():
                raise DeadlineError(f"buffer walk aborted before net {name!r}")
            tree = routes[name]
            if probability is not None:
                probability.remove_net(tree)
            cached = replay(name) if replay is not None else None
            if cached is not None:
                for spec in cached.specs:
                    graph.use_site(spec.tile, 1, spec.kind)
                tree.apply_buffers(list(cached.specs))
                outcomes[name] = cached
                if tracer.enabled:
                    tracer.count("stage3.nets_replayed")
                continue
            outcome = solve_net(
                graph,
                tree,
                limits[name],
                cost_field,
                technology,
                library,
                tracer=tracer,
            )
            meets, dp_ok, cost = _commit_outcome(
                graph, tree, limits[name], outcome, technology, library, tracer=tracer
            )
            outcomes[name] = NetOutcome(
                specs=tuple(tree.buffer_specs()),
                meets=meets,
                dp_ok=dp_ok,
                cost=cost,
            )
            if on_solved is not None:
                on_solved(name, outcomes[name])
            if tracer.enabled:
                buffers = len(outcomes[name].specs)
                tracer.count("stage3.nets_solved")
                tracer.count("buffer_sites_used", buffers)
                tracer.event(
                    "buffered" if meets else "failed",
                    name,
                    stage="3",
                    buffers=buffers,
                    dp_feasible=dp_ok,
                )
                tracer.check_site_invariants(graph, f"stage3 net {name}")
    return outcomes
