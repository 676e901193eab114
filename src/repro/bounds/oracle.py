"""The buffered-MCF lower-bound oracle.

RABID is a heuristic; this module bounds how far its plans can be from
optimal. Following the multicommodity-flow formulation of buffered
global routing (Albrecht/Kahng/Mandoiu/Zelikovsky; see PAPERS.md), the
LP assigns each net a fractional combination of *buffered candidate
trees* subject to wire capacities ``W(e)`` and buffer-site capacities
``B(v)``, minimizing total cost (``wire_cost`` per tile edge +
``buffer_cost`` per repeater — the linear surrogate of the explore
metrics ``wirelength_tiles + buffers``).

The bound is the LP dual ``LB(theta) = sum_i u_i(theta) - theta * D``
at ``theta = 0``: one pricing sweep, where net *i*'s dual ``u_i`` is the
larger of

* the max-over-sinks cheapest buffered *path* price under the base
  costs (:mod:`repro.bounds.pricing` — a path projection of any tree
  that meets the length rule), and
* the length-rule floor on the net's pins
  (:func:`repro.core.length_rule.length_rule_floor`).

Both bound the cost of every tree of the net that meets the rule,
whatever the other nets do, so ``sum_i u_i`` bounds every plan whose
nets all meet it, capacity-feasible or not. ``LB(theta)`` rises from
``theta = 0`` only when the chosen paths' dual lengths sum above ``D``;
on every instance measured that happened only where ``lambda_lb > 1``
already proves infeasibility (``docs/ALGORITHMS.md`` §17a), so no theta
is searched.

The dual lengths come from Garg-Konemann / Fleischer multiplicative
updates — wire lengths ``l(e)`` and site lengths ``s(v)`` both start at
``1/capacity`` and are multiplied by ``1 + epsilon/capacity`` whenever
an iteration's cheapest buffered route crosses them. They do not enter
the bound; they feed ``D`` and two infeasibility certificates:

* *structural*: a net whose pricing is infinite even over the whole
  grid has no buffered path satisfying the spacing rule at all — no
  plan can ever buffer it;
* *capacity*: ``lambda_lb = sum_i u_i(lengths only) / D > 1`` proves no
  fractional routing fits inside the capacities (the standard
  concurrent-flow dual bound), which triages all-infeasible sweeps.

The oracle certifies plans; it does not make one. A bound makes
``(iterations + 2) * nets`` pricing calls: the length rounds, the
``theta = 0`` sweep and the ``lambda_lb`` sweep.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.bounds.pricing import INF, PathPricer, reachability
from repro.core.length_rule import length_rule_floor
from repro.errors import ConfigurationError
from repro.obs import NULL_TRACER

Tile = Tuple[int, int]

#: Available lower-bound oracles (``RabidConfig.bound`` accepts these or
#: ``""`` for disabled).
BOUND_MODES = ("gk",)


@dataclass
class BoundOptions:
    """Oracle parameters.

    Attributes:
        mode: which oracle; only ``"gk"`` exists today.
        epsilon: Garg-Konemann length-update step (0, 1]. It moves the
            dual lengths, hence ``D`` and ``lambda_lb``; the bound
            prices at ``theta = 0`` and depends on neither epsilon nor
            ``iterations``.
        iterations: full pricing rounds of length updates.
        window_margin: pricing Dijkstra window margin (tiles).
        wire_cost: cost per tile edge in the LP objective.
        buffer_cost: cost per inserted repeater.
        triage: run the millisecond routability triage first and skip
            pricing entirely when it *certifies* infeasibility
            (counter ``triage.skips``).
    """

    mode: str = "gk"
    epsilon: float = 0.25
    iterations: int = 4
    window_margin: int = 10
    wire_cost: float = 1.0
    buffer_cost: float = 1.0
    triage: bool = False

    def __post_init__(self) -> None:
        if self.mode not in BOUND_MODES:
            raise ConfigurationError(
                f"unknown bound mode {self.mode!r}; expected one of "
                f"{BOUND_MODES}"
            )
        if not 0 < self.epsilon <= 1:
            raise ConfigurationError("epsilon must be in (0, 1]")
        if self.iterations < 1:
            raise ConfigurationError("bound needs at least one iteration")
        if self.wire_cost < 0 or self.buffer_cost < 0:
            raise ConfigurationError("costs must be >= 0")


@dataclass
class BoundResult:
    """Everything the oracle certifies about one workload.

    ``lower_bound`` is ``None`` only when every net is structurally
    unpriceable; otherwise it bounds the total cost of the priceable
    nets (all of them, in the common case).
    """

    mode: str
    epsilon: float
    iterations: int
    lower_bound: Optional[float]
    lambda_lb: float
    certified_infeasible: bool
    infeasible_reason: str  # "" | "structural" | "capacity" | "triage-*"
    wire_cost: float
    buffer_cost: float
    dual_load: float
    net_duals: Dict[str, float]
    structural_nets: List[str]
    edge_lengths: List[float] = field(repr=False)
    site_lengths: List[float] = field(repr=False)
    pricing_calls: int = 0
    seconds: float = 0.0

    @property
    def theta(self) -> float:
        """The dual's theta: the bound is priced at 0."""
        return 0.0

    @property
    def unconstrained_bound(self) -> Optional[float]:
        """The capacity-blind bound, which is the bound itself."""
        return self.lower_bound

    def certificate(self) -> "Any":
        """The serializable dual certificate for this result."""
        from repro.bounds.certificate import BoundCertificate

        return BoundCertificate(
            mode=self.mode,
            epsilon=self.epsilon,
            iterations=self.iterations,
            lower_bound=self.lower_bound,
            lambda_lb=self.lambda_lb,
            certified_infeasible=self.certified_infeasible,
            infeasible_reason=self.infeasible_reason,
            wire_cost=self.wire_cost,
            buffer_cost=self.buffer_cost,
            dual_load=self.dual_load,
            edge_lengths={
                eid: value
                for eid, value in enumerate(self.edge_lengths)
                if value < INF
            },
            site_lengths={
                idx: value
                for idx, value in enumerate(self.site_lengths)
                if value < INF
            },
            net_duals=dict(self.net_duals),
            structural_nets=list(self.structural_nets),
        )

    def summary(self) -> Dict[str, Any]:
        """JSON-able digest (the CLI's ``--json`` payload core)."""
        return {
            "mode": self.mode,
            "epsilon": self.epsilon,
            "iterations": self.iterations,
            "lower_bound": _round6(self.lower_bound),
            "lambda_lb": _round6(self.lambda_lb),
            "certified_infeasible": self.certified_infeasible,
            "infeasible_reason": self.infeasible_reason,
            "structural_nets": list(self.structural_nets),
            "pricing_calls": self.pricing_calls,
            "seconds": round(self.seconds, 4),
        }


def _round6(value: Optional[float]) -> Optional[float]:
    return None if value is None else round(value, 6)


def compute_bound(
    graph,
    nets: Dict[str, Tuple[Tile, Sequence[Tile]]],
    limits: Dict[str, int],
    options: "BoundOptions | None" = None,
    tracer=None,
) -> BoundResult:
    """Run the oracle on an explicit workload.

    Args:
        graph: a :class:`repro.tilegraph.TileGraph` carrying ``W(e)``
            and ``B(v)``; usage state is ignored (the bound is against
            plans built from scratch).
        nets: net name -> (source tile, sink tiles).
        limits: net name -> length limit ``L``.
    """
    options = options or BoundOptions()
    tracer = tracer if tracer is not None else NULL_TRACER
    start = time.perf_counter()
    pricer = PathPricer(graph, options.window_margin)
    # Plain Python lists: keeps the hot pricing loop free of numpy
    # scalar boxing and the result JSON-serializable.
    capacities = graph.edge_capacity.tolist()
    site_caps = graph.sites_flat.tolist()
    edge_lengths = [1.0 / cap if cap > 0 else INF for cap in capacities]
    site_lengths = [1.0 / cap if cap > 0 else INF for cap in site_caps]
    names = sorted(nets)
    structural: set = set()
    pricing_calls = 0
    epsilon = options.epsilon

    # Phase 1: Garg-Konemann length evolution.
    with tracer.span("bound.lengths", nets=len(names)):
        for _ in range(options.iterations):
            for name in names:
                if name in structural:
                    continue
                source, sinks = nets[name]
                priced = pricer.price(
                    source, list(sinks), limits[name],
                    edge_lengths, site_lengths,
                    options.wire_cost, options.buffer_cost,
                    collect_paths=True,
                )
                pricing_calls += 1
                if not priced.reachable:
                    structural.add(name)
                    continue
                union_edges = {
                    e for p in priced.paths.values() for e in p.edges
                }
                union_bufs = {
                    b for p in priced.paths.values() for b in p.buffers
                }
                for eid in union_edges:
                    edge_lengths[eid] *= 1.0 + epsilon / capacities[eid]
                for idx in union_bufs:
                    site_lengths[idx] *= 1.0 + epsilon / site_caps[idx]
            tracer.count("bound.iterations")

    # D = sum_e W(e) l(e) + sum_v B(v) s(v) over finite lengths.
    dual_load = sum(
        cap * length
        for cap, length in zip(capacities, edge_lengths)
        if length < INF
    ) + sum(
        cap * length
        for cap, length in zip(site_caps, site_lengths)
        if length < INF
    )

    # Phase 2: price each net once at theta = 0 (base costs only; the
    # length-rule floor on its pins can only raise that dual) and once at
    # the dual lengths alone, for the concurrent-flow bound lambda_lb.
    net_duals: Dict[str, float] = {}
    lambda_numerator = 0.0
    with tracer.span("bound.duals", nets=len(names)):
        reach_edges = reachability(edge_lengths)
        reach_sites = reachability(site_lengths)
        for name in names:
            if name in structural:
                continue
            source, sinks = nets[name]
            value = pricer.price(
                source, list(sinks), limits[name],
                reach_edges, reach_sites,
                options.wire_cost, options.buffer_cost,
            ).dual_value()
            pricing_calls += 1
            if value >= INF:
                structural.add(name)
                continue
            net_duals[name] = max(value, length_rule_floor(
                [source, *sinks], limits[name],
                options.wire_cost, options.buffer_cost,
            ))
            # Finite: reachability depends only on which lengths are
            # finite, and the search above reached every sink.
            lambda_numerator += pricer.price(
                source, list(sinks), limits[name],
                edge_lengths, site_lengths,
                wire_cost=0.0, buffer_cost=0.0,
            ).dual_value()
            pricing_calls += 1
    lambda_lb = lambda_numerator / dual_load if dual_load > 0 else 0.0

    infeasible_reason = ""
    if structural:
        infeasible_reason = "structural"
    elif lambda_lb > 1.0 + 1e-9:
        infeasible_reason = "capacity"

    lower_bound = sum(net_duals.values()) if net_duals else None
    result = BoundResult(
        mode=options.mode,
        epsilon=epsilon,
        iterations=options.iterations,
        lower_bound=lower_bound,
        lambda_lb=lambda_lb,
        certified_infeasible=bool(infeasible_reason),
        infeasible_reason=infeasible_reason,
        wire_cost=options.wire_cost,
        buffer_cost=options.buffer_cost,
        dual_load=dual_load,
        net_duals=net_duals,
        structural_nets=sorted(structural),
        edge_lengths=edge_lengths,
        site_lengths=site_lengths,
        pricing_calls=pricing_calls,
        seconds=time.perf_counter() - start,
    )
    if tracer.enabled:
        tracer.count("bound.pricing_calls", pricing_calls)
        tracer.gauge("bound.lambda_lb", round(lambda_lb, 6))
        if lower_bound is not None:
            tracer.observe("bound.lower_bound", round(lower_bound, 6))
        tracer.observe("bound.seconds", result.seconds)
    return result


def bound_scenario(
    scenario,
    options: "BoundOptions | None" = None,
    tracer=None,
) -> BoundResult:
    """Oracle over a :class:`~repro.service.jobs.ScenarioSpec` workload.

    Builds the scenario's graph (capacities + site scatter) exactly as
    :func:`repro.service.engine.full_plan` would, then bounds the same
    nets under the same per-net length limits.

    With ``options.triage`` the millisecond routability triage runs
    first; a *certified* verdict (site or cut bound — proofs, not
    estimates) skips the pricing escalation entirely and returns an
    infeasibility-only result (``infeasible_reason = "triage-sites"`` /
    ``"triage-cut"``, counter ``triage.skips``).
    """
    from repro.service.engine import build_graph  # avoid import cycle

    options = options or BoundOptions()
    tracer = tracer if tracer is not None else NULL_TRACER
    if options.triage:
        from repro.workloads.triage import triage_scenario

        verdict = triage_scenario(scenario, tracer=tracer)
        if verdict.certified_infeasible:
            if tracer.enabled:
                tracer.count("triage.skips")
            return BoundResult(
                mode=options.mode,
                epsilon=options.epsilon,
                iterations=0,
                lower_bound=None,
                lambda_lb=0.0,
                certified_infeasible=True,
                infeasible_reason=f"triage-{verdict.infeasible_reason}",
                wire_cost=options.wire_cost,
                buffer_cost=options.buffer_cost,
                dual_load=0.0,
                net_duals={},
                structural_nets=[],
                edge_lengths=[],
                site_lengths=[],
                pricing_calls=0,
                seconds=verdict.seconds,
            )
    graph = build_graph(scenario)
    nets = scenario.nets()
    limits = scenario.limits(sorted(nets))
    return compute_bound(graph, nets, limits, options, tracer=tracer)
