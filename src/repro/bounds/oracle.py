"""The epsilon-approximate buffered-MCF lower-bound oracle.

RABID is a heuristic; this module bounds how far its plans can be from
optimal. Following the multicommodity-flow formulation of buffered
global routing (Albrecht/Kahng/Mandoiu/Zelikovsky; see PAPERS.md), the
LP assigns each net a fractional combination of *buffered candidate
trees* subject to wire capacities ``W(e)`` and buffer-site capacities
``B(v)``, minimizing total cost (``wire_cost`` per tile edge +
``buffer_cost`` per repeater — the linear surrogate of the explore
metrics ``wirelength_tiles + buffers``).

The oracle never solves the LP exactly. It runs Garg-Konemann /
Fleischer multiplicative length updates — wire lengths ``l(e)`` and
site lengths ``s(v)`` both start at ``1/capacity`` and are multiplied
by ``1 + epsilon/capacity`` whenever an iteration's cheapest buffered
route crosses them — and then certifies a bound from LP duality alone:
for ANY nonnegative lengths and any ``theta >= 0``,

    LB(theta) = sum_i u_i(theta) - theta * D(l, s)

is a valid lower bound on every capacity-feasible fractional (hence
integral) solution, where ``u_i(theta)`` is the max-over-sinks cheapest
buffered *path* price under costs ``base + theta * length``
(:mod:`repro.bounds.pricing` — a path projection of any feasible tree)
and ``D = sum_e W(e) l(e) + sum_v B(v) s(v)``. ``LB(theta)`` is concave
in ``theta``, so a small deterministic grid search recovers nearly the
best certificate the final lengths support; ``theta = 0`` is always in
the grid and bounds even capacity-violating plans.

Two infeasibility certificates fall out of the same machinery:

* *structural*: a net whose pricing is infinite even over the whole
  grid has no buffered path satisfying the spacing rule at all — no
  plan can ever buffer it;
* *capacity*: ``lambda_lb = sum_i u_i(lengths only) / D > 1`` proves no
  fractional routing fits inside the capacities (the standard
  concurrent-flow dual bound), which triages all-infeasible sweeps.

The per-iteration cheapest routes double as candidate columns for
seeded randomized rounding (:mod:`repro.bounds.rounding`), making the
oracle a competing integral arm as well as a certificate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.bounds.pricing import INF, PathPricer
from repro.errors import ConfigurationError
from repro.obs import NULL_TRACER

Tile = Tuple[int, int]

#: Available lower-bound oracles (``RabidConfig.bound`` accepts these or
#: ``""`` for disabled).
BOUND_MODES = ("gk",)

#: Deterministic theta grid for the dual line search. Geometric spread
#: including 0 (the congestion-free bound, valid for any plan).
DEFAULT_THETA_GRID = (0.0, 0.015625, 0.0625, 0.25, 1.0, 4.0)


@dataclass
class BoundOptions:
    """Oracle parameters.

    Attributes:
        mode: which oracle; only ``"gk"`` exists today.
        epsilon: Garg-Konemann length-update aggressiveness (0, 1].
            Smaller epsilon, finer length evolution, tighter bound,
            more work.
        iterations: full pricing rounds of length updates.
        window_margin: pricing Dijkstra window margin (tiles).
        wire_cost: cost per tile edge in the LP objective.
        buffer_cost: cost per inserted repeater.
        seed: randomized-rounding seed.
        theta_grid: dual line-search grid; must contain 0.0.
        refine_iters: golden-section evaluations refining theta inside
            the bracket around the best grid point (``LB(theta)`` is
            concave, so the bracket contains the true peak). 0 keeps
            the plain grid search. The refined bound can only improve
            on the grid bound: the grid winner stays the incumbent
            until a refined theta beats it.
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
    seed: int = 0
    theta_grid: Tuple[float, ...] = DEFAULT_THETA_GRID
    refine_iters: int = 4
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
        if 0.0 not in self.theta_grid:
            raise ConfigurationError("theta_grid must contain 0.0")
        if any(t < 0 for t in self.theta_grid):
            raise ConfigurationError("theta values must be >= 0")
        if self.refine_iters < 0:
            raise ConfigurationError("refine_iters must be >= 0")


@dataclass(frozen=True)
class Candidate:
    """One buffered route column generated during the length phase."""

    edges: Tuple[int, ...]
    buffers: Tuple[int, ...]
    cost: float


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
    theta: float
    lower_bound: Optional[float]
    unconstrained_bound: Optional[float]
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
    candidates: Dict[str, List[Tuple[Candidate, int]]] = field(repr=False)
    pricing_calls: int = 0
    seconds: float = 0.0

    def certificate(self) -> "Any":
        """The serializable dual certificate for this result."""
        from repro.bounds.certificate import BoundCertificate

        return BoundCertificate(
            mode=self.mode,
            epsilon=self.epsilon,
            iterations=self.iterations,
            theta=self.theta,
            lower_bound=self.lower_bound,
            unconstrained_bound=self.unconstrained_bound,
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
            "theta": self.theta,
            "lower_bound": _round6(self.lower_bound),
            "unconstrained_bound": _round6(self.unconstrained_bound),
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
    candidates: Dict[str, Dict[Tuple, List]] = {name: {} for name in names}
    pricing_calls = 0
    epsilon = options.epsilon

    # Phase 1: Garg-Konemann length evolution + column collection.
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
                union_edges = sorted(
                    {e for p in priced.paths.values() for e in p.edges}
                )
                union_bufs = sorted(
                    {b for p in priced.paths.values() for b in p.buffers}
                )
                for eid in union_edges:
                    edge_lengths[eid] *= 1.0 + epsilon / capacities[eid]
                for idx in union_bufs:
                    site_lengths[idx] *= 1.0 + epsilon / site_caps[idx]
                column = (tuple(union_edges), tuple(union_bufs))
                slot = candidates[name].get(column)
                if slot is None:
                    cost = (
                        options.wire_cost * len(union_edges)
                        + options.buffer_cost * len(union_bufs)
                    )
                    candidates[name][column] = [
                        Candidate(column[0], column[1], cost), 1
                    ]
                else:
                    slot[1] += 1
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

    # Phase 2: concave line search over theta for the best certificate.
    best_lb = -INF
    best_theta = 0.0
    best_duals: Dict[str, float] = {}
    unconstrained: Optional[float] = None
    lambda_numerator = 0.0

    def _price_theta(theta: float) -> "Tuple[float, Dict[str, float]]":
        """``(LB(theta), duals)`` from one pricing sweep over the nets."""
        nonlocal pricing_calls
        total = 0.0
        duals: Dict[str, float] = {}
        for name in names:
            if name in structural:
                continue
            source, sinks = nets[name]
            priced = pricer.price(
                source, list(sinks), limits[name],
                edge_lengths, site_lengths,
                options.wire_cost, options.buffer_cost,
                scale=theta,
            )
            pricing_calls += 1
            value = priced.dual_value()
            if value >= INF:
                structural.add(name)
                continue
            duals[name] = value
            total += value
        return total - theta * dual_load, duals

    with tracer.span("bound.linesearch", thetas=len(options.theta_grid)):
        for theta in sorted(set(options.theta_grid)):
            lb, duals = _price_theta(theta)
            if theta == 0.0:
                # total - 0.0 * D is total exactly: the capacity-blind floor.
                unconstrained = lb if duals or not names else None
            if duals and lb > best_lb:
                best_lb, best_theta, best_duals = lb, theta, duals

        # Golden-section refinement inside the bracket around the best
        # grid theta. LB(theta) is concave, so the peak lies between the
        # grid neighbours of the winner; the grid winner stays incumbent
        # unless a refined theta strictly beats it (refined LB >= grid
        # LB by construction, and the theta = 0 floor above is kept).
        if options.refine_iters >= 2 and best_duals:
            thetas = sorted(set(options.theta_grid))
            pos = thetas.index(best_theta)
            lo = thetas[pos - 1] if pos > 0 else best_theta
            hi = thetas[pos + 1] if pos + 1 < len(thetas) else best_theta
            if hi > lo:
                invphi = 0.6180339887498949
                a, b = lo, hi
                c = b - invphi * (b - a)
                d = a + invphi * (b - a)
                fc, dc = _price_theta(c)
                fd, dd = _price_theta(d)
                for probe, value, duals in ((c, fc, dc), (d, fd, dd)):
                    if duals and value > best_lb:
                        best_lb, best_theta, best_duals = value, probe, duals
                for _ in range(options.refine_iters - 2):
                    if fc >= fd:
                        b, d, fd, dd = d, c, fc, dc
                        c = b - invphi * (b - a)
                        fc, dc = _price_theta(c)
                        probe, value, duals = c, fc, dc
                    else:
                        a, c, fc, dc = c, d, fd, dd
                        d = a + invphi * (b - a)
                        fd, dd = _price_theta(d)
                        probe, value, duals = d, fd, dd
                    if duals and value > best_lb:
                        best_lb, best_theta, best_duals = value, probe, duals
                if tracer.enabled:
                    tracer.count("bound.refine_evals", options.refine_iters)
        # Concurrent-flow congestion bound: lengths only, no base costs.
        for name in names:
            if name in structural:
                continue
            source, sinks = nets[name]
            priced = pricer.price(
                source, list(sinks), limits[name],
                edge_lengths, site_lengths,
                wire_cost=0.0, buffer_cost=0.0,
            )
            pricing_calls += 1
            value = priced.dual_value()
            if value < INF:
                lambda_numerator += value
    lambda_lb = lambda_numerator / dual_load if dual_load > 0 else 0.0

    infeasible_reason = ""
    if structural:
        infeasible_reason = "structural"
    elif lambda_lb > 1.0 + 1e-9:
        infeasible_reason = "capacity"

    lower_bound = best_lb if best_lb > -INF else None
    result = BoundResult(
        mode=options.mode,
        epsilon=epsilon,
        iterations=options.iterations,
        theta=best_theta,
        lower_bound=lower_bound,
        unconstrained_bound=unconstrained,
        lambda_lb=lambda_lb,
        certified_infeasible=bool(infeasible_reason),
        infeasible_reason=infeasible_reason,
        wire_cost=options.wire_cost,
        buffer_cost=options.buffer_cost,
        dual_load=dual_load,
        net_duals=best_duals,
        structural_nets=sorted(structural),
        edge_lengths=edge_lengths,
        site_lengths=site_lengths,
        candidates={
            name: [
                (slot[0], slot[1])
                for _, slot in sorted(columns.items())
            ]
            for name, columns in candidates.items()
        },
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
                theta=0.0,
                lower_bound=None,
                unconstrained_bound=None,
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
                candidates={},
                pricing_calls=0,
                seconds=verdict.seconds,
            )
    graph = build_graph(scenario)
    nets = scenario.nets()
    limits = scenario.limits(sorted(nets))
    return compute_bound(graph, nets, limits, options, tracer=tracer)
