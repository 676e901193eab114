"""The four-stage RABID planner (paper Section III).

Usage::

    planner = RabidPlanner(graph, netlist, RabidConfig(length_limit=5))
    result = planner.run()
    for metrics in result.stage_metrics:
        print(metrics)

Stages can also be run one at a time (``stage1()`` .. ``stage4()``) for
inspection; ``run`` simply chains them and snapshots metrics in between.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import asdict, dataclass, field, fields
from typing import ClassVar, Dict, List, Tuple

from repro.core.assignment import assign_buffers_to_net, run_buffer_walk
from repro.core.length_rule import net_meets_length_rule
from repro.core.two_path import optimize_two_paths
from repro.errors import ConfigurationError
from repro.netlist import Net, Netlist
from repro.obs import NULL_TRACER
from repro.routing.embed import embed_tree
from repro.routing.prim_dijkstra import prim_dijkstra_tree
from repro.routing.ripup import RipupOptions, reroute_order_by_delay, ripup_and_reroute
from repro.routing.steiner import remove_overlaps
from repro.routing.tree import RouteTree
from repro.technology import LIBRARY_NAMES, TECH_180NM, Technology, resolve_library
from repro.tilegraph.congestion import buffer_density_stats, wire_congestion_stats
from repro.tilegraph.graph import TileGraph
from repro.timing.elmore import delay_summary


def _is_int(value: object) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value: object) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_str(value: object) -> bool:
    return isinstance(value, str)


def _is_map(value: object, check) -> bool:
    """A dict from strings to values passing ``check``."""
    return isinstance(value, dict) and all(
        _is_str(k) and check(v) for k, v in value.items()
    )


def _is_technology(value: object) -> bool:
    """Every :class:`Technology` field: ``name`` a string, the rest numbers."""
    names = {f.name for f in fields(Technology)}
    return (
        isinstance(value, dict)
        and set(value) == names
        and _is_str(value["name"])
        and all(_is_real(value[n]) for n in names - {"name"})
    )


#: How :meth:`RabidConfig.from_dict` checks a JSON value, by field type.
_JSON_CHECKS = {
    "int": _is_int,
    "float": _is_real,
    "bool": lambda v: isinstance(v, bool),
    "str": _is_str,
    "Dict[str, int]": lambda v: _is_map(v, _is_int),
    "Technology": _is_technology,
}


@dataclass
class RabidConfig:
    """Planner parameters.

    Attributes:
        length_limit: default ``L_i`` (tile units) for every net.
        length_limits: optional per-net overrides (net name -> L).
        pd_tradeoff: Prim-Dijkstra ``c`` for Stage 1 (paper: 0.4).
        stage2_iterations: max full rip-up passes in Stage 2 (paper: 3).
        stage4_iterations: full passes of Stage 4.
        window_margin: maze-search window margin (tiles).
        technology: electrical parameters for the delay model.
        use_probability: include the ``p(v)`` term in Eq. (2).
        rescue_failing: after the Stage-4 iterations, attempt a whole-net
            bufferable re-route for nets still violating the length rule
            (an extension of Stage 4's goal; see repro.core.rescue).
        buffer_library: named buffer library
            (:data:`repro.technology.LIBRARY_NAMES`) of the plan:
            ``"single"`` (default) is the planning repeater alone,
            ``"tech"`` the three-strength BUF_X1/X2/X4 library derived
            from the technology table. Stages 3 and 4 and the rescue pass
            place buffers with the paper's Fig. 9 DP; when the library
            has more than one kind they then size each placed buffer over
            it (Li & Shi), and every delay is measured with its kinds.
        bound: lower-bound oracle mode, one of
            :data:`repro.bounds.BOUND_MODES`, or ``""`` (default) to
            skip the oracle. When set, explore sweeps run the certified
            buffered-MCF bound per scenario and report ``lower_bound``,
            ``optimality_gap``, and ``certified_infeasible`` metrics.
        bound_epsilon: Garg-Konemann epsilon for the oracle's length
            updates. It moves ``lambda_lb`` (and so explore's
            ``certified_infeasible``), not the bound, which prices at
            ``theta = 0``.
    """

    length_limit: int = 5
    length_limits: Dict[str, int] = field(default_factory=dict)
    pd_tradeoff: float = 0.4
    stage2_iterations: int = 3
    stage4_iterations: int = 2
    window_margin: int = 6
    technology: Technology = TECH_180NM
    use_probability: bool = True
    rescue_failing: bool = True
    buffer_library: str = "single"
    bound: str = ""
    bound_epsilon: float = 0.25

    def __post_init__(self) -> None:
        if self.bound:
            from repro.bounds.oracle import BOUND_MODES

            if self.bound not in BOUND_MODES:
                raise ConfigurationError(
                    f"unknown bound mode {self.bound!r}; expected one of "
                    f"{BOUND_MODES} or ''"
                )
        if not 0 < self.bound_epsilon <= 1:
            raise ConfigurationError("bound_epsilon must be in (0, 1]")
        if self.buffer_library not in LIBRARY_NAMES:
            raise ConfigurationError(
                f"unknown buffer library {self.buffer_library!r}; "
                f"expected one of {LIBRARY_NAMES}"
            )
        if self.length_limit < 1:
            raise ConfigurationError("length_limit must be >= 1")
        if any(l < 1 for l in self.length_limits.values()):
            raise ConfigurationError("per-net length limits must be >= 1")
        if self.stage2_iterations < 0 or self.stage4_iterations < 0:
            raise ConfigurationError("stage iteration counts must be >= 0")
        if self.window_margin < 0:
            raise ConfigurationError("window_margin must be >= 0")
        if self.pd_tradeoff < 0:
            raise ConfigurationError("pd_tradeoff must be >= 0")

    def limit_for(self, net_name: str) -> int:
        return self.length_limits.get(net_name, self.length_limit)

    def as_dict(self) -> Dict[str, object]:
        """JSON-able snapshot of every field (used by ``repro.io``).

        The technology is expanded to its parameter set so a config round-
        trips exactly even for a custom process node.
        """
        out: Dict[str, object] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = asdict(value) if f.name == "technology" else value
        # A copy, so mutating the dict cannot alias the config.
        out["length_limits"] = dict(self.length_limits)
        return out

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "RabidConfig":
        """Inverse of :meth:`as_dict`; unknown keys and values of the
        wrong JSON type are rejected.

        Plan files, checkpoints and job configs written by older versions
        carry retired keys, which are dropped. The Stage-2/3 worker knobs
        only ever chose how the sequential walk was executed, never its
        output. ``stage3_solver`` and the per-net ``stage3_solvers`` named
        a buffering strategy: ``"multi_type"`` is the one Stage-3 solver,
        and so is ``"dp"`` under a one-kind library; any other name (or
        ``"dp"`` with a multi-kind library) planned differently, so it is
        refused rather than silently re-planned. ``router`` named the
        Stage-1 engine: ``"pd"`` is the one Stage 1, and any other value
        is refused the same way.
        """
        if not isinstance(d, dict):
            raise ConfigurationError(f"a RabidConfig must be an object, not {d!r}")
        if d.get("router", "pd") != "pd":
            raise ConfigurationError(
                f"retired router {d['router']!r}: Stage 1 now runs only "
                "Prim-Dijkstra with overlap removal (\"pd\")"
            )
        retired = (
            "workers", "stage3_workers", "parallel_backend",
            "stage3_solver", "stage3_solvers", "router",
        )
        types = {f.name: f.type for f in fields(cls)}
        kwargs = {k: v for k, v in d.items() if k not in retired}
        unknown = set(kwargs) - set(types)
        if unknown:
            raise ConfigurationError(
                f"unknown RabidConfig fields {sorted(map(str, unknown))!r}"
            )
        for name, value in kwargs.items():
            if not _JSON_CHECKS[types[name]](value):
                raise ConfigurationError(
                    f"RabidConfig field {name!r} must be {types[name]}, "
                    f"not {value!r}"
                )
        if "technology" in kwargs:
            kwargs["technology"] = Technology(**kwargs["technology"])
        config = cls(**kwargs)
        solvers = d.get("stage3_solvers", {})
        names = list(solvers.values()) if isinstance(solvers, dict) else [solvers]
        if "stage3_solver" in d:
            names.append(d["stage3_solver"])
        library = resolve_library(config.buffer_library, config.technology)
        kept = ("multi_type",) if len(library.kinds) > 1 else ("multi_type", "dp")
        for name in names:
            if name not in kept:
                raise ConfigurationError(
                    f"retired stage3_solver {name!r} with buffer library "
                    f"{config.buffer_library!r}: Stage 3 now runs only the "
                    "Fig. 9 DP, sized when the library has several kinds"
                )
        return config


@dataclass(frozen=True)
class StageMetrics:
    """One row of the paper's Table II."""

    #: Column headers of :meth:`as_row`, in the same order.
    HEADERS: ClassVar[Tuple[str, ...]] = (
        "stage", "wire max", "wire avg", "overflows", "buf max", "buf avg",
        "#bufs", "#fails", "wirelength", "delay max", "delay avg", "CPU(s)",
    )

    stage: int
    wire_congestion_max: float
    wire_congestion_avg: float
    overflows: int
    buffer_density_max: float
    buffer_density_avg: float
    num_buffers: int
    num_fails: int
    wirelength_mm: float
    max_delay_ps: float
    avg_delay_ps: float
    cpu_seconds: float

    def as_row(self) -> List[str]:
        """Formatted cells in the paper's column order."""
        return [
            str(self.stage),
            f"{self.wire_congestion_max:.2f}",
            f"{self.wire_congestion_avg:.2f}",
            str(self.overflows),
            f"{self.buffer_density_max:.2f}",
            f"{self.buffer_density_avg:.2f}",
            str(self.num_buffers),
            str(self.num_fails),
            f"{self.wirelength_mm:.0f}",
            f"{self.max_delay_ps:.0f}",
            f"{self.avg_delay_ps:.0f}",
            f"{self.cpu_seconds:.1f}",
        ]


def measure_plan(
    routes: Dict[str, RouteTree],
    graph: TileGraph,
    config: RabidConfig,
    stage: int = 0,
    cpu_seconds: float = 0.0,
) -> StageMetrics:
    """A RABID plan's Table II figures under the plan's own config.

    Fails are counted against each net's ``config.limit_for`` limit,
    buffers from the trees' annotations (which every RABID plan books
    one site each), and sink delays with the Elmore model of
    ``config.technology`` and the sized kinds of ``config.buffer_library``.
    """
    wire = wire_congestion_stats(graph)
    sites = buffer_density_stats(graph)
    library = resolve_library(config.buffer_library, config.technology)
    max_delay, avg_delay, _ = delay_summary(
        routes, graph, config.technology, library
    )
    return StageMetrics(
        stage=stage,
        wire_congestion_max=wire.maximum,
        wire_congestion_avg=wire.average,
        overflows=wire.overflow,
        buffer_density_max=sites.maximum,
        buffer_density_avg=sites.average,
        num_buffers=sum(tree.buffer_count() for tree in routes.values()),
        num_fails=sum(
            not net_meets_length_rule(tree, config.limit_for(name))
            for name, tree in routes.items()
        ),
        wirelength_mm=sum(tree.wirelength_mm(graph) for tree in routes.values()),
        max_delay_ps=max_delay * 1e12,
        avg_delay_ps=avg_delay * 1e12,
        cpu_seconds=cpu_seconds,
    )


@dataclass
class RabidResult:
    """Full planner output."""

    routes: Dict[str, RouteTree]
    stage_metrics: List[StageMetrics]
    failed_nets: List[str]

    @property
    def final_metrics(self) -> StageMetrics:
        if not self.stage_metrics:
            raise ConfigurationError("planner has not run")
        return self.stage_metrics[-1]


class RabidPlanner:
    """Resource Allocation for Buffer and Interconnect Distribution."""

    def __init__(
        self,
        graph: TileGraph,
        netlist: Netlist,
        config: "RabidConfig | None" = None,
        tracer=None,
    ) -> None:
        if len(netlist) == 0:
            raise ConfigurationError("netlist is empty")
        self.graph = graph
        self.netlist = netlist
        self.config = config or RabidConfig()
        self.library = resolve_library(
            self.config.buffer_library, self.config.technology
        )
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.routes: Dict[str, RouteTree] = {}
        self.stage_metrics: List[StageMetrics] = []
        self.failed_nets: List[str] = []

    # ------------------------------------------------------------------ #
    # Stages                                                             #
    # ------------------------------------------------------------------ #

    def stage1(self) -> None:
        """Initial routing: Prim-Dijkstra Steiner trees, one net at a time."""
        start = time.perf_counter()
        with self.tracer.span("stage1"):
            for net in self.netlist:
                self.routes[net.name] = self._initial_route(net)
                self.routes[net.name].add_usage(self.graph)
            self.tracer.count("nets_routed", len(self.routes))
            self._snapshot(1, time.perf_counter() - start)

    def stage2(self) -> None:
        """Wire-congestion reduction by full rip-up and reroute."""
        start = time.perf_counter()
        with self.tracer.span("stage2"):
            delays = self._net_delays()
            order = reroute_order_by_delay(delays, ascending=True)
            options = RipupOptions(
                max_iterations=self.config.stage2_iterations,
                radius_weight=self.config.pd_tradeoff,
                window_margin=self.config.window_margin,
            )
            on_pass_end = None
            if self.tracer.enabled:
                def on_pass_end(iteration: int) -> None:
                    self.tracer.gauge(
                        "overflow_total",
                        wire_congestion_stats(self.graph).overflow,
                    )
                    self.tracer.check_site_invariants(
                        self.graph, f"stage2 pass {iteration}"
                    )
            ripup_and_reroute(
                self.graph,
                self.routes,
                order,
                options,
                on_pass_end=on_pass_end,
                tracer=self.tracer,
            )
            self._snapshot(2, time.perf_counter() - start)

    def stage3(self) -> None:
        """Buffer assignment, highest-delay nets first."""
        start = time.perf_counter()
        with self.tracer.span("stage3"):
            delays = self._net_delays()
            order = reroute_order_by_delay(delays, ascending=False)
            limits = {name: self.config.limit_for(name) for name in self.routes}
            outcomes = run_buffer_walk(
                self.graph, self.routes, limits, order, self.config,
                tracer=self.tracer,
            )
            self.failed_nets = [n for n, o in outcomes.items() if not o.meets]
            self._snapshot(3, time.perf_counter() - start)

    def stage4(self) -> None:
        """Two-path rip-up/reroute with buffer reinsertion."""
        start = time.perf_counter()
        with self.tracer.span("stage4"):
            for iteration in range(self.config.stage4_iterations):
                with self.tracer.span("stage4.pass", **{"pass": iteration}):
                    self._stage4_pass()
            if self.config.rescue_failing and self.failed_nets:
                from repro.core.rescue import rescue_failing_nets

                limits = {
                    name: self.config.limit_for(name) for name in self.routes
                }
                with self.tracer.span("rescue", failing=len(self.failed_nets)):
                    self.failed_nets = rescue_failing_nets(
                        self.graph,
                        self.routes,
                        self.failed_nets,
                        limits,
                        window_margin=self.config.window_margin,
                        tracer=self.tracer,
                        technology=self.config.technology,
                        library=self.library,
                    )
            self._snapshot(4, time.perf_counter() - start)

    def _stage4_pass(self) -> None:
        """One full Stage-4 pass over every net."""
        tracer = self.tracer
        delays = self._net_delays()
        order = reroute_order_by_delay(delays, ascending=True)
        failed: List[str] = []
        ledger = self.graph.ledger()

        for name in order:
            tree = self.routes[name]
            limit = self.config.limit_for(name)
            # One transaction covers the rip, the two-path trials, and the
            # reinsertion: an exception anywhere restores both the b(v)
            # accounting and any wire deltas instead of leaking them.
            with ledger.transaction():
                for tile, kinds in tree.buffer_kind_counts().items():
                    for kind, count in kinds.items():
                        self.graph.use_site(tile, -count, kind)
                if tracer.enabled:
                    tracer.event(
                        "ripped_up", name, stage="4", buffers=tree.buffer_count()
                    )
                changed = optimize_two_paths(
                    self.graph, tree, limit, self.config.window_margin
                )
                meets, _, _ = assign_buffers_to_net(
                    self.graph, tree, limit, None, tracer=tracer,
                    technology=self.config.technology, library=self.library,
                )
            if not meets:
                failed.append(name)
            if tracer.enabled:
                tracer.count("nets_rerouted")
                tracer.count("two_paths_changed", changed)
                tracer.event(
                    "rerouted" if meets else "failed",
                    name,
                    stage="4",
                    two_paths_changed=changed,
                    buffers=tree.buffer_count(),
                )
                tracer.check_site_invariants(self.graph, f"stage4 net {name}")
        self.failed_nets = failed

    def run(self, tracer=None) -> RabidResult:
        """Execute all four stages and return the collected result.

        Args:
            tracer: optional :class:`repro.obs.Tracer` overriding the one
                supplied at construction for this run.
        """
        if tracer is not None:
            self.tracer = tracer
        with self.tracer.span("rabid.run", nets=len(self.netlist)):
            self.stage1()
            self.stage2()
            self.stage3()
            self.stage4()
        return RabidResult(
            routes=self.routes,
            stage_metrics=self.stage_metrics,
            failed_nets=self.failed_nets,
        )

    # ------------------------------------------------------------------ #
    # Helpers                                                            #
    # ------------------------------------------------------------------ #

    def _initial_route(self, net: Net) -> RouteTree:
        pins = [p.location for p in net.pins]
        tree = prim_dijkstra_tree(pins, c=self.config.pd_tradeoff, source_index=0)
        remove_overlaps(tree)
        return embed_tree(self.graph, tree, net.sink_locations(), net_name=net.name)

    def _net_delays(self) -> Dict[str, float]:
        _, _, reports = delay_summary(
            self.routes, self.graph, self.config.technology, self.library
        )
        return {name: report.max_delay for name, report in reports.items()}

    def _snapshot(self, stage: int, cpu_seconds: float) -> None:
        metrics = measure_plan(
            self.routes, self.graph, self.config, stage, cpu_seconds
        )
        if self.tracer.enabled:
            self.tracer.gauge(f"stage{stage}.overflows", metrics.overflows)
            self.tracer.gauge(f"stage{stage}.num_buffers", metrics.num_buffers)
            self.tracer.gauge(f"stage{stage}.num_fails", metrics.num_fails)
            self.tracer.gauge(f"stage{stage}.wirelength_mm", metrics.wirelength_mm)
            self.tracer.gauge("overflow_total", metrics.overflows)
            self.tracer.observe("stage.cpu_seconds", cpu_seconds)
        self.stage_metrics.append(metrics)
