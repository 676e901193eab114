"""The Stage-3 buffering-kernel micro-benchmark and its recorded trajectory.

The scenario reuses the routing kernel's 32x32 / 500-net workload: every
net is maze-routed once (untimed setup), buffer sites are scattered with
the paper's recipe (a 9x9 blocked region plus a uniform scatter), and the
timed section is exactly ``assign_buffers_stage3`` — the Eq. (2) cost
evaluation, the Fig. 9 multi-sink DP per net, the greedy fallback for
DP-infeasible nets, and the ``p(v)`` bookkeeping. Before/after numbers
therefore isolate the buffering engine from the routing kernel.

Results accumulate in ``benchmarks/BENCH_buffering.json`` with the same
best-of-N / GC-paused methodology as ``BENCH_routing.json``; the first
entry is the baseline and later entries carry ``speedup_vs_baseline``.
``python -m repro.benchmarks.buffering_kernel`` appends an entry from
the command line (CI uses ``--fast``).

The buffering *signature* (a SHA-256 over every net's buffer specs, the
``b(v)`` grid, and the failed-net list) pins "identical Stage-3 output":
any change to the engine that moves even one buffer of one net changes
the signature. ``tests/golden/buffering_kernel_32x32_seed0.json`` holds
the signature and full specs captured before the unified solver landed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.benchmarks.emit import append_trajectory_entry
from repro.benchmarks.routing_kernel import (
    RoutingScenario,
    make_routing_scenario,
)
from repro.core.assignment import AssignmentResult, assign_buffers_stage3
from repro.core.rabid import RabidConfig
from repro.core.solver import make_solver_lookup
from repro.routing.maze import route_net_on_tiles
from repro.routing.tree import RouteTree
from repro.tilegraph.sites import SiteDistribution

#: Default location of the trajectory file, relative to the repo root.
DEFAULT_TRAJECTORY = os.path.join("benchmarks", "BENCH_buffering.json")


@dataclass
class BufferingScenario:
    """A reproducible Stage-3 workload: routed nets plus site distribution."""

    scenario: RoutingScenario
    routes: Dict[str, RouteTree]
    length_limit: int
    total_sites: int
    site_seed: int

    @property
    def graph(self):
        return self.scenario.graph

    @property
    def order(self) -> List[str]:
        return sorted(self.routes)

    @property
    def params(self) -> dict:
        return {
            "grid": self.scenario.grid,
            "num_nets": len(self.routes),
            "capacity": self.scenario.capacity,
            "seed": self.scenario.seed,
            "length_limit": self.length_limit,
            "total_sites": self.total_sites,
            "site_seed": self.site_seed,
        }


def make_buffering_scenario(
    grid: int = 32,
    num_nets: int = 500,
    capacity: int = 8,
    seed: int = 0,
    length_limit: int = 5,
    total_sites: int = 2500,
    site_seed: int = 0,
    window_margin: int = 6,
) -> BufferingScenario:
    """Route the kernel workload once and scatter the buffer sites.

    The routed trees and the site distribution are both deterministic in
    the seeds, so every call with the same arguments produces the same
    Stage-3 input instance.
    """
    scenario = make_routing_scenario(
        grid=grid, num_nets=num_nets, capacity=capacity, seed=seed
    )
    graph = scenario.graph
    routes: Dict[str, RouteTree] = {}
    for name, (source, sinks) in scenario.nets.items():
        tree = route_net_on_tiles(
            graph, source, sinks, net_name=name, window_margin=window_margin
        )
        tree.add_usage(graph)
        routes[name] = tree
    SiteDistribution(
        total_sites=total_sites, blocked_size=9, seed=site_seed
    ).apply(graph)
    return BufferingScenario(
        scenario=scenario,
        routes=routes,
        length_limit=length_limit,
        total_sites=total_sites,
        site_seed=site_seed,
    )


@dataclass
class BufferingKernelResult:
    """One timed run of the buffering kernel."""

    seconds_stage3: float
    buffers_inserted: int
    num_fails: int
    dp_infeasible: int
    signature: str
    assignment: AssignmentResult = field(repr=False, default=None)


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


def run_buffering_kernel(
    instance: BufferingScenario,
    tracer=None,
    solver: str = "dp",
    library: str = "single",
) -> BufferingKernelResult:
    """Run Stage-3 buffer assignment over the whole instance, timed.

    ``solver``/``library`` select the per-net strategy and the buffer
    library it sizes over (``multi_type`` only); the defaults reproduce
    the recorded ``dp`` trajectory exactly.
    """
    config = RabidConfig(stage3_solver=solver, buffer_library=library)
    limits = {name: instance.length_limit for name in instance.routes}
    start = time.perf_counter()
    assignment = assign_buffers_stage3(
        instance.graph,
        instance.routes,
        limits,
        instance.order,
        use_probability=True,
        tracer=tracer,
        solver_for=make_solver_lookup(config),
    )
    end = time.perf_counter()
    return BufferingKernelResult(
        seconds_stage3=end - start,
        buffers_inserted=assignment.buffers_inserted,
        num_fails=assignment.num_fails,
        dp_infeasible=len(assignment.dp_infeasible_nets),
        signature=buffering_signature(
            instance.routes, instance.graph, assignment.failed_nets
        ),
        assignment=assignment,
    )


def run_best_of(
    repetitions: int,
    tracer=None,
    solver: str = "dp",
    library: str = "single",
    **scenario_kwargs,
) -> Tuple[BufferingScenario, BufferingKernelResult]:
    """Fastest of ``repetitions`` fresh runs, with the GC paused.

    Same methodology as the routing kernel (PR 2): the timed section is a
    fraction-of-a-second single shot, so best-of-N with collection
    deferred to between runs is what every trajectory entry records.
    Stage 3 is deterministic, so every repetition yields the same buffer
    placement — only the clock differs.
    """
    import gc

    best: Optional[Tuple[BufferingScenario, BufferingKernelResult]] = None
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(max(1, repetitions)):
            instance = make_buffering_scenario(**scenario_kwargs)
            result = run_buffering_kernel(
                instance, tracer=tracer, solver=solver, library=library
            )
            if best is None or result.seconds_stage3 < best[1].seconds_stage3:
                best = (instance, result)
            gc.collect()
    finally:
        if was_enabled:
            gc.enable()
    return best


# --------------------------------------------------------------------- #
# Trajectory file                                                       #
# --------------------------------------------------------------------- #


def append_entry(
    path: str,
    label: str,
    result: BufferingKernelResult,
    instance: BufferingScenario,
) -> dict:
    """Append one measured entry; computes speedup vs the first baseline.

    Mirrors the routing trajectory's contract: speedups compare entries
    with identical scenario params against the first ``workers=1`` entry,
    and re-running an existing label replaces that entry in place.
    """
    return _append(path, label, instance.params, result)


def _append(
    path: str,
    label: str,
    params: dict,
    result: BufferingKernelResult,
    extra: Optional[dict] = None,
) -> dict:
    """Record ``result`` under ``params``, as a ``"workers": 1`` entry so
    it keeps matching the recorded rows (whose identity includes the
    worker count)."""
    return append_trajectory_entry(
        path,
        label,
        params,
        {
            "seconds_stage3": round(result.seconds_stage3, 4),
            "buffers_inserted": result.buffers_inserted,
            "num_fails": result.num_fails,
            "dp_infeasible": result.dp_infeasible,
            "signature": result.signature,
        },
        workers=1,
        speedup_from="seconds_stage3",
        extra=extra,
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.benchmarks.buffering_kernel",
        description="Run the Stage-3 buffering kernel benchmark and append "
        "the result to the BENCH_buffering.json trajectory.",
    )
    parser.add_argument("--label", required=True, help="entry label")
    parser.add_argument("--out", default=DEFAULT_TRAJECTORY)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--fast", action="store_true",
        help="small instance (16x16, 120 nets) for CI smoke runs",
    )
    parser.add_argument(
        "--repeat", type=int, default=3,
        help="record the fastest of N runs (default 3)",
    )
    parser.add_argument(
        "--solver", default="dp",
        help="Stage-3 strategy (see repro.core.solver.SOLVER_NAMES)",
    )
    parser.add_argument(
        "--library", default="single",
        help="buffer library for --solver multi_type (single, tech)",
    )
    args = parser.parse_args(argv)
    kwargs = dict(seed=args.seed, site_seed=args.seed)
    if args.fast:
        kwargs.update(grid=16, num_nets=120, total_sites=600)
    instance, result = run_best_of(
        args.repeat, solver=args.solver, library=args.library, **kwargs
    )
    extra = None
    params = dict(instance.params)
    if args.solver != "dp" or args.library != "single":
        # Non-default strategies get their own trajectory identity (so
        # their timings never gate against the dp baseline) plus a
        # delay-quality report with the DP's O(bn^2) counter evidence.
        params["solver"] = args.solver
        params["library"] = args.library
        extra = _quality_extra(instance, args.solver, args.library)
    entry = _append(args.out, args.label, params, result, extra=extra)
    print(json.dumps(entry, indent=2))
    return 0


def _quality_extra(
    instance: BufferingScenario, solver: str, library: str
) -> dict:
    """Delay-quality + DP-counter evidence for a non-default strategy.

    Re-runs the kernel once under a tracer on a fresh instance, and
    measures the worst/mean Elmore sink delay of the solved plan next to
    the default-``dp`` plan on the same workload.
    """
    from repro.obs import Tracer
    from repro.technology import TECH_180NM, resolve_library
    from repro.timing.elmore import delay_summary

    tracer = Tracer()
    traced = make_buffering_scenario(**_scenario_kwargs_of(instance))
    run_buffering_kernel(traced, tracer=tracer, solver=solver, library=library)
    lib = resolve_library(library, TECH_180NM)
    worst, mean, _ = delay_summary(
        traced.routes, traced.graph, TECH_180NM, library=lib
    )
    baseline = make_buffering_scenario(**_scenario_kwargs_of(instance))
    run_buffering_kernel(baseline)
    base_worst, base_mean, _ = delay_summary(
        baseline.routes, baseline.graph, TECH_180NM
    )
    counters = {}
    for name in ("dp.kind_candidates", "dp.candidates_pruned"):
        metric = tracer.metrics.get(name)
        if metric is not None:
            counters[name] = metric.value
    for name in ("dp.kinds", "dp.kind_list_max"):
        metric = tracer.metrics.get(name)
        if metric is not None:
            counters[name] = metric.value
    return {
        "worst_delay_ps": round(worst * 1e12, 3),
        "mean_delay_ps": round(mean * 1e12, 3),
        "dp_worst_delay_ps": round(base_worst * 1e12, 3),
        "dp_mean_delay_ps": round(base_mean * 1e12, 3),
        "counters": counters,
    }


def _scenario_kwargs_of(instance: BufferingScenario) -> dict:
    p = instance.params
    return dict(
        grid=p["grid"],
        num_nets=p["num_nets"],
        capacity=p["capacity"],
        seed=p["seed"],
        length_limit=p["length_limit"],
        total_sites=p["total_sites"],
        site_seed=p["site_seed"],
    )


if __name__ == "__main__":
    raise SystemExit(main())
