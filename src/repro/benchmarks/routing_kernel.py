"""The Stage-2 routing-kernel micro-benchmark and its recorded trajectory.

The scenario is the ISSUE's 32x32 / 500-net workload: a uniform grid with
mostly-local multi-sink nets, routed once with the strict Eq. (1) cost and
then run through the full Nair rip-up-and-reroute loop. It exercises
exactly the wavefront/congestion-cost path that dominates RABID's runtime,
without the Stage-3/4 buffering machinery, so before/after numbers isolate
the routing kernel.

Results accumulate in ``benchmarks/BENCH_routing.json`` — a small
trajectory file whose entries each record one measured configuration
(label, timings, route signature). The first entry is the baseline; later
entries carry ``speedup_vs_baseline``. ``python -m repro.benchmarks.routing_kernel``
appends an entry from the command line (CI uses ``--fast``).

The route *signature* (a SHA-256 over every net's canonical edge list) is
how the golden test pins down "identical routed trees": any change to the
router that alters even one edge of one net changes the signature.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.geometry import Rect
from repro.routing.maze import route_net_on_tiles
from repro.routing.ripup import RipupOptions, ripup_and_reroute
from repro.routing.tree import RouteTree
from repro.tilegraph import CapacityModel, TileGraph
from repro.tilegraph.congestion import wire_congestion_stats

from repro.benchmarks.emit import (  # noqa: F401  (re-exported API)
    TRAJECTORY_SCHEMA,
    SpeedupGateError,
    append_trajectory_entry,
    load_trajectory,
)

#: Default location of the trajectory file, relative to the repo root.
DEFAULT_TRAJECTORY = os.path.join("benchmarks", "BENCH_routing.json")


@dataclass
class RoutingScenario:
    """A reproducible routing workload: a graph plus pin sets per net."""

    graph: TileGraph
    #: net name -> (source tile, sink tiles); iteration order == net order.
    nets: Dict[str, Tuple[Tuple[int, int], List[Tuple[int, int]]]]
    grid: int
    capacity: int
    seed: int

    @property
    def order(self) -> List[str]:
        return list(self.nets)


def make_routing_scenario(
    grid: int = 32,
    num_nets: int = 500,
    capacity: int = 8,
    seed: int = 0,
    max_sinks: int = 4,
    span: int = 8,
) -> RoutingScenario:
    """Build the benchmark instance deterministically from ``seed``.

    Nets are local: each net's sinks lie within ``span`` tiles of its
    source (plus a handful of chip-crossing nets every 25th net), which
    matches placed-netlist locality and keeps maze windows meaningful.
    """
    rng = np.random.default_rng(seed)
    graph = TileGraph(
        Rect(0.0, 0.0, float(grid), float(grid)),
        grid,
        grid,
        CapacityModel.uniform(capacity),
    )
    nets: Dict[str, Tuple[Tuple[int, int], List[Tuple[int, int]]]] = {}
    width = len(str(num_nets - 1))
    for i in range(num_nets):
        sx, sy = (int(v) for v in rng.integers(0, grid, size=2))
        k = int(rng.integers(1, max_sinks + 1))
        if i % 25 == 0:
            # A chip-crossing net: sinks anywhere on the die.
            offsets = rng.integers(0, grid, size=(k, 2))
            sinks = [(int(x), int(y)) for x, y in offsets]
        else:
            offsets = rng.integers(-span, span + 1, size=(k, 2))
            sinks = [
                (
                    min(grid - 1, max(0, sx + int(dx))),
                    min(grid - 1, max(0, sy + int(dy))),
                )
                for dx, dy in offsets
            ]
        nets[f"net{i:0{width}d}"] = ((sx, sy), sinks)
    return RoutingScenario(graph=graph, nets=nets, grid=grid, capacity=capacity, seed=seed)


@dataclass
class KernelResult:
    """One timed run of the routing kernel."""

    seconds_initial: float
    seconds_ripup: float
    passes: int
    overflow: int
    wirelength_tiles: int
    signature: str
    routes: Dict[str, RouteTree] = field(repr=False, default_factory=dict)

    @property
    def seconds_total(self) -> float:
        return self.seconds_initial + self.seconds_ripup


def routes_signature(routes: Dict[str, RouteTree]) -> str:
    """SHA-256 over every net's canonical (sorted, undirected) edge list."""
    canon = {
        name: sorted(
            (min(u, v), max(u, v)) for u, v in routes[name].edges()
        )
        for name in sorted(routes)
    }
    payload = json.dumps(canon, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def routes_as_json(routes: Dict[str, RouteTree]) -> Dict[str, List[List[List[int]]]]:
    """Canonical JSON-able edges per net (for golden files)."""
    return {
        name: [
            [list(min(u, v)), list(max(u, v))]
            for u, v in sorted(
                (min(u, v), max(u, v)) for u, v in routes[name].edges()
            )
        ]
        for name in sorted(routes)
    }


def run_routing_kernel(
    scenario: RoutingScenario,
    passes: int = 2,
    radius_weight: float = 0.4,
    window_margin: int = 6,
    tracer=None,
) -> KernelResult:
    """Route every net, then rip-up/reroute for ``passes`` full passes."""
    graph = scenario.graph
    routes: Dict[str, RouteTree] = {}
    start = time.perf_counter()
    for name, (source, sinks) in scenario.nets.items():
        tree = route_net_on_tiles(
            graph,
            source,
            sinks,
            radius_weight=radius_weight,
            net_name=name,
            window_margin=window_margin,
            tracer=tracer,
        )
        tree.add_usage(graph)
        routes[name] = tree
    mid = time.perf_counter()
    options = RipupOptions(
        max_iterations=passes,
        radius_weight=radius_weight,
        window_margin=window_margin,
    )
    executed = ripup_and_reroute(
        graph, routes, scenario.order, options, tracer=tracer
    )
    end = time.perf_counter()
    return KernelResult(
        seconds_initial=mid - start,
        seconds_ripup=end - mid,
        passes=executed,
        overflow=wire_congestion_stats(graph).overflow,
        wirelength_tiles=sum(t.wirelength_tiles() for t in routes.values()),
        signature=routes_signature(routes),
        routes=routes,
    )


def run_best_of(
    repetitions: int,
    tracer=None,
    **scenario_kwargs,
) -> Tuple[RoutingScenario, KernelResult]:
    """Fastest of ``repetitions`` fresh runs, with the GC paused.

    The kernel is a half-second single shot, so one run's scheduler noise
    or a mid-run garbage collection can swing the measured ratio by 20%;
    best-of-N with collection deferred to between runs (the same policy
    ``timeit`` uses) is the recorded methodology for every trajectory
    entry. Routes are deterministic, so every repetition yields the same
    trees — only the clock differs.
    """
    import gc

    best: Optional[Tuple[RoutingScenario, KernelResult]] = None
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(max(1, repetitions)):
            scenario = make_routing_scenario(**scenario_kwargs)
            result = run_routing_kernel(scenario, tracer=tracer)
            if best is None or result.seconds_total < best[1].seconds_total:
                best = (scenario, result)
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
    result: KernelResult,
    scenario: RoutingScenario,
) -> dict:
    """Append one measured entry; computes speedup vs the first entry.

    Speedups are only comparable between entries with the same scenario
    parameters; entries record them so a reader can check. Re-running with
    a label already in the trajectory *replaces* that entry in place, so
    benchmark reruns refresh their numbers instead of growing the file.
    Entries record ``"workers": 1`` so they keep matching the recorded
    rows, which used the worker count in their identity.
    """
    params = {
        "grid": scenario.grid,
        "num_nets": len(scenario.nets),
        "capacity": scenario.capacity,
        "seed": scenario.seed,
    }
    return append_trajectory_entry(
        path,
        label,
        params,
        {
            "seconds_initial": round(result.seconds_initial, 4),
            "seconds_ripup": round(result.seconds_ripup, 4),
            "seconds_total": round(result.seconds_total, 4),
            "passes": result.passes,
            "overflow": result.overflow,
            "wirelength_tiles": result.wirelength_tiles,
            "signature": result.signature,
        },
        workers=1,
        speedup_from="seconds_total",
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.benchmarks.routing_kernel",
        description="Run the Stage-2 routing kernel benchmark and append "
        "the result to the BENCH_routing.json trajectory.",
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
    args = parser.parse_args(argv)
    kwargs = dict(seed=args.seed)
    if args.fast:
        kwargs.update(grid=16, num_nets=120)
    scenario, result = run_best_of(args.repeat, **kwargs)
    entry = append_entry(args.out, args.label, result, scenario)
    print(json.dumps(entry, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
