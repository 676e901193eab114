"""The lower-bound-oracle benchmark feeding ``BENCH_bounds.json``.

Each run takes one workload (grid / nets / site budget) and a list of
epsilon values. The ``full_plan`` plan (a maze route plus the Stage-3
walk, no Stage 2 or 4) is computed once per workload; then, for every
epsilon, the Garg-Konemann oracle produces a certified lower bound and
the dual certificate is re-verified from scratch. One trajectory entry
is appended per epsilon. The bound prices at ``theta = 0`` and depends
on neither epsilon nor the iteration count, so the gap is the same in
every row; epsilon moves ``lambda_lb``.

The acceptance workloads are the 32x32 / 500-net scenario (the repo's
standard kernel size) and the 64x64 / 2000-net stretch; ``--fast`` runs
a 16x16 / 120-net smoke for CI. Invariants checked on every entry —
reflected in the exit code — are ``gap >= 0`` (the bound never exceeds
the plan it certifies) and ``certificate_ok`` (the saved dual lengths
re-verify against a fresh pricing pass).
"""

from __future__ import annotations

import argparse
import json
import os
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.benchmarks.emit import append_trajectory_entry
from repro.bounds import (
    BoundOptions,
    bound_scenario,
    plan_surrogate_cost,
    verify_certificate,
)
from repro.core.rabid import RabidConfig
from repro.explore.executor import metrics_from_state
from repro.service.engine import build_graph, full_plan
from repro.service.jobs import ScenarioSpec

#: Default location of the trajectory file, relative to the repo root.
DEFAULT_TRAJECTORY = os.path.join("benchmarks", "BENCH_bounds.json")

#: Default gap-vs-epsilon sweep: at least two epsilon values per run.
DEFAULT_EPSILONS = (0.5, 0.25)


@dataclass(frozen=True)
class BoundsKernelResult:
    """One (workload, epsilon) measurement of the bound oracle."""

    params: Dict[str, Any]
    lower_bound: float
    plan_cost: float
    plan_unassigned_nets: int
    gap: Optional[float]
    lambda_lb: float
    certified_infeasible: bool
    pricing_calls: int
    seconds_bound: float
    seconds_plan: float
    certificate_ok: bool

    @property
    def invariants_ok(self) -> bool:
        """The two recorded guarantees: nonnegative gap, valid cert.

        A ``None`` gap is only acceptable when there is nothing to
        compare against — the bound certified infeasibility, or the
        plan itself left nets unassigned.
        """
        if self.gap is None:
            gap_ok = self.certified_infeasible or self.plan_unassigned_nets > 0
        else:
            gap_ok = self.gap >= 0.0
        return gap_ok and self.certificate_ok


def run_bounds_kernel(
    grid: int = 32,
    num_nets: int = 500,
    capacity: int = 8,
    total_sites: int = 2500,
    seed: int = 0,
    site_seed: int = 0,
    epsilons: Sequence[float] = DEFAULT_EPSILONS,
    iterations: int = 3,
    window_margin: int = 10,
) -> List[BoundsKernelResult]:
    """Bound one workload at each epsilon against a single ``full_plan``.

    The plan arm runs once (it does not depend on epsilon); its timed
    cost is recorded on every entry so gap-vs-epsilon rows stay
    self-contained. Each bound result's certificate is re-verified with
    an independent pricing pass before being declared ok.
    """
    scenario = ScenarioSpec(
        grid=grid,
        num_nets=num_nets,
        capacity=capacity,
        total_sites=total_sites,
        seed=seed,
        site_seed=site_seed,
    )
    nets = scenario.nets()
    limits = scenario.limits(sorted(nets))

    t0 = time.perf_counter()
    metrics = metrics_from_state(full_plan(scenario, RabidConfig()))
    seconds_plan = time.perf_counter() - t0
    plan_cost = plan_surrogate_cost(metrics)
    unassigned = int(metrics.get("unassigned_nets", 0))

    results: List[BoundsKernelResult] = []
    for epsilon in epsilons:
        options = BoundOptions(
            epsilon=epsilon,
            iterations=iterations,
            window_margin=window_margin,
        )
        t0 = time.perf_counter()
        bound = bound_scenario(scenario, options)
        seconds_bound = time.perf_counter() - t0

        verify = verify_certificate(
            bound.certificate(), build_graph(scenario), nets, limits,
            window_margin=window_margin,
        )

        gap: Optional[float] = None
        if not bound.certified_infeasible and unassigned == 0:
            gap = round(
                (plan_cost - bound.lower_bound)
                / max(bound.lower_bound, 1.0),
                6,
            )
        results.append(
            BoundsKernelResult(
                params={
                    "grid": grid,
                    "num_nets": num_nets,
                    "capacity": capacity,
                    "total_sites": total_sites,
                    "seed": seed,
                    "site_seed": site_seed,
                    "epsilon": epsilon,
                    "iterations": iterations,
                },
                lower_bound=round(bound.lower_bound, 6),
                plan_cost=plan_cost,
                plan_unassigned_nets=unassigned,
                gap=gap,
                lambda_lb=round(bound.lambda_lb, 6),
                certified_infeasible=bound.certified_infeasible,
                pricing_calls=bound.pricing_calls,
                seconds_bound=round(seconds_bound, 4),
                seconds_plan=round(seconds_plan, 4),
                certificate_ok=bool(verify["ok"]),
            )
        )
    return results


# --------------------------------------------------------------------- #
# Trajectory file                                                       #
# --------------------------------------------------------------------- #


def append_bounds_entry(
    path: str,
    label: str,
    result: BoundsKernelResult,
    extra: Optional[dict] = None,
) -> dict:
    """Record one (workload, epsilon) row; same params replace in place.

    The emit layer keys worker-less entries by label alone, so the
    epsilon is folded into the stored label — one run with several
    epsilon values records several rows instead of overwriting one.
    """
    return append_trajectory_entry(
        path,
        f"{label}-eps{result.params['epsilon']}",
        result.params,
        {
            "lower_bound": result.lower_bound,
            "plan_cost": result.plan_cost,
            "plan_unassigned_nets": result.plan_unassigned_nets,
            "gap": result.gap,
            "lambda_lb": result.lambda_lb,
            "certified_infeasible": result.certified_infeasible,
            "pricing_calls": result.pricing_calls,
            "seconds_bound": result.seconds_bound,
            "seconds_plan": result.seconds_plan,
            "certificate_ok": result.certificate_ok,
        },
        extra=extra,
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.benchmarks.bounds_kernel",
        description="Run the lower-bound oracle at several epsilon values "
        "and append gap-vs-epsilon rows to the BENCH_bounds.json "
        "trajectory.",
    )
    parser.add_argument("--label", required=True, help="entry label")
    parser.add_argument("--out", default=DEFAULT_TRAJECTORY)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--grid", type=int, default=32)
    parser.add_argument("--nets", type=int, default=500)
    parser.add_argument("--capacity", type=int, default=8)
    parser.add_argument("--total-sites", type=int, default=2500)
    parser.add_argument("--iterations", type=int, default=3)
    parser.add_argument(
        "--epsilon",
        type=float,
        action="append",
        default=None,
        metavar="EPS",
        help="epsilon value (repeatable; default 0.5 and 0.25)",
    )
    parser.add_argument(
        "--fast", action="store_true",
        help="16x16 / 120-net smoke workload for CI",
    )
    args = parser.parse_args(argv)
    kwargs: Dict[str, Any] = dict(
        grid=args.grid,
        num_nets=args.nets,
        capacity=args.capacity,
        total_sites=args.total_sites,
        seed=args.seed,
        site_seed=args.seed,
        epsilons=tuple(args.epsilon) if args.epsilon else DEFAULT_EPSILONS,
        iterations=args.iterations,
    )
    if args.fast:
        kwargs.update(grid=16, num_nets=120, total_sites=1000, iterations=2)
    results = run_bounds_kernel(**kwargs)
    ok = True
    for result in results:
        entry = append_bounds_entry(args.out, args.label, result)
        print(json.dumps(entry, indent=2))
        ok = ok and result.invariants_ok
        print(
            f"eps={result.params['epsilon']}: lower_bound="
            f"{result.lower_bound} plan_cost={result.plan_cost} "
            f"gap={result.gap} certificate_ok={result.certificate_ok} "
            f"({result.seconds_bound:.2f}s bound, "
            f"{result.seconds_plan:.2f}s plan)"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
