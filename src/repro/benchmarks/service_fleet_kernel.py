"""Fleet benchmark: sustained load through 1/2/4-worker schedulers.

Feeds ``benchmarks/BENCH_service.json`` alongside the incremental
kernel. One seeded load trace (:mod:`repro.service.loadgen` — M
tenants, Poisson arrivals, a full/macro-move/net-churn job mix) is
driven through each *arm*, a :class:`PlanningService` with
``SchedulerOptions(workers=N)``:

* ``workers=1`` — the shard plans in-process, the baseline the forked
  arms must beat *and* match bit-for-bit;
* ``workers=N`` — N forked shard workers.

Each arm records measured jobs, wall seconds, sustained jobs/sec, and
p50/p95/p99 latency; the trajectory's ``min_speedup_vs_workers1`` gate
(armed only when the machine has at least N cores) enforces the
acceptance floor on the widest arm. Before anything is recorded the
kernel asserts every arm finished with byte-identical baseline
signatures — a fleet that is fast but wrong fails here, not in a
reviewer's diff.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.benchmarks.emit import append_trajectory_entry
from repro.service import (
    LoadgenOptions,
    PlanningService,
    SchedulerOptions,
    make_load_trace,
    run_load,
)
from repro.service.loadgen import LoadReport, LoadTrace


@dataclass(frozen=True)
class FleetArmResult:
    """One scheduler arm's run of the shared trace."""

    workers: int
    report: LoadReport
    rebuilds: int = 0


def _run_arm(trace: LoadTrace, workers: int, job_timeout: float) -> FleetArmResult:
    async def arm():
        service = PlanningService(
            options=SchedulerOptions(
                workers=workers,
                max_queue=max(64, len(trace.events) + len(trace.baselines)),
                job_timeout=job_timeout,
            )
        )
        await service.start()
        try:
            return await run_load(service, trace), service.stats()
        finally:
            await service.stop()

    report, stats = asyncio.run(arm())
    return FleetArmResult(workers=workers, report=report, rebuilds=stats["rebuilds"])


def run_fleet_kernel(
    workers: Tuple[int, ...] = (1, 2, 4),
    tenants: int = 4,
    jobs: int = 120,
    rate: float = 60.0,
    seed: int = 0,
    grid: int = 16,
    num_nets: int = 120,
    total_sites: int = 600,
    job_timeout: float = 120.0,
) -> "Tuple[List[FleetArmResult], bool]":
    """Run every arm over the same trace.

    Returns ``(arms, signatures_match)`` where ``signatures_match`` is
    True only when every arm finished with exactly the same baseline
    signature map (and every baseline actually planned).
    """
    trace = make_load_trace(
        LoadgenOptions(
            tenants=tenants,
            jobs=jobs,
            rate=rate,
            seed=seed,
            grid=grid,
            num_nets=num_nets,
            total_sites=total_sites,
        )
    )
    arms = [_run_arm(trace, n, job_timeout) for n in workers]
    reference: Optional[Dict[str, str]] = None
    match = True
    for arm in arms:
        sigs = arm.report.signatures
        if len(sigs) != len(trace.baselines):
            match = False
        if reference is None:
            reference = sigs
        elif sigs != reference:
            match = False
    return arms, match


def fleet_params(
    tenants: int, jobs: int, rate: float, seed: int,
    grid: int, num_nets: int, total_sites: int,
) -> Dict[str, Any]:
    return {
        "grid": grid,
        "num_nets": num_nets,
        "total_sites": total_sites,
        "tenants": tenants,
        "jobs": jobs,
        "rate": rate,
        "seed": seed,
    }


def append_fleet_entry(
    path: "str | Path",
    label: str,
    params: Dict[str, Any],
    arm: FleetArmResult,
    signatures_match: bool,
    min_speedup: "float | None" = None,
) -> Dict[str, Any]:
    """Record one arm; the widest arm usually carries the speedup gate."""
    report = arm.report
    return append_trajectory_entry(
        str(path),
        label,
        params,
        {
            "jobs": report.jobs_measured,
            "wall_seconds": round(report.wall_seconds, 4),
            "jobs_per_sec": round(report.jobs_per_sec, 2),
            "latency_p50": round(report.latency_p50, 4),
            "latency_p95": round(report.latency_p95, 4),
            "latency_p99": round(report.latency_p99, 4),
            "queue_wait_p95": round(report.queue_wait_p95, 4),
            "jobs_shed": report.jobs_shed,
            "jobs_failed": report.jobs_failed,
            "signatures_match": signatures_match,
            "rebuilds": arm.rebuilds,
        },
        workers=arm.workers,
        speedup_from="wall_seconds",
        min_speedup_vs_workers1=min_speedup,
    )


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="fleet kernel: sustained load at 1/2/4 workers"
    )
    parser.add_argument("--fast", action="store_true",
                        help="small trace, workers {1,2} (CI smoke)")
    parser.add_argument("--workers", default=None,
                        help="comma-separated worker arms, e.g. 1,2,4")
    parser.add_argument("--tenants", type=int, default=4)
    parser.add_argument("--jobs", type=int, default=120)
    parser.add_argument("--rate", type=float, default=60.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="speedup floor for the widest arm "
                             "(auto-skipped when cores < workers)")
    parser.add_argument("--label", default="fleet-loadgen")
    parser.add_argument("--out", default=None,
                        help="trajectory JSON to append to")
    args = parser.parse_args(argv)

    kwargs: Dict[str, Any] = dict(
        tenants=args.tenants, jobs=args.jobs, rate=args.rate, seed=args.seed,
        grid=16, num_nets=120, total_sites=600,
    )
    workers: Tuple[int, ...] = (1, 2, 4)
    if args.fast:
        workers = (1, 2)
        kwargs.update(jobs=min(args.jobs, 40), grid=16)
    if args.workers:
        workers = tuple(int(w) for w in args.workers.split(","))

    arms, match = run_fleet_kernel(workers=workers, **kwargs)
    for arm in arms:
        r = arm.report
        print(
            f"workers={arm.workers}: {r.jobs_measured} jobs over "
            f"{r.wall_seconds:.2f}s -> {r.jobs_per_sec:.2f} jobs/s, "
            f"p50 {r.latency_p50 * 1e3:.1f}ms p95 {r.latency_p95 * 1e3:.1f}ms "
            f"p99 {r.latency_p99 * 1e3:.1f}ms "
            f"(rebuild={arm.rebuilds})"
        )
    print(f"signatures_match={match}")
    if not match:
        return 1
    if args.out:
        params = fleet_params(
            kwargs["tenants"], kwargs["jobs"], kwargs["rate"], kwargs["seed"],
            kwargs["grid"], kwargs["num_nets"], kwargs["total_sites"],
        )
        widest = max(arm.workers for arm in arms)
        for arm in arms:
            entry = append_fleet_entry(
                args.out,
                args.label,
                params,
                arm,
                match,
                min_speedup=(
                    args.min_speedup if arm.workers == widest else None
                ),
            )
            gate = entry.get("speedup_gate")
            if gate:
                print(f"workers={arm.workers} speedup_gate: {gate}")
        print(f"recorded -> {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
