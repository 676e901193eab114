"""Planning-fleet benchmark feeding ``BENCH_service.json``.

One seeded load trace is driven through ``PlanningService`` built with
``SchedulerOptions(workers=N)``: in-process at 1 worker, forked at 2 and
4 (2 only under ``REPRO_BENCH_FAST=1``). Every arm must finish with
byte-identical baseline signatures; the 4-worker arm carries the
``min_speedup_vs_workers1`` gate (armed only on machines with enough
cores — the entry records ``cores`` either way).
"""

import os

from conftest import FAST, SEED, record_table
from repro.benchmarks.service_fleet_kernel import (
    append_fleet_entry,
    fleet_params,
    run_fleet_kernel,
)
from repro.experiments.formatting import render_table

TRAJECTORY = os.path.join(os.path.dirname(__file__), "BENCH_service.json")

#: The acceptance floor for 4 forked shards vs the in-process shard
#: (only armed when the machine has >= 4 cores).
MIN_FLEET_SPEEDUP = 3.0


def test_fleet_kernel(benchmark):
    """Record the fleet arms; enforce cross-arm signature identity."""
    if FAST:
        workers = (1, 2)
        kwargs = dict(tenants=2, jobs=24, rate=40.0)
    else:
        workers = (1, 2, 4)
        kwargs = dict(tenants=4, jobs=120, rate=60.0)
    kwargs.update(seed=SEED, grid=16, num_nets=120, total_sites=600)

    holder = {}

    def body():
        holder["arms"], holder["match"] = run_fleet_kernel(
            workers=workers, **kwargs
        )
        return holder["arms"]

    benchmark.pedantic(body, rounds=1, iterations=1)
    arms, match = holder["arms"], holder["match"]
    assert match, "forked arms diverged from the in-process signatures"

    label = "fleet-loadgen-smoke" if FAST else "fleet-loadgen"
    params = fleet_params(
        kwargs["tenants"], kwargs["jobs"], kwargs["rate"], kwargs["seed"],
        kwargs["grid"], kwargs["num_nets"], kwargs["total_sites"],
    )
    widest = max(arm.workers for arm in arms)
    rows = []
    for arm in arms:
        entry = append_fleet_entry(
            TRAJECTORY,
            label,
            params,
            arm,
            match,
            min_speedup=(
                MIN_FLEET_SPEEDUP
                if (arm.workers == widest and not FAST)
                else None
            ),
        )
        rows.append([
            str(entry["workers"]),
            str(entry["jobs"]),
            f"{entry['wall_seconds']:.2f}",
            f"{entry['jobs_per_sec']:.2f}",
            f"{entry['latency_p50'] * 1000:.1f}",
            f"{entry['latency_p95'] * 1000:.1f}",
            f"{entry['latency_p99'] * 1000:.1f}",
            str(entry.get("speedup_vs_baseline", "-")),
            entry.get("speedup_gate", "-"),
        ])
        assert arm.report.jobs_failed == 0
    record_table(
        "Fleet load (BENCH_service.json)",
        render_table(
            ["workers", "jobs", "wall s", "jobs/s", "p50 ms", "p95 ms",
             "p99 ms", "speedup", "gate"],
            rows,
        ),
    )
