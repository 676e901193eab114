"""Seeded open-loop load generation for the planning service.

A *load trace* is a deterministic function of its options: M tenants,
one baseline each, and a Poisson arrival process (exponential
inter-arrivals at ``rate`` jobs/sec) of jobs mixing three kinds of work:

* ``full`` — a full-mode delta (scratch re-plan of the evolved
  scenario), the heavy job class;
* ``macro_move`` — an incremental macro-move delta, the classic
  floorplanning perturbation;
* ``net_churn`` — an incremental add/remove-net delta (alternating per
  tenant, so the netlist never grows unboundedly).

Because the trace is generated up front from one seed, the *same jobs
in the same submission order* can be driven through the scheduler at
any worker count — and since it preserves per-baseline submission
order, the final baseline signatures must be byte-identical across all
of them. That comparison is the determinism gate between in-process and
forked shards; the sustained jobs/sec and latency percentiles of each
run are the service benchmark.

Submission is *open loop*: jobs are submitted at their trace offsets
(or immediately, once behind) regardless of completions, so the service
sees genuine queueing pressure rather than a closed feedback loop that
self-throttles to the service rate.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.errors import ConfigurationError, QueueFullError
from repro.service.jobs import (
    DeltaSpec,
    Job,
    JobStatus,
    MacroSpec,
    ScenarioSpec,
    add_net,
    move_macro,
    remove_net,
)
from repro.utils.rng import make_rng
from repro.utils.stats import percentile

_TERMINAL = (
    JobStatus.DONE,
    JobStatus.FAILED,
    JobStatus.TIMEOUT,
    JobStatus.SHED,
)


@dataclass(frozen=True)
class LoadgenOptions:
    """Shape of one generated load trace.

    ``mix`` weights (full, macro_move, net_churn); they need not sum to
    one. ``rate`` is the open-loop arrival rate in jobs/sec across all
    tenants.
    """

    tenants: int = 4
    jobs: int = 60
    rate: float = 20.0
    seed: int = 0
    mix: Tuple[float, float, float] = (0.05, 0.65, 0.30)
    grid: int = 16
    num_nets: int = 120
    total_sites: int = 600
    warmup_fraction: float = 0.1

    def __post_init__(self) -> None:
        if self.tenants < 1:
            raise ConfigurationError("tenants must be >= 1")
        if self.jobs < 1:
            raise ConfigurationError("jobs must be >= 1")
        if self.rate <= 0:
            raise ConfigurationError("rate must be > 0")
        if len(self.mix) != 3 or any(w < 0 for w in self.mix) or not sum(self.mix):
            raise ConfigurationError("mix must be 3 non-negative weights")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ConfigurationError("warmup_fraction must be in [0, 1)")


@dataclass(frozen=True)
class LoadEvent:
    """One scheduled submission: ``job`` at ``offset`` seconds."""

    offset: float
    job: Job


@dataclass(frozen=True)
class LoadTrace:
    """A fully materialized workload (baselines + timed job arrivals)."""

    options: LoadgenOptions
    baselines: Tuple[Job, ...]
    events: Tuple[LoadEvent, ...]

    @property
    def warmup_count(self) -> int:
        return int(len(self.events) * self.options.warmup_fraction)


def _tenant_scenario(options: LoadgenOptions, tenant: int) -> ScenarioSpec:
    grid = options.grid
    side = max(2, grid // 4)
    return ScenarioSpec(
        grid=grid,
        num_nets=options.num_nets,
        total_sites=options.total_sites,
        seed=options.seed,
        # Distinct site scatter per tenant: baselines differ, so a shard
        # mix-up or cross-baseline replay cannot silently cancel out in
        # the signature comparison.
        site_seed=options.seed * 1000 + tenant,
        macros=(MacroSpec(grid // 4, grid // 4, side, side),),
    )


def make_load_trace(options: "LoadgenOptions | None" = None) -> LoadTrace:
    """Generate the deterministic trace for ``options`` (pure)."""
    options = options or LoadgenOptions()
    rng = make_rng(options.seed)
    grid = options.grid
    side = max(2, grid // 4)
    baselines = tuple(
        Job(
            job_id=f"lg-t{t}-b",
            kind="baseline",
            scenario=_tenant_scenario(options, t),
            tenant=f"t{t}",
        )
        for t in range(options.tenants)
    )
    weights = [float(w) for w in options.mix]
    total_w = sum(weights)
    probs = [w / total_w for w in weights]
    churn_added: Dict[int, List[str]] = {t: [] for t in range(options.tenants)}
    events: List[LoadEvent] = []
    offset = 0.0
    for k in range(options.jobs):
        offset += float(rng.exponential(1.0 / options.rate))
        tenant = int(rng.integers(options.tenants))
        kind = ["full", "macro_move", "net_churn"][
            int(rng.choice(3, p=probs))
        ]
        if kind == "net_churn" and churn_added[tenant] and rng.random() < 0.5:
            ops = (remove_net(churn_added[tenant].pop(0)),)
        elif kind == "net_churn":
            name = f"lg{tenant}x{k}"
            source = (int(rng.integers(grid)), int(rng.integers(grid)))
            sinks = [
                (int(rng.integers(grid)), int(rng.integers(grid)))
                for _ in range(int(rng.integers(1, 3)))
            ]
            churn_added[tenant].append(name)
            ops = (add_net(name, source, sinks),)
        else:
            x = int(rng.integers(grid - side))
            y = int(rng.integers(grid - side))
            ops = (move_macro(0, x, y),)
        events.append(
            LoadEvent(
                offset=offset,
                job=Job(
                    job_id=f"lg-t{tenant}-d{k}",
                    kind="delta",
                    baseline_id=f"lg-t{tenant}-b",
                    delta=DeltaSpec(ops=ops),
                    mode="full" if kind == "full" else "incremental",
                    tenant=f"t{tenant}",
                ),
            )
        )
    return LoadTrace(options=options, baselines=baselines, events=tuple(events))


@dataclass
class LoadReport:
    """What one driven trace actually did, measured past warmup."""

    jobs_submitted: int = 0
    jobs_measured: int = 0
    jobs_done: int = 0
    jobs_shed: int = 0
    jobs_failed: int = 0
    wall_seconds: float = 0.0
    jobs_per_sec: float = 0.0
    latency_p50: float = 0.0
    latency_p95: float = 0.0
    latency_p99: float = 0.0
    queue_wait_p95: float = 0.0
    per_tenant: Dict[str, Dict[str, float]] = field(default_factory=dict)
    signatures: Dict[str, str] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "jobs_submitted": self.jobs_submitted,
            "jobs_measured": self.jobs_measured,
            "jobs_done": self.jobs_done,
            "jobs_shed": self.jobs_shed,
            "jobs_failed": self.jobs_failed,
            "wall_seconds": round(self.wall_seconds, 6),
            "jobs_per_sec": round(self.jobs_per_sec, 3),
            "latency_p50": round(self.latency_p50, 6),
            "latency_p95": round(self.latency_p95, 6),
            "latency_p99": round(self.latency_p99, 6),
            "queue_wait_p95": round(self.queue_wait_p95, 6),
            "per_tenant": self.per_tenant,
            "signatures": dict(self.signatures),
        }


async def run_load(service, trace: LoadTrace) -> LoadReport:
    """Drive ``trace`` through a started service; returns the report.

    ``service`` is a :class:`~repro.service.scheduler.PlanningService`.
    Baselines are planned first (outside the measured window); delta
    jobs are then submitted open-loop at their trace offsets.
    """
    report = LoadReport()
    for job in trace.baselines:
        service.submit(job)
    for job in trace.baselines:
        await service.wait(job.job_id)

    start = time.monotonic()
    submitted: List[str] = []
    for event in trace.events:
        delay = event.offset - (time.monotonic() - start)
        if delay > 0:
            await asyncio.sleep(delay)
        try:
            service.submit(event.job)
        except QueueFullError:
            report.jobs_shed += 1
            continue
        submitted.append(event.job.job_id)
        report.jobs_submitted += 1
    for job_id in submitted:
        await service.wait(job_id)
    wall_end = time.monotonic()

    warmup_ids = {e.job.job_id for e in trace.events[: trace.warmup_count]}
    latencies: List[float] = []
    waits: List[float] = []
    per_tenant: Dict[str, List[float]] = {}
    measured_finish = start
    for job_id in submitted:
        record = service.record(job_id)
        if record.status is JobStatus.DONE:
            report.jobs_done += 1
        elif record.status in (JobStatus.FAILED, JobStatus.TIMEOUT):
            report.jobs_failed += 1
        if job_id in warmup_ids or record.status is not JobStatus.DONE:
            continue
        report.jobs_measured += 1
        latencies.append(record.finished_at - record.submitted_at)
        waits.append(record.queue_wait)
        per_tenant.setdefault(record.job.tenant, []).append(record.queue_wait)
        measured_finish = max(measured_finish, record.finished_at)
    report.wall_seconds = max(1e-9, measured_finish - start)
    if not report.jobs_measured:
        report.wall_seconds = max(1e-9, wall_end - start)
    report.jobs_per_sec = report.jobs_measured / report.wall_seconds
    report.latency_p50 = percentile(latencies, 0.50)
    report.latency_p95 = percentile(latencies, 0.95)
    report.latency_p99 = percentile(latencies, 0.99)
    report.queue_wait_p95 = percentile(waits, 0.95)
    report.per_tenant = {
        tenant: {
            "jobs": float(len(values)),
            "queue_wait_p95": round(percentile(values, 0.95), 6),
        }
        for tenant, values in sorted(per_tenant.items())
    }
    planned = service.baseline_ids
    report.signatures = {
        job.job_id: service.baseline(job.job_id).signature
        for job in trace.baselines
        if job.job_id in planned
    }
    return report
