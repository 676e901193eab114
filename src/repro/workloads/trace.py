"""Streaming ECO driver: seeded delta traces replayed through the service.

The paper's whole premise is *early, iterative* allocation: floorplans
churn (macros move, nets appear and vanish, budgets get edited) and the
planner must keep up incrementally. This module generates a long
randomized trace of :class:`~repro.service.jobs.DeltaSpec` events from
a seeded RNG, replays it through the incremental
:class:`~repro.service.scheduler.PlanningService` (its shard in-process
at ``workers == 1``, forked above), and measures what the ROADMAP asks
for:

* steady-state incremental speedup vs per-event full re-planning,
* per-event latency percentiles (p50/p95/p99),
* **divergence-from-full-replan**: every ``checkpoint_every`` events
  the driver full-plans the folded scenario from scratch and records
  whether the buffering signature matches the incremental state — so
  drift is quantified, not assumed.

Determinism contract: the same ``(scenario, events, seed)`` produce the
same trace, and replaying it with the same worker count produces a
byte-identical signature map (the incremental engine is exact).
"""

from __future__ import annotations

import asyncio
import hashlib
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.obs import NULL_TRACER
from repro.service.jobs import (
    DeltaSpec,
    Job,
    JobStatus,
    ScenarioSpec,
    add_net,
    apply_delta,
    move_macro,
    remove_net,
    set_capacity,
    set_length_limit,
    set_sites,
)
from repro.utils.rng import make_rng
from repro.utils.stats import percentile

#: Relative weights of the six ECO event kinds.
EVENT_MIX: Tuple[Tuple[str, float], ...] = (
    ("move_macro", 0.18),
    ("add_net", 0.22),
    ("remove_net", 0.12),
    ("set_sites", 0.20),
    ("set_capacity", 0.18),
    ("set_length_limit", 0.10),
)


@dataclass(frozen=True)
class TraceOptions:
    """Trace generation + replay knobs.

    Attributes:
        events: trace length.
        seed: RNG seed for the event stream.
        checkpoint_every: full re-plan divergence checkpoint period
            (0 disables checkpoints).
        workers: scheduler shards; 1 plans in-process, more fork.
        job_timeout: per-job wall-clock budget handed to the service.
    """

    events: int = 100
    seed: int = 0
    checkpoint_every: int = 25
    workers: int = 1
    job_timeout: float = 600.0

    def __post_init__(self) -> None:
        if self.events < 1:
            raise ConfigurationError("trace needs at least one event")
        if self.checkpoint_every < 0:
            raise ConfigurationError("checkpoint_every must be >= 0")
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if self.job_timeout <= 0:
            raise ConfigurationError("job_timeout must be > 0")


@dataclass(frozen=True)
class TraceEvent:
    """One generated ECO event."""

    index: int
    kind: str
    delta: DeltaSpec


@dataclass(frozen=True)
class EventRecord:
    """Measured replay of one event."""

    index: int
    kind: str
    seconds: float  # service-side replan compute seconds
    latency: float  # wall latency from start to finish of the job
    queue_wait: float
    signature: str
    speedup_vs_full: Optional[float] = None
    nets_rerouted: Optional[int] = None
    nets_searched: Optional[int] = None  # maze searches the replay ran


@dataclass(frozen=True)
class CheckpointRecord:
    """One divergence-from-full-replan checkpoint."""

    event_index: int
    signature_incremental: str
    signature_full: str
    match: bool
    seconds_full: float
    buffers_full: int
    failed_full: int
    buffers_incremental: Optional[int] = None
    cost_delta: Optional[int] = None  # full buffers - incremental buffers


def make_trace(
    scenario: ScenarioSpec,
    options: Optional[TraceOptions] = None,
) -> List[TraceEvent]:
    """Generate a deterministic ECO event trace for ``scenario``.

    Every event is valid against the scenario folded up to that point:
    macros move within the die, only live ECO nets are removed, length
    limits touch only the stable generated netlist. Kind draws fall
    back deterministically when a kind is inapplicable (no macros, no
    ECO nets yet).
    """
    options = options or TraceOptions()
    rng = make_rng(options.seed)
    grid = scenario.grid
    kinds = [k for k, _ in EVENT_MIX]
    weights = [w for _, w in EVENT_MIX]
    total = sum(weights)
    probs = [w / total for w in weights]

    folded = scenario
    live_eco: List[str] = []
    eco_counter = 0
    events: List[TraceEvent] = []
    for index in range(options.events):
        kind = str(rng.choice(kinds, p=probs))
        if kind == "move_macro" and not folded.macros:
            kind = "set_sites"
        if kind == "remove_net" and not live_eco:
            kind = "add_net"
        if kind == "move_macro":
            # ECO moves are local nudges, not teleports: floorplan
            # iterations shift a macro by a few tiles, which also keeps
            # the incremental dirty region (and event latency) bounded.
            idx = int(rng.integers(len(folded.macros)))
            macro = folded.macros[idx]
            step = max(1, grid // 8)
            x = macro.x + int(rng.integers(-step, step + 1))
            y = macro.y + int(rng.integers(-step, step + 1))
            x = min(max(0, x), max(0, grid - macro.width))
            y = min(max(0, y), max(0, grid - macro.height))
            if (x, y) == (macro.x, macro.y):
                x = min(max(0, x + 1), max(0, grid - macro.width))
            op = move_macro(idx, x, y)
        elif kind == "add_net":
            # "zeco-" sorts after the generated "net*" names, so ECO
            # nets join the deterministic walk order *behind* the
            # existing netlist: their routes see the baseline's usage
            # as a fixed prefix instead of perturbing it, which keeps
            # the incremental replay local (new commitments are planned
            # around existing ones — the paper's ECO model).
            name = f"zeco-{eco_counter:05d}"
            eco_counter += 1
            sx = int(rng.integers(grid))
            sy = int(rng.integers(grid))
            sinks = []
            for _ in range(1 + int(rng.integers(3))):
                tx = min(grid - 1, max(0, sx + int(rng.integers(-6, 7))))
                ty = min(grid - 1, max(0, sy + int(rng.integers(-6, 7))))
                if (tx, ty) == (sx, sy):
                    tx = (tx + 1) % grid
                sinks.append((tx, ty))
            op = add_net(name, (sx, sy), sinks)
            live_eco.append(name)
        elif kind == "remove_net":
            pick = int(rng.integers(len(live_eco)))
            name = live_eco.pop(pick)
            op = remove_net(name)
        elif kind == "set_sites":
            tiles = []
            for _ in range(1 + int(rng.integers(3))):
                tiles.append(
                    (
                        int(rng.integers(grid)),
                        int(rng.integers(grid)),
                        int(rng.integers(7)),
                    )
                )
            op = set_sites(tiles)
        elif kind == "set_capacity":
            if int(rng.integers(2)) and grid > 1:
                x = int(rng.integers(grid - 1))
                y = int(rng.integers(grid))
                edge = (x, y, x + 1, y)
            else:
                x = int(rng.integers(grid))
                y = int(rng.integers(grid - 1))
                edge = (x, y, x, y + 1)
            cap = max(1, scenario.capacity + int(rng.integers(-3, 4)))
            op = set_capacity([edge + (cap,)])
        else:  # set_length_limit on the stable generated netlist
            name = f"net{int(rng.integers(scenario.num_nets))}"
            limit = max(2, scenario.length_limit + int(rng.integers(-1, 4)))
            op = set_length_limit(name, limit)
        delta = DeltaSpec(ops=(op,))
        folded = apply_delta(folded, delta)
        events.append(TraceEvent(index=index, kind=kind, delta=delta))
    return events


@dataclass
class TraceReport:
    """Everything one replayed trace measured."""

    workload: str
    grid: int
    nets: int
    events: int
    workers: int
    seed: int
    checkpoint_every: int
    baseline: Dict[str, Any]
    event_records: List[EventRecord] = field(default_factory=list)
    checkpoints: List[CheckpointRecord] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def signature_map(self) -> Dict[int, str]:
        """Event index -> post-event buffering signature."""
        return {r.index: r.signature for r in self.event_records}

    def signature_digest(self) -> str:
        """One hash over the whole signature map (determinism tests)."""
        payload = ";".join(
            f"{r.index}:{r.signature}" for r in self.event_records
        )
        return hashlib.sha256(payload.encode("ascii")).hexdigest()

    @property
    def divergences(self) -> int:
        return sum(1 for c in self.checkpoints if not c.match)

    @property
    def event_seconds(self) -> List[float]:
        return [r.seconds for r in self.event_records]

    @property
    def latencies(self) -> List[float]:
        return [r.latency for r in self.event_records]

    def latency_percentiles(self) -> Dict[str, float]:
        lat = self.latencies
        return {
            "event_p50": percentile(lat, 0.50),
            "event_p95": percentile(lat, 0.95),
            "event_p99": percentile(lat, 0.99),
        }

    def steady_speedup(self) -> Optional[float]:
        """Mean checkpoint full-replan seconds over mean steady-state
        incremental event seconds (events after the first checkpoint
        window, so cold-start effects don't flatter the ratio)."""
        secs = self.event_seconds
        if not secs:
            return None
        steady = (
            secs[self.checkpoint_every:]
            if len(secs) > self.checkpoint_every > 0
            else secs
        )
        full = [c.seconds_full for c in self.checkpoints]
        if not full:
            baseline_full = self.baseline.get("seconds_full")
            if not baseline_full:
                return None
            full = [float(baseline_full)]
        mean_event = sum(steady) / len(steady)
        if mean_event <= 0:
            return None
        return (sum(full) / len(full)) / mean_event

    def as_dict(self) -> Dict[str, Any]:
        speedup = self.steady_speedup()
        return {
            "workload": self.workload,
            "grid": self.grid,
            "nets": self.nets,
            "events": self.events,
            "workers": self.workers,
            "seed": self.seed,
            "checkpoint_every": self.checkpoint_every,
            "wall_seconds": round(self.wall_seconds, 4),
            "baseline": dict(self.baseline),
            "steady_speedup": (
                round(speedup, 2) if speedup is not None else None
            ),
            "divergences": self.divergences,
            "signature_digest": self.signature_digest(),
            **{
                k: round(v, 6)
                for k, v in self.latency_percentiles().items()
            },
            "checkpoints": [
                {
                    "event_index": c.event_index,
                    "match": c.match,
                    "seconds_full": round(c.seconds_full, 4),
                    "buffers_full": c.buffers_full,
                    "failed_full": c.failed_full,
                    "buffers_incremental": c.buffers_incremental,
                    "cost_delta": c.cost_delta,
                    "signature_incremental": c.signature_incremental,
                    "signature_full": c.signature_full,
                }
                for c in self.checkpoints
            ],
            "events_by_kind": self.events_by_kind(),
            "by_kind": self.by_kind(),
        }

    def events_by_kind(self) -> Dict[str, int]:
        return {kind: row["events"] for kind, row in self.by_kind().items()}

    def by_kind(self) -> Dict[str, Dict[str, Any]]:
        """Per event kind: ``events``, ``latency_p50``/``latency_p95``
        and ``nets_searched``, the mean maze searches per event (``None``
        when the service reported none)."""
        groups: Dict[str, List[EventRecord]] = {}
        for record in self.event_records:
            groups.setdefault(record.kind, []).append(record)
        out: Dict[str, Dict[str, Any]] = {}
        for kind, records in sorted(groups.items()):
            latencies = [r.latency for r in records]
            searched = [r.nets_searched for r in records if r.nets_searched is not None]
            out[kind] = {
                "events": len(records),
                "latency_p50": round(percentile(latencies, 0.50), 6),
                "latency_p95": round(percentile(latencies, 0.95), 6),
                "nets_searched": (
                    round(sum(searched) / len(searched), 2) if searched else None
                ),
            }
        return out


async def _replay_async(
    scenario: ScenarioSpec,
    trace: Sequence[TraceEvent],
    options: TraceOptions,
    config,
    tracer,
    workload: str,
) -> TraceReport:
    from repro.service.engine import full_plan

    from repro.service.scheduler import PlanningService, SchedulerOptions

    service = PlanningService(
        config=config,
        options=SchedulerOptions(
            workers=options.workers,
            job_timeout=options.job_timeout,
            max_queue=max(64, len(trace) + 2),
        ),
        tracer=tracer,
    )
    start = time.perf_counter()
    await service.start()
    try:
        base_job = Job(
            job_id="trace-base",
            kind="baseline",
            scenario=scenario,
            config=config.as_dict() if config is not None else None,
        )
        service.submit(base_job)
        record = await service.wait("trace-base")
        if record.status is not JobStatus.DONE:
            raise RuntimeError(
                f"trace baseline failed ({record.status.value}): "
                f"{record.error}"
            )
        report = TraceReport(
            workload=workload,
            grid=scenario.grid,
            nets=len(scenario.nets()),
            events=len(trace),
            workers=options.workers,
            seed=options.seed,
            checkpoint_every=options.checkpoint_every,
            baseline=dict(record.result or {}),
        )
        folded = scenario
        for event in trace:
            job = Job(
                job_id=f"trace-ev{event.index:06d}",
                kind="delta",
                baseline_id="trace-base",
                delta=event.delta,
            )
            service.submit(job)
            record = await service.wait(job.job_id)
            if record.status is not JobStatus.DONE:
                raise RuntimeError(
                    f"trace event {event.index} ({event.kind}) failed "
                    f"({record.status.value}): {record.error}"
                )
            result = record.result or {}
            folded = apply_delta(folded, event.delta)
            signature = str(result.get("signature", ""))
            report.event_records.append(
                EventRecord(
                    index=event.index,
                    kind=event.kind,
                    seconds=float(result.get("seconds", 0.0)),
                    latency=max(0.0, record.finished_at - record.started_at),
                    queue_wait=record.queue_wait,
                    signature=signature,
                    speedup_vs_full=result.get("speedup_vs_full"),
                    nets_rerouted=result.get("nets_rerouted"),
                    nets_searched=result.get("nets_searched"),
                )
            )
            if tracer.enabled:
                tracer.count("workload.trace_events")
                tracer.observe(
                    "workload.event_seconds",
                    float(result.get("seconds", 0.0)),
                )
            checkpoint_due = (
                options.checkpoint_every > 0
                and (event.index + 1) % options.checkpoint_every == 0
            )
            if checkpoint_due:
                t0 = time.perf_counter()
                full_state = full_plan(folded, config, tracer=tracer)
                seconds_full = time.perf_counter() - t0
                summary = full_state.summary()
                failed = summary["failed_nets"]
                failed_count = (
                    len(failed) if isinstance(failed, (list, tuple))
                    else int(failed)
                )
                buffers_incr = service.baseline("trace-base").summary["buffers"]
                match = summary["signature"] == signature
                report.checkpoints.append(
                    CheckpointRecord(
                        event_index=event.index,
                        signature_incremental=signature,
                        signature_full=summary["signature"],
                        match=match,
                        seconds_full=seconds_full,
                        buffers_full=int(summary["buffers"]),
                        failed_full=failed_count,
                        buffers_incremental=buffers_incr,
                        cost_delta=int(summary["buffers"]) - buffers_incr,
                    )
                )
                if tracer.enabled:
                    tracer.count("workload.checkpoints")
                    if not match:
                        tracer.count("workload.divergences")
        report.wall_seconds = time.perf_counter() - start
        return report
    finally:
        await service.stop()


def replay_trace(
    scenario: ScenarioSpec,
    trace: Sequence[TraceEvent],
    options: Optional[TraceOptions] = None,
    config=None,
    tracer=NULL_TRACER,
    workload: str = "custom",
) -> TraceReport:
    """Replay a generated trace through the planning service.

    Synchronous wrapper; builds the service named by
    ``options.workers``, streams the events one at a time (each event
    waits for the previous one — the trace is a causal ECO history,
    not a throughput benchmark), and full-plans the folded scenario at
    every checkpoint to measure divergence.
    """
    options = options or TraceOptions()
    return asyncio.run(
        _replay_async(scenario, trace, options, config, tracer, workload)
    )


def run_workload_trace(
    workload: str,
    options: Optional[TraceOptions] = None,
    config=None,
    tracer=NULL_TRACER,
) -> TraceReport:
    """Generate + replay a trace for a registered workload tier."""
    from repro.workloads.registry import get_workload

    spec = get_workload(workload)
    options = options or TraceOptions()
    scenario = spec.scenario()
    trace = make_trace(scenario, options)
    return replay_trace(
        scenario, trace, options, config=config, tracer=tracer,
        workload=spec.name,
    )
