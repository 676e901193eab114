"""The three benchmark workloads, their output checks and their metrics.

Every workload runs *units* (one set-up plus one measured operation
batch) until the time budget is spent. In a traced run the units
alternate untraced/traced, so the per-layer numbers come from traced
units and ``obs.trace_overhead_s`` compares the two kinds. Each unit's
outputs are validated; a failed check counts as a failed operation.

Every reported time is in normalised seconds (``hostspeed``): the
wall time of the span divided by the host's speed factor over it.
Layer seconds are divided by the factor of the whole traced unit.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import json
import random
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional

from hostspeed import SpeedProbe
from spans import Recorder, instrument

#: Set-up is timed this often per run; ``setup_s`` is the median. A
#: set-up of a few milliseconds is timed as the mean of a batch, so that
#: one sample holds enough speed probes.
SETUP_SAMPLES = 5
PLAN_SETUP_BATCH = 20
BOUND_SETUP_BATCH = 100

#: Ladder of tail percentiles, in permille; the tail is the highest one
#: with at least ``TAIL_BEYOND`` samples above it.
TAIL_PERMILLE = (750, 900, 950, 990, 999)
TAIL_BEYOND = 10

#: ECO stream length and divergence-checkpoint period. 100 events is the
#: smallest stream whose p90 has ten events beyond it, and fits the budget.
ECO_EVENTS = 100
ECO_CHECKPOINT_EVERY = 25
ECO_KINDS = (
    "move_macro", "add_net", "remove_net",
    "set_sites", "set_capacity", "set_length_limit",
)


@dataclass
class Outcome:
    """What one benchmark run of a workload measured and checked."""

    e2e: Dict[str, float]
    layers: Dict[str, float]
    attempted: int
    failed: int
    signature: str
    wall_ops: List[float]
    notes: Dict[str, object] = field(default_factory=dict)
    report: List[str] = field(default_factory=list)


# --------------------------------------------------------------------- #
# Shared helpers                                                        #
# --------------------------------------------------------------------- #


def percentile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail(values: List[float]):
    """(seconds, percentile): the highest ladder percentile with at least
    ``TAIL_BEYOND`` samples beyond it, or the slowest sample (1.0) when
    there are too few samples for any."""
    chosen = None
    for permille in TAIL_PERMILLE:
        if len(values) * (1000 - permille) >= TAIL_BEYOND * 1000:
            chosen = permille / 1000
    if chosen is None:
        return max(values), 1.0
    return percentile(values, chosen), chosen


def _span(recorder: Optional[Recorder], name: str):
    return recorder.span(name) if recorder is not None else contextlib.nullcontext()


def _median_by_key(rows: List[Dict[str, float]]) -> Dict[str, float]:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def run_units(seconds: float, trace: bool, unit: Callable[[bool], dict]) -> List[dict]:
    """Run units until the next one would overrun ``seconds``.

    A traced run alternates untraced and traced units and always runs at
    least one of each.
    """
    results: List[dict] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(results) % 2 == 1
        results.append(unit(traced))
        elapsed = time.perf_counter() - start
        if trace and len(results) < 2:
            continue
        if elapsed + elapsed / len(results) > seconds:
            return results


def _layer_metrics(results: List[dict]) -> Dict[str, float]:
    traced = [r["layers"] for r in results if r["traced"]]
    return _median_by_key(traced) if traced else {}


def _overhead(results: List[dict], key: str) -> float:
    traced = [r[key] for r in results if r["traced"]]
    plain = [r[key] for r in results if not r["traced"]]
    return statistics.median(traced) - statistics.median(plain)


def _signatures(results: List[dict]) -> tuple:
    """(signature, mismatches): every unit of a run must agree."""
    first = results[0]["signature"]
    return first, sum(1 for r in results if r["signature"] != first)


def _mean_seconds(probe: SpeedProbe, fn: Callable[[], object], repeats: int) -> float:
    start = time.perf_counter()
    for _ in range(repeats):
        fn()
    return probe.seconds(start, time.perf_counter()) / repeats


def _normalize_layers(layers: Dict[str, float], factor: float) -> Dict[str, float]:
    """Layer seconds (``*_s``) and rates (``*_per_s``) at the reference speed."""
    out = {}
    for name, value in layers.items():
        if name.endswith("_per_s"):
            value *= factor
        elif name.endswith("_s"):
            value /= factor
        out[name] = value
    return out


def _end_to_end(ops: List[float], time_setup: Callable[[], float]):
    """(end-to-end metrics, tail percentile) from the untraced operation
    seconds ``ops`` and ``SETUP_SAMPLES`` set-up timings."""
    setup = [time_setup() for _ in range(SETUP_SAMPLES)]
    tail_s, tail_q = tail(ops)
    return {
        "setup_s": statistics.median(setup),
        "op_p50_s": statistics.median(ops),
        "op_tail_s": tail_s,
    }, tail_q


# --------------------------------------------------------------------- #
# plan-ami49: one full four-stage RABID plan                            #
# --------------------------------------------------------------------- #


def plan_signature(routes, graph, failed) -> str:
    """SHA-256 over every net's wires and buffers, ``b(v)`` and the fails."""
    digest = hashlib.sha256()
    for name in sorted(routes):
        tree = routes[name]
        wires = sorted(sorted(edge) for edge in tree.edges())
        buffers = [
            [spec.tile, spec.drives_child, spec.kind] for spec in tree.buffer_specs()
        ]
        digest.update(json.dumps([name, wires, buffers]).encode())
    digest.update(graph.used_sites.tobytes())
    digest.update(json.dumps(sorted(failed)).encode())
    return digest.hexdigest()


def validate_plan(graph, netlist, config, result) -> List[str]:
    """The plan checks; returns one line per violated check."""
    from repro.core.length_rule import net_meets_length_rule

    problems: List[str] = []
    wires: Counter = Counter()
    used = graph.used_sites * 0
    for net in netlist:
        tree = result.routes[net.name]
        source = graph.tile_of(net.source.location)
        sinks = {graph.tile_of(p) for p in net.sink_locations()}
        reached = {tree.source}
        for parent, child in tree.edges():
            if parent in reached:
                reached.add(child)
            canonical = (min(parent, child), max(parent, child))
            wires[canonical] += 1
        if tree.source != source or not sinks <= reached or reached != set(tree.nodes):
            problems.append(f"{net.name}: tree does not span its source and sinks")
        for spec in tree.buffer_specs():
            used[spec.tile] += 1
    for u, v in graph.edges():
        if graph.wire_usage(u, v) != wires.get((u, v), 0):
            problems.append(f"wire usage on {u}-{v} differs from the routes")
            break
    if (used != graph.used_sites).any():
        problems.append("b(v) differs from the trees' buffer specs")
    if (graph.used_sites > graph.sites).any():
        problems.append("b(v) exceeds B(v)")
    fails = sorted(
        name
        for name, tree in result.routes.items()
        if not net_meets_length_rule(tree, config.limit_for(name))
    )
    if fails != sorted(result.failed_nets):
        problems.append(
            f"length-rule fails {len(fails)} != planner's {len(result.failed_nets)}"
        )
    return problems


def _plan_setup(seed: int, recorder: Optional[Recorder] = None):
    """The Table-I ami49 circuit (generator seed 0) under the ``repro run``
    configuration, its nets handed to the planner in a seeded order."""
    from repro.benchmarks import load_benchmark
    from repro.core.rabid import RabidConfig, RabidPlanner
    from repro.netlist import Netlist

    with _span(recorder, "benchmarks.generate"):
        bench = load_benchmark("ami49", seed=0)
    nets = list(bench.netlist)
    random.Random(seed).shuffle(nets)
    netlist = Netlist()
    for net in nets:
        netlist.add(net)
    config = RabidConfig(length_limit=bench.spec.length_limit, window_margin=10)
    return bench.graph, netlist, config, RabidPlanner(bench.graph, netlist, config)


def _plan_unit(probe: SpeedProbe, seed: int, traced: bool) -> dict:
    recorder = Recorder() if traced else None
    with instrument(recorder) if traced else contextlib.nullcontext():
        graph, netlist, config, planner = _plan_setup(seed, recorder)
        start = time.perf_counter()
        result = planner.run()
        end = time.perf_counter()
    plan_s = probe.seconds(start, end)
    problems = validate_plan(graph, netlist, config, result)
    final = result.final_metrics
    out = {
        "traced": traced,
        "op_s": plan_s,
        "wall_s": end - start,
        "problems": problems,
        "signature": plan_signature(result.routes, graph, result.failed_nets),
        "quality": {
            "core.rabid.fail_nets": final.num_fails,
            "core.rabid.wirelength_mm": final.wirelength_mm,
            "core.rabid.max_delay_ps": final.max_delay_ps,
            "core.rabid.overflows": final.overflows,
            "core.rabid.buffers": final.num_buffers,
        },
    }
    if traced:
        layers = _plan_layers(recorder, end - start, out["quality"])
        out["layers"] = _normalize_layers(layers, probe.factor(start, end))
    return out


def _plan_layers(rec: Recorder, plan_s: float, quality: Dict[str, float]) -> Dict[str, float]:
    counts = rec.counts
    stages = {f"core.rabid.stage{n}_s": rec.seconds(f"core.rabid.stage{n}") for n in (1, 2, 3, 4)}
    optimize_s = rec.seconds("core.two_path.optimize")
    search_calls = rec.calls("core.two_path.search")
    layers = {
        **stages,
        **{
            f"core.rabid.stage{n}_share": stages[f"core.rabid.stage{n}_s"] / plan_s
            for n in (1, 2, 3, 4)
        },
        **quality,
        "core.two_path.optimize_s": optimize_s,
        "core.two_path.optimize_calls": rec.calls("core.two_path.optimize"),
        "core.two_path.optimize_share": optimize_s / max(stages["core.rabid.stage4_s"], 1e-12),
        "core.two_path.changed_ratio": counts["core.two_path.changed"]
        / max(counts["core.two_path.tried"], 1),
        "core.two_path.search_calls": search_calls,
        "core.two_path.search_miss_ratio": counts["core.two_path.search_misses"]
        / max(search_calls, 1),
        "core.assignment.rebuffer_s": rec.seconds("core.assignment.rebuffer"),
        "core.rescue.rescue_s": rec.seconds("core.rescue.rescue"),
        "core.rescue.rescued_ratio": counts["core.rescue.fixed"]
        / max(counts["core.rescue.entering"], 1),
        "timing.elmore.delay_s": rec.seconds("timing.elmore.delay"),
        "timing.elmore.delay_calls": rec.calls("timing.elmore.delay"),
        "benchmarks.generate_s": rec.seconds("benchmarks.generate"),
        "routing.maze.route_s": rec.seconds("routing.maze.route"),
        "routing.maze.route_calls": rec.calls("routing.maze.route"),
    }
    return layers


def plan_ami49(probe: SpeedProbe, seed: int, seconds: float, trace: bool) -> Outcome:
    results = run_units(seconds, trace, lambda traced: _plan_unit(probe, seed, traced))
    plan_times = [r["op_s"] for r in results if not r["traced"]]
    e2e, tail_q = _end_to_end(
        plan_times,
        lambda: _mean_seconds(probe, lambda: _plan_setup(seed), PLAN_SETUP_BATCH),
    )
    signature, mismatches = _signatures(results)
    problems = [p for r in results for p in r["problems"]]
    failed = sum(1 for r in results if r["problems"]) + mismatches
    outcome = Outcome(
        e2e=e2e,
        layers=_layer_metrics(results),
        attempted=len(results),
        failed=failed,
        signature=signature,
        wall_ops=[r["wall_s"] for r in results if not r["traced"]],
        notes={
            "operation": "one full RABID plan (Stages 1-4 + rescue)",
            "samples": len(plan_times),
            "tail_percentile": tail_q,
            "quality": results[0]["quality"],
            "problems": problems[:10],
        },
    )
    if trace:
        outcome.layers["obs.trace_overhead_s"] = _overhead(results, "op_s")
        outcome.report.extend(_plan_accounting(outcome.layers, e2e["op_p50_s"]))
    return outcome


def _plan_accounting(layers: Dict[str, float], untraced_plan_s: float) -> List[str]:
    stage_sum = sum(layers[f"core.rabid.stage{n}_s"] for n in (1, 2, 3, 4))
    lines = ["layer accounting (traced plan-ami49, seconds and share of plan):"]
    for n in (1, 2, 3, 4):
        lines.append(
            f"  core.rabid.stage{n}_s = {layers[f'core.rabid.stage{n}_s']:.3f}"
            f" ({100 * layers[f'core.rabid.stage{n}_share']:.1f}%)"
        )
    lines.append(
        f"  core.two_path.optimize_s = {layers['core.two_path.optimize_s']:.3f}"
        f" ({100 * layers['core.two_path.optimize_share']:.1f}% of stage4_s)"
    )
    lines.append(
        f"  stage spans sum {stage_sum:.3f} s; untraced plan median"
        f" {untraced_plan_s:.3f} s; obs.trace_overhead_s"
        f" {layers['obs.trace_overhead_s']:+.3f} s"
    )
    stage = max((f"core.rabid.stage{n}_s" for n in (1, 2, 3, 4)), key=layers.get)
    inner = max(
        ("core.two_path.optimize_s", "core.assignment.rebuffer_s", "core.rescue.rescue_s"),
        key=layers.get,
    )
    lines.append(f"  dominant layers: {stage}; within Stage 4, {inner}")
    return lines


# --------------------------------------------------------------------- #
# eco-ladder32: a seeded ECO stream through the planning service        #
# --------------------------------------------------------------------- #


async def _eco_setup(seed: int, recorder: Optional[Recorder]):
    """Trace, service and baseline plan; returns (scenario, service, events)."""
    from repro.service import engine, incremental
    from repro.service.jobs import Job, JobStatus
    from repro.service.scheduler import PlanningService, SchedulerOptions
    from repro.workloads import TraceOptions, get_workload, make_trace

    scenario = get_workload("ladder-32").scenario()
    with _span(recorder, "workloads.trace.generate"):
        events = make_trace(
            scenario,
            TraceOptions(events=ECO_EVENTS, seed=seed, checkpoint_every=ECO_CHECKPOINT_EVERY),
        )
    service = PlanningService(
        options=SchedulerOptions(workers=1, max_queue=ECO_EVENTS + 2, job_timeout=600.0),
        full_plan_fn=engine.full_plan,
        replan_fn=incremental.incremental_replan,
    )
    await service.start()
    service.submit(Job(job_id="base", kind="baseline", scenario=scenario))
    base = await service.wait("base")
    if base.status is not JobStatus.DONE:
        await service.stop()
        raise RuntimeError(f"ECO baseline plan failed: {base.error}")
    return scenario, service, events


async def _eco_replay(probe: SpeedProbe, scenario, service, events) -> dict:
    from repro.service import engine
    from repro.service.jobs import Job, JobStatus, apply_delta

    records = []
    checkpoints = []
    busy = 0.0
    folded = scenario
    for event in events:
        job_id = f"ev{event.index:05d}"
        start = time.perf_counter()
        service.submit(Job(job_id=job_id, kind="delta", baseline_id="base", delta=event.delta))
        record = await service.wait(job_id)
        end = time.perf_counter()
        busy += end - start
        result = record.result or {}
        done = record.status is JobStatus.DONE
        records.append({
            "kind": event.kind,
            "done": done,
            "latency": probe.seconds(start, end),
            "wall": end - start,
            "replan": float(result.get("seconds", 0.0)),
            "queue_wait": record.queue_wait,
            "total": int(result.get("nets_total", 0)),
            "replayed": int(result.get("nets_replayed", 0)),
            "rerouted": int(result.get("nets_rerouted", 0)),
            "resolved": int(result.get("nets_resolved", 0)),
            "signature": str(result.get("signature", "")),
        })
        if done:
            folded = apply_delta(folded, event.delta)
        if (event.index + 1) % ECO_CHECKPOINT_EVERY == 0:
            full = engine.full_plan(folded, service.config)
            checkpoints.append(full.signature == records[-1]["signature"])
    return {"records": records, "checkpoints": checkpoints, "busy": busy}


async def _eco_unit(probe: SpeedProbe, seed: int, traced: bool) -> dict:
    recorder = Recorder() if traced else None
    start = time.perf_counter()
    with instrument(recorder) if traced else contextlib.nullcontext():
        scenario, service, events = await _eco_setup(seed, recorder)
        try:
            replay = await _eco_replay(probe, scenario, service, events)
        finally:
            await service.stop()
    end = time.perf_counter()
    records = replay["records"]
    latencies = [r["latency"] for r in records]
    digest = hashlib.sha256(
        ";".join(r["signature"] for r in records).encode()
    ).hexdigest()
    out = {
        "traced": traced,
        "records": records,
        "op_s": statistics.median(latencies),
        "failed_events": sum(1 for r in records if not r["done"]),
        "divergences": sum(1 for match in replay["checkpoints"] if not match),
        "checkpoints": len(replay["checkpoints"]),
        "signature": digest,
    }
    if traced:
        layers = _eco_layers(recorder, records)
        layers["service.scheduler.events_per_s"] = len(records) / replay["busy"]
        out["layers"] = _normalize_layers(layers, probe.factor(start, end))
    return out


def _eco_layers(rec: Recorder, records: List[dict]) -> Dict[str, float]:
    events = len(records)
    replan = "service.incremental.replan"
    layers = {
        "workloads.trace.generate_s": rec.seconds("workloads.trace.generate"),
        "service.engine.full_plan_s": statistics.mean(rec.durations("service.engine.full_plan")),
        "service.engine.buffer_walk_s": rec.seconds("service.engine.buffer_walk", under=replan) / events,
        "routing.maze.route_s": rec.seconds("routing.maze.route", under=replan) / events,
        "routing.maze.route_calls": rec.calls("routing.maze.route", under=replan) / events,
        "service.incremental.replan_s": rec.seconds(replan) / events,
        "service.incremental.nets_rerouted": statistics.mean(r["rerouted"] for r in records),
        "service.incremental.nets_resolved": statistics.mean(r["resolved"] for r in records),
        "service.incremental.replay_ratio": _replay_ratio(records),
        "service.scheduler.queue_wait_s": statistics.mean(r["queue_wait"] for r in records),
        "service.scheduler.overhead_s": statistics.mean(r["wall"] - r["replan"] for r in records),
    }
    for kind in ECO_KINDS:
        mine = [r for r in records if r["kind"] == kind]
        if not mine:
            continue
        latencies = [r["wall"] for r in mine]
        layers[f"service.incremental.{kind}.p50_s"] = statistics.median(latencies)
        layers[f"service.incremental.{kind}.tail_s"] = tail(latencies)[0]
        layers[f"service.incremental.{kind}.replay_ratio"] = _replay_ratio(mine)
    return layers


def _replay_ratio(records: List[dict]) -> float:
    return sum(r["replayed"] for r in records) / max(sum(r["total"] for r in records), 1)


async def _eco_setup_seconds(probe: SpeedProbe, seed: int) -> float:
    start = time.perf_counter()
    _, service, _ = await _eco_setup(seed, None)
    elapsed = probe.seconds(start, time.perf_counter())
    await service.stop()
    return elapsed


def eco_ladder32(probe: SpeedProbe, seed: int, seconds: float, trace: bool) -> Outcome:
    results = run_units(
        seconds, trace, lambda traced: asyncio.run(_eco_unit(probe, seed, traced))
    )
    untraced = [rec for r in results if not r["traced"] for rec in r["records"]]
    latencies = [rec["latency"] for rec in untraced]
    e2e, tail_q = _end_to_end(
        latencies, lambda: asyncio.run(_eco_setup_seconds(probe, seed))
    )
    signature, mismatches = _signatures(results)
    failed = sum(r["failed_events"] + r["divergences"] for r in results) + mismatches
    by_kind = Counter(rec["kind"] for rec in results[0]["records"])
    outcome = Outcome(
        e2e=e2e,
        layers=_layer_metrics(results),
        attempted=sum(len(r["records"]) for r in results),
        failed=failed,
        signature=signature,
        wall_ops=[rec["wall"] for rec in untraced],
        notes={
            "operation": "one ECO event, closed loop, one client, workers=1",
            "samples": len(latencies),
            "tail_percentile": tail_q,
            "checkpoints": sum(r["checkpoints"] for r in results),
            "divergences": sum(r["divergences"] for r in results),
            "events_by_kind": dict(sorted(by_kind.items())),
        },
    )
    if trace:
        outcome.layers["obs.trace_overhead_s"] = _overhead(results, "op_s")
    return outcome


# --------------------------------------------------------------------- #
# bound-ladder32: the GK lower-bound oracle plus certificate check      #
# --------------------------------------------------------------------- #

def _bound_options():
    from repro.bounds import BoundOptions

    # One length-update round: 6,000 pricing calls with the default theta
    # grid and refinement (7,500 at the default four rounds), so one bound
    # fits a run.
    return BoundOptions(epsilon=0.5, iterations=1)


def _bound_setup(seed: int):
    """What ``bound_scenario`` builds before it calls ``compute_bound``,
    plus the graph's flat adjacency the pricer searches."""
    from repro.service.engine import build_graph
    from repro.workloads import get_workload

    scenario = replace(get_workload("ladder-32").scenario(), seed=seed, site_seed=seed)
    nets = scenario.nets()
    graph = build_graph(scenario)
    graph.flat()
    return graph, nets, scenario.limits(sorted(nets))


def _bound_unit(probe: SpeedProbe, seed: int, traced: bool) -> dict:
    from repro.bounds import oracle, verify_certificate

    options = _bound_options()
    recorder = Recorder() if traced else None
    with instrument(recorder) if traced else contextlib.nullcontext():
        graph, nets, limits = _bound_setup(seed)
        start = time.perf_counter()
        result = oracle.compute_bound(graph, nets, limits, options)
        end = time.perf_counter()
        certificate = result.certificate()
        with _span(recorder, "bounds.certificate.verify"):
            report = verify_certificate(
                certificate, graph, nets, limits, window_margin=options.window_margin
            )
    out = {
        "traced": traced,
        "op_s": probe.seconds(start, end),
        "wall_s": end - start,
        "ok": bool(report["ok"]),
        "lower_bound": result.lower_bound,
        "theta": result.theta,
        "signature": hashlib.sha256(
            json.dumps(certificate.to_dict(), sort_keys=True).encode()
        ).hexdigest(),
    }
    if traced:
        compute = "bounds.oracle.compute"
        price_s = recorder.seconds("bounds.pricing.price", under=compute)
        layers = {
            "bounds.pricing.price_s": price_s,
            "bounds.pricing.price_calls": recorder.calls("bounds.pricing.price", under=compute),
            "bounds.oracle.other_s": recorder.seconds(compute) - price_s,
            "bounds.oracle.theta": result.theta,
            "bounds.oracle.lower_bound": result.lower_bound,
            "bounds.oracle.floor_gap": result.lower_bound - result.unconstrained_bound,
            "bounds.certificate.verify_s": recorder.seconds("bounds.certificate.verify"),
        }
        out["layers"] = _normalize_layers(layers, probe.factor(start, end))
    return out


def bound_ladder32(probe: SpeedProbe, seed: int, seconds: float, trace: bool) -> Outcome:
    results = run_units(seconds, trace, lambda traced: _bound_unit(probe, seed, traced))
    bound_times = [r["op_s"] for r in results if not r["traced"]]
    e2e, tail_q = _end_to_end(
        bound_times,
        lambda: _mean_seconds(probe, lambda: _bound_setup(seed), BOUND_SETUP_BATCH),
    )
    signature, mismatches = _signatures(results)
    outcome = Outcome(
        e2e=e2e,
        layers=_layer_metrics(results),
        attempted=len(results),
        failed=sum(1 for r in results if not r["ok"]) + mismatches,
        signature=signature,
        wall_ops=[r["wall_s"] for r in results if not r["traced"]],
        notes={
            "operation": "one GK lower bound (certificate verified outside the timing)",
            "samples": len(bound_times),
            "tail_percentile": tail_q,
            "lower_bound": results[0]["lower_bound"],
            "theta": results[0]["theta"],
        },
    )
    if trace:
        outcome.layers["obs.trace_overhead_s"] = _overhead(results, "op_s")
    return outcome


WORKLOADS = {
    "plan-ami49": plan_ami49,
    "eco-ladder32": eco_ladder32,
    "bound-ladder32": bound_ladder32,
}
