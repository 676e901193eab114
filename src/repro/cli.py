"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``run <circuit>`` — run RABID on one benchmark, print the stage table
  and (optionally) ASCII maps.
* ``table1`` — print the realized Table I.
* ``table2|table3|table4 <circuit>`` — regenerate one circuit's rows.
* ``table5 <circuit>`` — RABID-vs-BBP comparison rows.
* ``list`` — list available benchmarks (``--json`` for machine-readable).
* ``serve`` — run the incremental planning service (JSON-lines
  protocol); ``--workers N`` above 1 shards baselines over N forked
  planner processes.
* ``loadgen`` — drive a seeded open-loop load trace through an
  in-process service and print the throughput/latency report.
* ``submit`` — submit a job to a running service and print the result.
* ``explore`` — sweep resource budgets over a scenario space and report
  the Pareto frontier (see ``docs/EXPLORE.md``); ``--bound gk`` adds a
  certified ``optimality_gap`` per scenario.
* ``bound`` — run the buffered-MCF lower-bound oracle on one scenario
  and print the certified bound (``--compare`` for the gap of the plan
  ``service.engine.full_plan`` builds, ``--cert``/``--verify`` for the
  dual certificate).
* ``workload list|describe|run`` — the named workload tiers: list the
  registry, print one tier's card with its triage verdict, or replay a
  seeded streaming ECO trace against it with divergence checkpoints.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.analysis import buffer_usage_map, wire_congestion_map
from repro.benchmarks import BENCHMARK_SPECS, load_benchmark
from repro.core import RabidConfig, RabidPlanner, StageMetrics
from repro.errors import ConfigurationError, ReproError
from repro.experiments import (
    ExperimentConfig,
    format_table1,
    format_table2,
    format_table3,
    format_table4,
    format_table5,
    run_table1,
    run_table2_circuit,
    run_table3_circuit,
    run_table4_circuit,
    run_table5_circuit,
)
from repro.experiments.formatting import render_table


def _capabilities() -> dict:
    """The pluggable engine registries, for ``--version``/``list --json``."""
    from repro.bounds.oracle import BOUND_MODES
    from repro.technology import LIBRARY_NAMES

    return {
        "bound_modes": list(BOUND_MODES),
        "buffer_libraries": list(LIBRARY_NAMES),
    }


def _version_string(version: str) -> str:
    caps = _capabilities()
    details = "; ".join(
        f"{key}: {', '.join(values)}" for key, values in caps.items()
    )
    return f"%(prog)s {version} ({details})"


def _build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="RABID buffer/wire resource allocation (DAC 2001 reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=_version_string(__version__)
    )
    parser.add_argument("--seed", type=int, default=0, help="benchmark seed")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run RABID on one benchmark")
    run.add_argument("circuit", choices=sorted(BENCHMARK_SPECS))
    run.add_argument(
        "--buffer-library", default="single",
        help="buffer library (single, tech); with more than one kind, "
        "every placed buffer is sized over it",
    )
    run.add_argument("--maps", action="store_true", help="print ASCII maps")
    run.add_argument(
        "--diagnose", action="store_true",
        help="classify why any failing nets miss the length rule",
    )
    run.add_argument("--stage4-iterations", type=int, default=2)
    run.add_argument(
        "--trace", metavar="PATH",
        help="write a JSONL trace (spans, metrics, per-net events) to PATH",
    )
    run.add_argument(
        "--metrics", action="store_true",
        help="print the tracer summary (span tree, counters, event totals)",
    )

    sub.add_parser("table1", help="print Table I")
    for name in ("table2", "table3", "table4", "table5"):
        p = sub.add_parser(name, help=f"regenerate {name} for one circuit")
        p.add_argument("circuit", choices=sorted(BENCHMARK_SPECS))

    list_cmd = sub.add_parser("list", help="list benchmarks")
    list_cmd.add_argument(
        "--json", action="store_true",
        help="emit a JSON array instead of the text table",
    )

    serve = sub.add_parser(
        "serve", help="run the incremental planning service"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0,
        help="listen port (0 picks a free port and prints it)",
    )
    serve.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="planning shards: 1 plans in the service's process, N > 1 "
        "forks N planner processes (signatures are identical either way)",
    )
    serve.add_argument(
        "--max-queue", type=int, default=64,
        help="queued-job cap per tenant before submits shed",
    )
    serve.add_argument(
        "--job-timeout", type=float, default=300.0,
        help="per-job wall-clock budget in seconds",
    )
    serve.add_argument(
        "--verify-fraction", type=float, default=0.05,
        help="fraction of incremental jobs verified against a full re-plan",
    )
    serve.add_argument(
        "--checkpoint-dir", metavar="DIR",
        help="restore baselines from DIR on start; checkpoint on shutdown",
    )
    serve.add_argument(
        "--max-request-bytes", type=int, default=None, metavar="N",
        help="reject request lines longer than N bytes (default 1 MiB)",
    )
    serve.add_argument(
        "--shutdown-deadline", type=float, default=30.0, metavar="S",
        help="seconds to drain in-flight jobs on SIGTERM/SIGINT before "
        "checkpointing and exiting",
    )

    loadgen = sub.add_parser(
        "loadgen",
        help="drive a seeded open-loop load trace through an in-process "
        "service and print the throughput/latency report",
    )
    loadgen.add_argument("--tenants", type=int, default=4)
    loadgen.add_argument("--jobs", type=int, default=60)
    loadgen.add_argument(
        "--rate", type=float, default=20.0,
        help="open-loop arrival rate in jobs/sec across all tenants",
    )
    loadgen.add_argument("--grid", type=int, default=16)
    loadgen.add_argument("--nets", type=int, default=120)
    loadgen.add_argument("--total-sites", type=int, default=600)
    loadgen.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="planning shards (1 = in-process, N > 1 = N forked planners)",
    )
    loadgen.add_argument(
        "--json", action="store_true",
        help="emit the report as JSON instead of the text summary",
    )

    explore = sub.add_parser(
        "explore",
        help="sweep resource budgets and report the Pareto frontier",
    )
    explore.add_argument(
        "--dim", action="append", required=True, metavar="SPEC",
        help="one sweep dimension, repeatable. SPEC is NAME=VALUES where "
        "NAME is total_sites, capacity, length_limit, num_nets, "
        "macroN (values XxY), or region_sites@X0:Y0:X1:Y1 (inclusive "
        "tile rectangle); VALUES is a,b,c or LO:HI[:STEP]",
    )
    explore.add_argument("--grid", type=int, default=16,
                         help="scenario grid size (tiles per side)")
    explore.add_argument("--nets", type=int, default=120)
    explore.add_argument("--capacity", type=int, default=8)
    explore.add_argument("--length-limit", type=int, default=5)
    explore.add_argument("--total-sites", type=int, default=600)
    explore.add_argument("--site-seed", type=int, default=0)
    explore.add_argument(
        "--base-macro", action="append", default=[], metavar="X,Y,W,H",
        help="add a macro to the base scenario (repeatable)",
    )
    explore.add_argument(
        "--sampler", choices=("grid", "random", "bisect"), default="grid",
    )
    explore.add_argument(
        "--samples", type=int, default=32,
        help="sample count for the random (Latin-hypercube) sampler",
    )
    explore.add_argument(
        "--sample-seed", type=int, default=0,
        help="seed for the random sampler's strata permutation",
    )
    explore.add_argument(
        "--bisect-dim", metavar="LABEL",
        help="dimension label the bisect sampler refines",
    )
    explore.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (1 = in-process; results identical)",
    )
    explore.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="per-attempt wall-clock budget for each scenario",
    )
    explore.add_argument(
        "--retries", type=int, default=1,
        help="extra attempts for crashed/timed-out scenarios",
    )
    explore.add_argument(
        "--max-scenarios", type=int, default=None, metavar="N",
        help="evaluate at most N scenarios this invocation (resume later)",
    )
    explore.add_argument(
        "--store", metavar="PATH",
        help="JSONL result store; reuse to resume a killed sweep",
    )
    explore.add_argument(
        "--json", action="store_true",
        help="print the canonical frontier report JSON instead of the table",
    )
    explore.add_argument(
        "--sensitivity", action="store_true",
        help="print one-at-a-time sensitivity per dimension",
    )
    explore.add_argument(
        "--svg", metavar="PATH",
        help="write a budget-vs-outcome scatter SVG",
    )
    explore.add_argument("--svg-x", default="site_budget",
                         help="scatter x metric (default site_budget)")
    explore.add_argument("--svg-y", default="unassigned_nets",
                         help="scatter y metric (default unassigned_nets)")
    explore.add_argument(
        "--metrics", action="store_true",
        help="print the explore.* observability counters",
    )
    explore.add_argument(
        "--bound", default="", metavar="MODE",
        help="run the certified lower-bound oracle per scenario and "
        "report optimality_gap / certified_infeasible (modes: gk)",
    )
    explore.add_argument(
        "--bound-epsilon", type=float, default=0.25,
        help="Garg-Konemann epsilon for the bound oracle",
    )
    explore.add_argument(
        "--triage", default="off",
        choices=("off", "certified", "estimate"),
        help="routability triage gate: prune scenarios the millisecond "
        "estimator certifies (certified) or estimates (estimate) "
        "infeasible before planning them",
    )

    bound = sub.add_parser(
        "bound",
        help="certified buffered-MCF lower bound for one scenario",
    )
    bound.add_argument("--grid", type=int, default=16,
                       help="scenario grid size (tiles per side)")
    bound.add_argument("--nets", type=int, default=120)
    bound.add_argument("--capacity", type=int, default=8)
    bound.add_argument("--length-limit", type=int, default=5)
    bound.add_argument("--total-sites", type=int, default=600)
    bound.add_argument("--site-seed", type=int, default=0)
    bound.add_argument(
        "--mode", default="gk", help="oracle mode (see repro --version)"
    )
    bound.add_argument(
        "--epsilon", type=float, default=0.25,
        help="Garg-Konemann length-update epsilon",
    )
    bound.add_argument(
        "--iterations", type=int, default=4,
        help="length-update rounds",
    )
    bound.add_argument(
        "--triage", action="store_true",
        help="run the millisecond routability triage first; certified "
        "infeasible scenarios skip the pricing escalation entirely",
    )
    bound.add_argument(
        "--compare", action="store_true",
        help="also plan the scenario with full_plan (a maze route plus "
        "the Stage-3 walk, no Stage 2 or 4) and report its optimality "
        "gap against the certified bound",
    )
    bound.add_argument(
        "--cert", metavar="PATH",
        help="write the dual certificate JSON to PATH",
    )
    bound.add_argument(
        "--verify", action="store_true",
        help="independently re-verify the certificate (exit 1 on "
        "failure)",
    )
    bound.add_argument(
        "--json", action="store_true",
        help="emit the report as JSON instead of the text summary",
    )

    submit = sub.add_parser(
        "submit", help="submit a job (JSON file or stdin) to a service"
    )
    submit.add_argument("--host", default="127.0.0.1")
    submit.add_argument("--port", type=int, required=True)
    submit.add_argument(
        "job", nargs="?", default="-",
        help="path to a job JSON file, or - for stdin (default)",
    )
    submit.add_argument(
        "--no-wait", action="store_true",
        help="return after enqueueing instead of waiting for the result",
    )

    workload = sub.add_parser(
        "workload",
        help="named workload tiers: list, describe, or stream an ECO trace",
    )
    workload.add_argument(
        "action", choices=("list", "describe", "run"),
        help="list the registry, print one tier card (with its triage "
        "verdict), or replay a streaming ECO trace against the tier",
    )
    workload.add_argument(
        "--name", metavar="TIER",
        help="workload tier name (required for describe/run)",
    )
    workload.add_argument(
        "--source", choices=("smoke", "ladder", "table1"), default=None,
        help="restrict `list` to one registry source",
    )
    workload.add_argument(
        "--trace-events", type=int, default=100,
        help="streaming trace length (run)",
    )
    workload.add_argument(
        "--trace-seed", type=int, default=0,
        help="ECO event-stream seed (run)",
    )
    workload.add_argument(
        "--checkpoint-every", type=int, default=25,
        help="full re-plan divergence checkpoint period; 0 disables",
    )
    workload.add_argument(
        "--workers", type=int, default=1,
        help="planning shards (1 = in-process, N > 1 = N forked "
        "planners; signature maps are identical either way)",
    )
    workload.add_argument(
        "--job-timeout", type=float, default=600.0,
        help="per-job wall-clock budget handed to the service",
    )
    workload.add_argument(
        "--triage", action="store_true",
        help="triage the tier before replaying; a certified-infeasible "
        "verdict aborts the run (exit 1)",
    )
    workload.add_argument(
        "--json", action="store_true",
        help="print the full TraceReport JSON instead of the summary",
    )
    workload.add_argument(
        "--out", metavar="PATH",
        help="also write the full TraceReport JSON to PATH",
    )
    return parser


def _check_worker_flags(args) -> None:
    """Validate ``--workers`` against the machine.

    Values beyond ``os.cpu_count()`` are *clamped* to it with a clear
    warning on stderr — oversubscribing processes past the core count
    only adds contention, and results are identical at any worker count,
    so degrading to the machine's capacity is always safe. Values below
    1 are left to the library's own validation (exit 2). Library callers
    are unaffected — only the CLI flag is validated.
    """
    cpus = os.cpu_count() or 1
    if args.workers > cpus:
        print(
            f"warning: clamping --workers={args.workers} to {cpus} "
            f"(this machine has {cpus} CPU core(s))",
            file=sys.stderr,
        )
        args.workers = cpus


def _parse_sweep_values(text: str, pairs: bool = False) -> list:
    """``a,b,c`` / ``LO:HI[:STEP]`` value lists (``XxY`` pairs for macros)."""
    values: list = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            if pairs:
                x, _, y = part.partition("x")
                values.append((int(x), int(y)))
            elif ":" in part:
                bits = [int(b) for b in part.split(":")]
                if len(bits) not in (2, 3):
                    raise ValueError(part)
                step = bits[2] if len(bits) == 3 else 1
                values.extend(range(bits[0], bits[1] + 1, step))
            else:
                values.append(int(part))
        except ValueError as exc:
            raise ConfigurationError(
                f"cannot parse sweep value {part!r}"
            ) from exc
    if not values:
        raise ConfigurationError(f"empty sweep value list {text!r}")
    return values


def _parse_dim_spec(spec: str):
    """One ``--dim`` argument -> a :class:`repro.explore.Dimension`."""
    import re

    from repro.explore import Dimension

    name, sep, values_text = spec.partition("=")
    if not sep:
        raise ConfigurationError(
            f"--dim {spec!r} must look like NAME=VALUES"
        )
    name = name.strip()
    macro = re.fullmatch(r"macro(\d+)", name)
    if macro:
        return Dimension(
            "macro_origin",
            _parse_sweep_values(values_text, pairs=True),
            index=int(macro.group(1)),
        )
    region = re.fullmatch(r"region_sites@(\d+):(\d+):(\d+):(\d+)", name)
    if region:
        x0, y0, x1, y1 = (int(g) for g in region.groups())
        if x1 < x0 or y1 < y0:
            raise ConfigurationError(
                f"--dim {spec!r}: empty region rectangle"
            )
        tiles = tuple(
            (x, y)
            for x in range(x0, x1 + 1)
            for y in range(y0, y1 + 1)
        )
        return Dimension(
            "region_sites", _parse_sweep_values(values_text), tiles=tiles
        )
    if name in ("total_sites", "capacity", "length_limit", "num_nets"):
        return Dimension(name, _parse_sweep_values(values_text))
    if name == "buffer_library":
        values = tuple(
            v.strip() for v in values_text.split(",") if v.strip()
        )
        return Dimension("buffer_library", values)
    raise ConfigurationError(
        f"unknown sweep dimension {name!r}; expected total_sites, "
        "capacity, length_limit, num_nets, buffer_library, macroN, or "
        "region_sites@X0:Y0:X1:Y1"
    )


def _cmd_explore(args) -> int:
    from repro.explore import (
        ParameterSpace,
        ResultStore,
        SweepOptions,
        explore_space,
        frontier_report,
        render_frontier_table,
        render_sensitivity,
        report_bytes,
        sensitivity_report,
    )
    from repro.service.jobs import MacroSpec, ScenarioSpec

    macros = []
    for text in args.base_macro:
        try:
            x, y, w, h = (int(v) for v in text.split(","))
        except ValueError as exc:
            raise ConfigurationError(
                f"--base-macro {text!r} must be X,Y,W,H"
            ) from exc
        macros.append(MacroSpec(x, y, w, h))
    base = ScenarioSpec(
        grid=args.grid,
        num_nets=args.nets,
        capacity=args.capacity,
        seed=args.seed,
        length_limit=args.length_limit,
        total_sites=args.total_sites,
        site_seed=args.site_seed,
        macros=tuple(macros),
    )
    space = ParameterSpace(base, tuple(_parse_dim_spec(s) for s in args.dim))
    options = SweepOptions(
        workers=args.workers,
        timeout_s=args.timeout,
        retries=args.retries,
        max_scenarios=args.max_scenarios,
        triage=args.triage,
    )
    tracer = None
    if args.metrics:
        from repro.obs import Tracer

        tracer = Tracer()
    config = None
    if args.bound:
        config = RabidConfig(
            bound=args.bound, bound_epsilon=args.bound_epsilon
        )
    result = explore_space(
        space,
        sampler=args.sampler,
        samples=args.samples,
        seed=args.sample_seed,
        bisect_dim=args.bisect_dim,
        config=config,
        store=ResultStore(args.store),
        options=options,
        tracer=tracer,
    )
    assignments = {
        key: space.assignment(point)
        for point, key in zip(result.points, result.keys)
    }
    report = frontier_report(result.records, assignments)
    if args.json:
        sys.stdout.write(report_bytes(report).decode("utf-8"))
    else:
        print(
            f"space: {space.size} combinations, "
            f"{len(result.points)} sampled, "
            f"{len(result.records)} evaluated in {result.seconds:.2f}s"
        )
        print()
        print(render_frontier_table(report))
    if args.sensitivity:
        print("\nsensitivity (one-at-a-time):")
        print(render_sensitivity(sensitivity_report(result)))
    if result.boundaries is not None and not args.json:
        print(f"\ncheapest feasible {args.bisect_dim} per combination:")
        for combo, value in result.boundaries.items():
            label = " ".join(str(v) for v in combo) or "-"
            print(f"  {label}: {value if value is not None else 'infeasible'}")
    if args.svg:
        from repro.analysis import scatter_svg

        frontier_keys = {e["key"] for e in report["frontier"]}
        points = []
        for row in result.rows():
            if row.get("status") != "ok":
                continue
            points.append(
                {
                    **row,
                    "feasible": row["unassigned_nets"] == 0,
                    "on_frontier": row["key"] in frontier_keys,
                    "label": " ".join(
                        f"{d.label}={v}"
                        for d, v in zip(
                            space.dimensions,
                            result.points[result.keys.index(row["key"])].values,
                        )
                    ),
                }
            )
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(
                scatter_svg(
                    points, x=args.svg_x, y=args.svg_y, title="budget sweep"
                )
            )
        print(f"\nscatter ({args.svg_x} vs {args.svg_y}) -> {args.svg}")
    if tracer is not None:
        print("\ncounters:")
        from repro.obs.report import EXPLORE_COUNTERS, POOL_COUNTERS

        for name in EXPLORE_COUNTERS + POOL_COUNTERS:
            print(f"  {name}: {tracer.metrics.value(name)}")
    evaluated_ok = any(
        r.status == "ok" for r in result.records.values()
    )
    return 0 if evaluated_ok else 1


def _cmd_bound(args) -> int:
    """Run the lower-bound oracle on one generated scenario."""
    import json

    from repro.bounds import (
        BoundOptions,
        bound_scenario,
        save_certificate,
        verify_certificate,
    )
    from repro.service.engine import build_graph
    from repro.service.jobs import ScenarioSpec

    scenario = ScenarioSpec(
        grid=args.grid,
        num_nets=args.nets,
        capacity=args.capacity,
        seed=args.seed,
        length_limit=args.length_limit,
        total_sites=args.total_sites,
        site_seed=args.site_seed,
    )
    options = BoundOptions(
        mode=args.mode, epsilon=args.epsilon, iterations=args.iterations,
        triage=args.triage,
    )
    result = bound_scenario(scenario, options)
    payload = result.summary()
    if args.compare:
        from repro.bounds.gap import plan_surrogate_cost
        from repro.explore.executor import metrics_from_state
        from repro.service.engine import full_plan

        metrics = metrics_from_state(full_plan(scenario))
        plan = plan_surrogate_cost(metrics)
        payload["plan_cost"] = plan
        payload["plan_unassigned_nets"] = metrics["unassigned_nets"]
        if result.lower_bound is not None:
            payload["optimality_gap"] = round(
                (plan - result.lower_bound) / max(result.lower_bound, 1.0),
                6,
            )
    certificate = result.certificate()
    if args.cert:
        save_certificate(certificate, args.cert)
        payload["certificate"] = args.cert
    verify_ok = True
    if args.verify:
        nets = scenario.nets()
        limits = scenario.limits(sorted(nets))
        report = verify_certificate(
            certificate, build_graph(scenario), nets, limits,
            window_margin=options.window_margin,
        )
        verify_ok = bool(report["ok"])
        payload["verify"] = {
            "ok": verify_ok,
            "nets_checked": report.get("nets_checked"),
            "worst_dual_violation": report.get("worst_dual_violation"),
            "derived_bound": report.get("derived_bound"),
        }
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(
            f"bound[{payload['mode']}] eps={payload['epsilon']} "
            f"iters={payload['iterations']}: "
            f"lower_bound={payload['lower_bound']} "
            f"(lambda={payload['lambda_lb']})"
        )
        if payload["certified_infeasible"]:
            print(
                "certified infeasible: "
                f"{payload['infeasible_reason']} "
                f"(structural nets: {len(payload['structural_nets'])})"
            )
        if "plan_cost" in payload:
            gap = payload.get("optimality_gap")
            print(
                f"plan cost {payload['plan_cost']}"
                + (f", optimality gap {gap}" if gap is not None else "")
            )
        if "verify" in payload:
            v = payload["verify"]
            print(
                f"certificate verify: {'ok' if v['ok'] else 'FAILED'} "
                f"({v['nets_checked']} nets, worst dual violation "
                f"{v['worst_dual_violation']})"
            )
        if args.cert:
            print(f"certificate -> {args.cert}")
    return 0 if verify_ok else 1


def _cmd_workload(args) -> int:
    """List workload tiers, describe one, or stream an ECO trace."""
    import json

    from repro.workloads import (
        TraceOptions,
        get_workload,
        list_workloads,
        run_workload_trace,
        triage_scenario,
    )

    if args.action == "list":
        tiers = list_workloads(args.source)
        if args.json:
            print(json.dumps([t.describe() for t in tiers], indent=2))
            return 0
        for t in tiers:
            print(
                f"{t.name:16s} {t.source:6s} {t.grid:4d}x{t.grid:<4d} "
                f"{t.num_nets:6d} nets {t.total_sites:7d} sites  "
                f"{t.description}"
            )
        return 0
    if not args.name:
        raise ConfigurationError(f"workload {args.action} needs --name")
    spec = get_workload(args.name)
    if args.action == "describe":
        card = spec.describe()
        verdict = triage_scenario(spec.scenario())
        card["triage"] = verdict.as_dict()
        if args.json:
            print(json.dumps(card, indent=2, sort_keys=True))
            return 0
        for key, value in card.items():
            if key == "triage":
                continue
            print(f"{key}: {value}")
        print(
            f"triage: {verdict.verdict} "
            f"(site_pressure={verdict.site_pressure:.3f}, "
            f"cut_slack={verdict.cut_slack}, "
            f"{verdict.seconds * 1000:.1f} ms)"
        )
        return 0
    # action == "run": stream a generated ECO trace through the service.
    if args.triage:
        verdict = triage_scenario(spec.scenario())
        if verdict.certified_infeasible:
            print(
                f"triage: {args.name} certified infeasible "
                f"({verdict.infeasible_reason}); not replaying"
            )
            return 1
    options = TraceOptions(
        events=args.trace_events,
        seed=args.trace_seed,
        checkpoint_every=args.checkpoint_every,
        workers=args.workers,
        job_timeout=args.job_timeout,
    )
    report = run_workload_trace(args.name, options)
    payload = report.as_dict()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        pct = report.latency_percentiles()
        speedup = payload["steady_speedup"]
        print(
            f"workload {report.workload}: {report.events} events, "
            f"{report.workers} worker(s), seed {report.seed}"
        )
        print(
            f"  baseline: {report.nets} nets, "
            f"{report.baseline.get('buffers')} buffers, "
            f"{report.baseline.get('seconds_full', 0.0):.2f}s full plan"
        )
        print(
            f"  steady incremental speedup: "
            f"{speedup if speedup is not None else 'n/a'}x; latency "
            f"p50={pct['event_p50']:.3f}s p95={pct['event_p95']:.3f}s "
            f"p99={pct['event_p99']:.3f}s"
        )
        print(
            f"  checkpoints: {len(report.checkpoints)}, "
            f"divergences: {report.divergences}, "
            f"signature digest {report.signature_digest()[:16]}…"
        )
        for kind, row in payload["by_kind"].items():
            searched = row["nets_searched"]
            print(
                f"  {kind}: {row['events']} events, "
                f"p50={row['latency_p50']:.3f}s p95={row['latency_p95']:.3f}s, "
                f"{searched if searched is not None else 'n/a'} nets searched/event"
            )
        if args.out:
            print(f"  report -> {args.out}")
    return 0 if report.divergences == 0 else 1


def _cmd_serve(args) -> int:
    import asyncio
    import contextlib
    import signal

    from repro.core import RabidConfig as _Config
    from repro.service.protocol import ProtocolServer
    from repro.service.scheduler import PlanningService, SchedulerOptions

    service = PlanningService(
        config=_Config(),
        options=SchedulerOptions(
            workers=args.workers,
            max_queue=args.max_queue,
            job_timeout=args.job_timeout,
            verify_fraction=args.verify_fraction,
        ),
    )

    async def _serve() -> None:
        if args.checkpoint_dir and os.path.isdir(args.checkpoint_dir):
            from repro.service.checkpoint import load_service_checkpoints

            loaded = load_service_checkpoints(args.checkpoint_dir, service)
            if loaded:
                print(f"restored baselines: {', '.join(loaded)}", flush=True)
        kwargs = dict(
            checkpoint_dir=args.checkpoint_dir,
            shutdown_deadline=args.shutdown_deadline,
        )
        if args.max_request_bytes is not None:
            kwargs["max_request_bytes"] = args.max_request_bytes
        server = ProtocolServer(service, **kwargs)
        await server.start(args.host, args.port)
        # The one line clients parse to find the port (tests, CI smoke).
        print(f"serving on {args.host}:{server.port}", flush=True)
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError, RuntimeError):
                loop.add_signal_handler(sig, server.request_shutdown)
        await server.serve_until_shutdown()
        report = server.drain_report
        if report is not None and not report.get("drained", True):
            print(
                f"shutdown deadline hit with {report['pending']} "
                "job(s) pending",
                flush=True,
            )

    try:
        asyncio.run(_serve())
    except ReproError as exc:
        # Runtime failure (checkpoint write, worker loss past the retry
        # budget): one line, nonzero exit, no traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_loadgen(args) -> int:
    import asyncio
    import json

    from repro.service.loadgen import (
        LoadgenOptions,
        make_load_trace,
        run_load,
    )
    from repro.service.scheduler import PlanningService, SchedulerOptions

    trace = make_load_trace(
        LoadgenOptions(
            tenants=args.tenants,
            jobs=args.jobs,
            rate=args.rate,
            seed=args.seed,
            grid=args.grid,
            num_nets=args.nets,
            total_sites=args.total_sites,
        )
    )

    async def _drive():
        service = PlanningService(
            options=SchedulerOptions(
                workers=args.workers,
                max_queue=max(64, args.jobs + args.tenants),
            )
        )
        await service.start()
        try:
            return await run_load(service, trace)
        finally:
            await service.stop()

    report = asyncio.run(_drive())
    if args.json:
        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(
            f"{report.jobs_measured} measured jobs over "
            f"{report.wall_seconds:.2f}s -> {report.jobs_per_sec:.2f} jobs/s "
            f"({report.jobs_shed} shed, {report.jobs_failed} failed)"
        )
        print(
            f"latency p50 {report.latency_p50 * 1e3:.1f}ms "
            f"p95 {report.latency_p95 * 1e3:.1f}ms "
            f"p99 {report.latency_p99 * 1e3:.1f}ms; "
            f"queue wait p95 {report.queue_wait_p95 * 1e3:.1f}ms"
        )
        for tenant, stats in report.per_tenant.items():
            print(
                f"  {tenant}: {int(stats['jobs'])} jobs, queue wait p95 "
                f"{stats['queue_wait_p95'] * 1e3:.1f}ms"
            )
    return 0 if report.jobs_failed == 0 else 1


def _cmd_submit(args) -> int:
    import asyncio
    import json

    from repro.service.protocol import request_over_stream

    if args.job == "-":
        payload = sys.stdin.read()
    else:
        with open(args.job, "r", encoding="utf-8") as fh:
            payload = fh.read()
    try:
        job = json.loads(payload)
    except ValueError as exc:
        raise ConfigurationError(f"job is not valid JSON: {exc}") from exc
    requests = [{"op": "submit", "job": job}]
    if not args.no_wait:
        requests.append({"op": "wait", "job_id": job.get("job_id")})
    responses = asyncio.run(
        request_over_stream(args.host, args.port, requests)
    )
    final = responses[-1]
    print(json.dumps(final, indent=2))
    return 0 if final.get("ok") else 1


def _cmd_run(args) -> int:
    if args.trace:
        # Fail before the (multi-second) plan, not at export time.
        try:
            with open(args.trace, "w", encoding="utf-8"):
                pass
        except OSError as exc:
            print(f"error: cannot write trace file: {exc}", file=sys.stderr)
            return 2
    bench = load_benchmark(args.circuit, seed=args.seed)
    config = RabidConfig(
        length_limit=bench.spec.length_limit,
        window_margin=10,
        stage4_iterations=args.stage4_iterations,
        buffer_library=args.buffer_library,
    )
    tracer = None
    if args.trace or args.metrics:
        from repro.obs import Tracer

        tracer = Tracer()
    planner = RabidPlanner(bench.graph, bench.netlist, config, tracer=tracer)
    result = planner.run()
    print(render_table(
        StageMetrics.HEADERS, [m.as_row() for m in result.stage_metrics]
    ))
    if args.maps:
        print("\nwire congestion (per-tile worst edge):")
        print(wire_congestion_map(bench.graph))
        print("\nbuffer usage (X = no sites):")
        print(buffer_usage_map(bench.graph))
    if args.diagnose and result.failed_nets:
        from repro.analysis import diagnose_failures, failure_summary

        diags = diagnose_failures(
            result.routes,
            result.failed_nets,
            bench.graph,
            {n: config.limit_for(n) for n in result.routes},
            blocked=bench.blocked_tiles,
        )
        print("\nfailure diagnosis:")
        for d in diags:
            print(
                f"  {d.net_name}: {d.cause.value} "
                f"({d.violations} gate(s) over-driven, "
                f"{d.tiles_in_blocked_region} tiles in the blocked region)"
            )
        print("  summary:", failure_summary(diags))
    if tracer is not None:
        if args.metrics:
            from repro.obs import render_summary

            print("\n" + render_summary(tracer))
        if args.trace:
            lines = tracer.export_jsonl(args.trace)
            print(f"\ntrace: {lines} records -> {args.trace}")
    return 0


def main(argv: "Optional[List[str]]" = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigurationError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")


def _dispatch(args) -> int:
    if args.seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {args.seed}")
    experiment = ExperimentConfig(seed=args.seed)
    if args.command == "list":
        caps = _capabilities()
        if args.json:
            import json

            # The leading meta row carries the engine registries
            # (bound modes, buffer libraries); benchmark rows
            # follow, all sharing the name/kind/nets/sinks shape.
            rows = [
                {
                    "name": "_capabilities",
                    "kind": "meta",
                    "nets": 0,
                    "sinks": 0,
                    **caps,
                }
            ]
            rows.extend(
                {
                    "name": name,
                    "kind": "random" if spec.is_random else "CBL",
                    "nets": spec.nets,
                    "sinks": spec.sinks,
                }
                for name, spec in sorted(BENCHMARK_SPECS.items())
            )
            print(json.dumps(rows, indent=2))
            return 0
        for name, spec in sorted(BENCHMARK_SPECS.items()):
            kind = "random" if spec.is_random else "CBL"
            print(f"{name:8s} {kind:6s} {spec.nets:5d} nets {spec.sinks:5d} sinks")
        for key, values in caps.items():
            print(f"{key}: {', '.join(values)}")
        return 0
    if args.command == "explore":
        return _cmd_explore(args)
    if args.command == "bound":
        return _cmd_bound(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "workload":
        _check_worker_flags(args)
        return _cmd_workload(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "loadgen":
        return _cmd_loadgen(args)
    if args.command == "submit":
        return _cmd_submit(args)
    if args.command == "table1":
        print(format_table1(run_table1(seed=args.seed)))
        return 0
    if args.command == "table2":
        print(format_table2(run_table2_circuit(args.circuit, experiment)))
        return 0
    if args.command == "table3":
        print(format_table3(run_table3_circuit(args.circuit, experiment)))
        return 0
    if args.command == "table4":
        print(format_table4(run_table4_circuit(args.circuit, experiment)))
        return 0
    if args.command == "table5":
        print(format_table5(run_table5_circuit(args.circuit, experiment)))
        return 0
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
