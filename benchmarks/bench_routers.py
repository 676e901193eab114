"""Router ablation: Prim-Dijkstra + rip-up (paper default) versus the
multicommodity-flow alternative the paper cites for Stages 1-2 — plus the
Stage-2 routing-kernel benchmark that feeds ``BENCH_routing.json``.

Both ablation arms feed the identical Stage 3/4 pipeline on the same
instance; compared on congestion, wirelength, buffers, fails, and runtime.
The kernel benchmark reroutes the ISSUE's 32x32 / 500-net workload
(16x16 / 120 nets under ``REPRO_BENCH_FAST=1``) and records the timings
into the committed trajectory next to the pre-flat-kernel baseline.
"""

import json
import os

import pytest

from conftest import FAST, SEED, record_table
from repro.benchmarks import load_benchmark
from repro.benchmarks.routing_kernel import append_entry, run_best_of
from repro.core import RabidConfig, RabidPlanner
from repro.experiments.formatting import render_table

CIRCUIT = "hp"
TRAJECTORY = os.path.join(os.path.dirname(__file__), "BENCH_routing.json")
GOLDEN_KERNEL = os.path.join(
    os.path.dirname(__file__), "..", "tests", "golden",
    "routing_kernel_32x32_seed0.json",
)


def _run(router):
    bench = load_benchmark(CIRCUIT, seed=SEED)
    config = RabidConfig(
        length_limit=bench.spec.length_limit,
        window_margin=10,
        stage4_iterations=1,
        router=router,
    )
    result = RabidPlanner(bench.graph, bench.netlist, config).run()
    return result


@pytest.mark.skipif(FAST, reason="multi-minute ablation skipped in smoke mode")
def test_router_ablation(benchmark):
    def body():
        return {router: _run(router) for router in ("pd", "mcf")}

    results = benchmark.pedantic(body, rounds=1, iterations=1)
    rows = []
    for router, result in sorted(results.items()):
        m = result.final_metrics
        rows.append(
            [
                router,
                f"{m.wire_congestion_max:.2f}",
                f"{m.wire_congestion_avg:.2f}",
                str(m.overflows),
                str(m.num_buffers),
                str(m.num_fails),
                f"{m.wirelength_mm:.0f}",
                f"{m.avg_delay_ps:.0f}",
            ]
        )
    record_table(
        "Ablation: Stage-1/2 router",
        render_table(
            ["router", "wire max", "wire avg", "overflows", "#bufs",
             "#fails", "wirelength", "delay avg"],
            rows,
        ),
    )
    for result in results.values():
        assert result.final_metrics.overflows == 0
    # The MCF start must be competitive: within 20% on wirelength.
    pd = results["pd"].final_metrics
    mcf = results["mcf"].final_metrics
    assert mcf.wirelength_mm <= pd.wirelength_mm * 1.2


def test_routing_kernel_speedup(benchmark):
    """Time the flat-array Stage-2 kernel and record it in the trajectory.

    In the full run (32x32 / 500 nets, seed 0) this also pins the
    acceptance criteria: the routed trees are byte-identical to the
    pre-flat-kernel golden, and the speedup over the committed baseline
    entry holds up (>= 2.5x live floor; the recorded entry is >= 3x —
    comparing a live half-second shot against a number committed from a
    different machine state needs noise headroom).
    """
    holder = {}

    def body():
        kwargs = dict(seed=SEED)
        if FAST:
            kwargs.update(grid=16, num_nets=120)
        holder["scenario"], holder["result"] = run_best_of(
            1 if FAST else 3, **kwargs
        )
        return holder["result"]

    result = benchmark.pedantic(body, rounds=1, iterations=1)
    entry = append_entry(TRAJECTORY, "flat-kernel", result, holder["scenario"])
    record_table(
        "Routing kernel (BENCH_routing.json)",
        render_table(
            ["label", "grid", "nets", "workers", "total s", "speedup"],
            [[
                entry["label"],
                str(entry["params"]["grid"]),
                str(entry["params"]["num_nets"]),
                str(entry["workers"]),
                f"{entry['seconds_total']:.3f}",
                str(entry.get("speedup_vs_baseline", "-")),
            ]],
        ),
    )
    assert result.overflow == 0
    if not FAST and SEED == 0:
        with open(GOLDEN_KERNEL, "r", encoding="utf-8") as fh:
            golden = json.load(fh)
        assert result.signature == golden["signature"]
        assert entry.get("speedup_vs_baseline", 0.0) >= 2.5


@pytest.mark.skipif(
    FAST or os.environ.get("REPRO_BENCH_LARGE") != "1",
    reason="multi-minute 128x128/10k tier; set REPRO_BENCH_LARGE=1",
)
def test_routing_kernel_large_tier(benchmark):
    """Record the 128x128 / 10k-net tier."""
    holder = {}

    # capacity 12: at the default 8 the 10k-net workload cannot reach
    # zero overflow on this grid, and overflow entries are not
    # comparable across router changes.
    kwargs = dict(grid=128, num_nets=10000, capacity=12, seed=SEED)

    def body():
        holder["scenario"], holder["result"] = run_best_of(1, **kwargs)
        return holder["result"]

    result = benchmark.pedantic(body, rounds=1, iterations=1)
    entry = append_entry(
        TRAJECTORY, "flat-kernel-128x128", result, holder["scenario"]
    )
    assert result.overflow == 0
    record_table(
        "Routing kernel 128x128 tier (BENCH_routing.json)",
        render_table(
            ["label", "grid", "nets", "workers", "total s", "speedup"],
            [[
                entry["label"],
                str(entry["params"]["grid"]),
                str(entry["params"]["num_nets"]),
                str(entry["workers"]),
                f"{entry['seconds_total']:.3f}",
                str(entry.get("speedup_vs_baseline", "-")),
            ]],
        ),
    )
