"""Stage-3 buffering-kernel benchmark feeding ``BENCH_buffering.json``.

Times exactly ``assign_buffers_stage3`` over the ISSUE's 32x32 / 500-net
workload (16x16 / 120 nets under ``REPRO_BENCH_FAST=1``) and records the
unified-engine entry next to the committed pre-solver baseline. It must
stay byte-identical to the pre-change golden capture.
"""

import json
import os

import pytest

from conftest import FAST, SEED, record_table
from repro.benchmarks.buffering_kernel import append_entry, run_best_of
from repro.experiments.formatting import render_table

TRAJECTORY = os.path.join(os.path.dirname(__file__), "BENCH_buffering.json")
GOLDEN_KERNEL = os.path.join(
    os.path.dirname(__file__), "..", "tests", "golden",
    "buffering_kernel_32x32_seed0.json",
)


def _scenario_kwargs():
    kwargs = dict(seed=SEED, site_seed=SEED)
    if FAST:
        kwargs.update(grid=16, num_nets=120, total_sites=600)
    return kwargs


def _record(entry):
    record_table(
        "Buffering kernel (BENCH_buffering.json)",
        render_table(
            ["label", "grid", "nets", "workers", "stage3 s", "speedup"],
            [[
                entry["label"],
                str(entry["params"]["grid"]),
                str(entry["params"]["num_nets"]),
                str(entry["workers"]),
                f"{entry['seconds_stage3']:.4f}",
                str(entry.get("speedup_vs_baseline", "-")),
            ]],
        ),
    )


def test_buffering_kernel_sequential(benchmark):
    """Record the unified-engine sequential arm; pin the golden output."""
    holder = {}

    def body():
        holder["scenario"], holder["result"] = run_best_of(
            1 if FAST else 5, **_scenario_kwargs()
        )
        return holder["result"]

    result = benchmark.pedantic(body, rounds=1, iterations=1)
    entry = append_entry(
        TRAJECTORY, "unified-engine", result, holder["scenario"]
    )
    _record(entry)
    if not FAST and SEED == 0:
        with open(GOLDEN_KERNEL, "r", encoding="utf-8") as fh:
            golden = json.load(fh)
        assert result.signature == golden["signature"]


@pytest.mark.skipif(
    FAST or os.environ.get("REPRO_BENCH_LARGE") != "1",
    reason="multi-minute 128x128/10k tier; set REPRO_BENCH_LARGE=1",
)
def test_buffering_kernel_large_tier(benchmark):
    """Record the 128x128 / 10k-net Stage-3 tier."""
    # capacity 12 matches the routing tier (zero-overflow routes).
    kwargs = dict(
        grid=128, num_nets=10000, capacity=12, total_sites=40000,
        seed=SEED, site_seed=SEED,
    )
    holder = {}

    def body():
        holder["scenario"], holder["result"] = run_best_of(1, **kwargs)
        return holder["result"]

    result = benchmark.pedantic(body, rounds=1, iterations=1)
    entry = append_entry(
        TRAJECTORY, "unified-engine-128x128", result, holder["scenario"]
    )
    _record(entry)
