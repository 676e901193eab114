"""Table II: stage-by-stage RABID results.

For the six CBL circuits the paper prints one row per stage; for the four
random circuits only the final (stage 1-4 cumulative) row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.benchmarks import load_benchmark
from repro.core import RabidPlanner, StageMetrics
from repro.experiments.config import ExperimentConfig, planner_config_for
from repro.experiments.formatting import render_metrics_table


@dataclass(frozen=True)
class Table2Row:
    """One (circuit, stage) row of Table II."""

    circuit: str
    stage: str
    metrics: StageMetrics


def run_table2_circuit(
    name: str,
    experiment: Optional[ExperimentConfig] = None,
    final_only: bool = False,
    tracer=None,
) -> List[Table2Row]:
    """Run RABID on one benchmark, returning per-stage (or final) rows."""
    experiment = experiment or ExperimentConfig()
    bench = load_benchmark(name, seed=experiment.seed)
    planner = RabidPlanner(
        bench.graph, bench.netlist, planner_config_for(bench, experiment),
        tracer=tracer,
    )
    result = planner.run()
    if final_only:
        return [Table2Row(name, "1-4", result.final_metrics)]
    return [
        Table2Row(name, str(m.stage), m) for m in result.stage_metrics
    ]


def format_table2(rows: List[Table2Row]) -> str:
    return render_metrics_table(
        "stage", [(r.circuit, r.stage, r.metrics) for r in rows]
    )
