"""Table III: sensitivity to the number of available buffer sites.

Each CBL circuit is run three times with the paper's small/medium/large
site budgets (``BenchmarkSpec.site_variants``); everything else is held at
the Table I configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.benchmarks import BENCHMARK_SPECS, load_benchmark
from repro.core import RabidPlanner, StageMetrics
from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig, planner_config_for
from repro.experiments.formatting import render_metrics_table


@dataclass(frozen=True)
class Table3Row:
    """One (circuit, site budget) row."""

    circuit: str
    buffer_sites: int
    metrics: StageMetrics


def run_table3_circuit(
    name: str,
    experiment: Optional[ExperimentConfig] = None,
    site_budgets: Optional[List[int]] = None,
) -> List[Table3Row]:
    """Run the site-budget sweep for one circuit (final metrics per run)."""
    experiment = experiment or ExperimentConfig()
    spec = BENCHMARK_SPECS.get(name)
    if spec is None:
        raise ConfigurationError(f"unknown benchmark {name!r}")
    budgets = site_budgets or list(spec.site_variants)
    if not budgets:
        raise ConfigurationError(f"{name} has no Table III site variants")
    rows: List[Table3Row] = []
    for sites in budgets:
        bench = load_benchmark(name, seed=experiment.seed, total_sites=sites)
        planner = RabidPlanner(
            bench.graph, bench.netlist, planner_config_for(bench, experiment)
        )
        result = planner.run()
        rows.append(Table3Row(name, sites, result.final_metrics))
    return rows


def format_table3(rows: List[Table3Row]) -> str:
    return render_metrics_table(
        "buffer sites", [(r.circuit, str(r.buffer_sites), r.metrics) for r in rows]
    )
