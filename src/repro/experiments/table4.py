"""Table IV: sensitivity to grid size (apte, ami49, playout).

The buffer-site budget is held at the Table I value while the tiling is
swept from ~10x10 to ~50x55. Wire capacities rescale with the tile side
(see :meth:`BenchmarkSpec.scaled_wire_capacity`), since halving a tile
halves the routing tracks its boundary carries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.benchmarks import BENCHMARK_SPECS, load_benchmark
from repro.core import RabidPlanner, StageMetrics
from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig, planner_config_for
from repro.experiments.formatting import render_metrics_table


@dataclass(frozen=True)
class Table4Row:
    """One (circuit, grid) row."""

    circuit: str
    grid: Tuple[int, int]
    metrics: StageMetrics


def run_table4_circuit(
    name: str,
    experiment: Optional[ExperimentConfig] = None,
    grids: Optional[List[Tuple[int, int]]] = None,
) -> List[Table4Row]:
    """Run the grid sweep for one circuit (final metrics per run)."""
    experiment = experiment or ExperimentConfig()
    spec = BENCHMARK_SPECS.get(name)
    if spec is None:
        raise ConfigurationError(f"unknown benchmark {name!r}")
    sweep = grids or list(spec.grid_variants)
    if not sweep:
        raise ConfigurationError(f"{name} has no Table IV grid variants")
    rows: List[Table4Row] = []
    for grid in sweep:
        bench = load_benchmark(name, seed=experiment.seed, grid=grid)
        planner = RabidPlanner(
            bench.graph, bench.netlist, planner_config_for(bench, experiment)
        )
        result = planner.run()
        rows.append(Table4Row(name, grid, result.final_metrics))
    return rows


def format_table4(rows: List[Table4Row]) -> str:
    return render_metrics_table(
        "grid", [(r.circuit, f"{r.grid[0]}x{r.grid[1]}", r.metrics) for r in rows]
    )
