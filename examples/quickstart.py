#!/usr/bin/env python3
"""Quickstart: run RABID on the apte benchmark and read the results.

Loads the synthesized `apte` instance (matching the paper's Table I
statistics), runs the four-stage planner, and prints the stage-by-stage
metrics table (the paper's Table II row block) plus a small ASCII view of
the buffer-site usage across the tile grid.

Run:  python examples/quickstart.py
"""

from repro import RabidConfig, RabidPlanner, StageMetrics, load_benchmark
from repro.experiments.formatting import render_table


def site_usage_map(graph, width=40):
    """ASCII density map: one character per tile column block."""
    chars = " .:-=+*#%@"
    lines = []
    for y in range(graph.ny - 1, -1, -1):
        row = []
        for x in range(graph.nx):
            sites = graph.site_count((x, y))
            used = graph.used_site_count((x, y))
            if sites == 0:
                row.append("X")  # blocked region or site-less tile
            else:
                level = min(9, int(10 * used / sites))
                row.append(chars[level])
        lines.append("".join(row))
    return "\n".join(lines)


def main():
    bench = load_benchmark("apte", seed=0)
    print(f"Loaded {bench.name}: {len(bench.netlist)} nets, "
          f"{bench.netlist.total_sinks} sinks, "
          f"{bench.graph.total_sites} buffer sites on a "
          f"{bench.graph.nx}x{bench.graph.ny} tile grid")

    config = RabidConfig(length_limit=bench.spec.length_limit, window_margin=10)
    planner = RabidPlanner(bench.graph, bench.netlist, config)
    result = planner.run()

    print()
    print(render_table(
        StageMetrics.HEADERS, [m.as_row() for m in result.stage_metrics]
    ))

    final = result.final_metrics
    print()
    print(f"Final: {final.num_buffers} buffers on {len(result.routes)} nets, "
          f"{final.num_fails} nets missing the length rule "
          f"(routes crossing the zero-site blocked region), "
          f"0 wire overflows: {final.overflows == 0}")

    print()
    print("Buffer-site usage per tile ('X' = no sites, denser = fuller):")
    print(site_usage_map(bench.graph))


if __name__ == "__main__":
    main()
