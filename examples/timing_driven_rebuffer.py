#!/usr/bin/env python3
"""Late-flow timing-driven rebuffering (the paper's Section II pointer).

RABID's Stage 3 is length-based on purpose: at the floorplan stage there
are no trustworthy timing constraints. The paper notes that "later in the
design flow, when more accurate timing information is available, one can
rip up the buffering solution for a given net and recompute a potentially
better solution via a timing-driven buffering algorithm."

This example runs that flow end to end:

1. RABID plans wires and buffers for the `hp` benchmark (length-based);
2. the ten worst nets by Elmore delay are ripped and rebuffered with the
   van Ginneken delay-optimal DP, constrained to tiles that still have
   free buffer sites;
3. before/after delays are compared, and the buffers are legalized onto
   concrete site coordinates.

Run:  python examples/timing_driven_rebuffer.py
"""

from repro import RabidConfig, RabidPlanner, TECH_180NM, load_benchmark
from repro.analysis import design_report
from repro.experiments.formatting import render_table
from repro.tilegraph import SitePlacement, legalize_buffers
from repro.timing import net_delay, rebuffer_net_timing_driven


def main():
    bench = load_benchmark("hp", seed=0)
    config = RabidConfig(
        length_limit=bench.spec.length_limit,
        window_margin=10,
        stage4_iterations=1,
    )
    result = RabidPlanner(bench.graph, bench.netlist, config).run()
    report = design_report(result.routes, bench.graph, config)
    worst = report.worst_nets(10)

    rows = []
    for net in worst:
        tree = result.routes[net.name]
        before = net_delay(tree, bench.graph, TECH_180NM).max_delay
        after = rebuffer_net_timing_driven(tree, bench.graph, TECH_180NM)
        rows.append(
            [
                net.name,
                f"{before * 1e12:.0f}",
                f"{after * 1e12:.0f}",
                f"{100 * (before - after) / before:.1f}%",
                str(tree.buffer_count()),
            ]
        )

    print("Timing-driven rebuffering of the 10 worst nets:\n")
    print(render_table(
        ["net", "length-based (ps)", "timing-driven (ps)", "gain", "#bufs"],
        rows,
    ))

    placement = SitePlacement(bench.graph, seed=0)
    placed = legalize_buffers(result.routes, placement)
    print(
        f"\nLegalized {len(placed)} buffers onto concrete site coordinates; "
        f"first three:"
    )
    for p in placed[:3]:
        print(f"  net {p.net_name}: tile {p.tile} -> "
              f"({p.location.x:.2f}, {p.location.y:.2f}) mm")


if __name__ == "__main__":
    main()
