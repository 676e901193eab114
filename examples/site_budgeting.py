#!/usr/bin/env python3
"""Deciding per-block buffer-site budgets (the paper's Section I-B recipe).

"To help decide the allocation of buffer sites to macros, one could assume
an infinite number of available buffer sites, run a buffer allocation tool
like RABID, and compute the number of buffers inserted in each block.
Then, this number can be used to help determine the actual number of
buffer sites to allocate within the block."

This example runs exactly that flow on the ami33 benchmark: RABID with an
effectively unlimited site supply, then a per-block census of inserted
buffers, turned into a recommended site budget (with 2x headroom).

Run:  python examples/site_budgeting.py
"""

from repro import load_benchmark
from repro.experiments.formatting import render_table
from repro.tilegraph import CHANNELS, block_budgets, unconstrained_site_demand


def main():
    bench = load_benchmark("ami33", seed=0)
    # Replace the budgeted distribution with an effectively infinite one:
    # 50 sites in every tile, including over macro blocks (the "hole in a
    # macro" methodology), then census the buffers each block attracts.
    demand = unconstrained_site_demand(
        bench.graph, bench.floorplan, bench.netlist, bench.spec.length_limit
    )
    print(
        f"Unconstrained run inserted {demand.total} buffers "
        f"({demand.fails} fails)\n"
    )

    budgets = block_budgets(demand, headroom=2.0)
    ranked = sorted(demand.per_block.items(), key=lambda kv: -kv[1])
    rows = []
    for name, count in ranked[:12]:
        if name == CHANNELS:
            area_pct = ""
        else:
            block = bench.floorplan.get(name)
            site_area = budgets[name] * 400e-6  # 400um^2 per site
            area_pct = f"{100 * site_area / block.area:.2f}"
        rows.append([name, str(count), str(budgets[name]), area_pct])

    print(render_table(
        ["block", "buffers used", "recommended sites (2x)", "% of block area"],
        rows,
    ))
    print(
        "\nBlocks that attract many buffers sit under global routes; the "
        "methodology asks their designers to reserve the listed site count. "
        "A block with a demanding array structure can refuse - RABID then "
        "routes around it, as the blocked-region experiments show."
    )


if __name__ == "__main__":
    main()
