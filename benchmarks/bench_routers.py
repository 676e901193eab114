"""Router ablation: Prim-Dijkstra + rip-up (paper default) versus the
multicommodity-flow alternative the paper cites for Stages 1-2.

Both ablation arms feed the identical Stage 3/4 pipeline on the same
instance; compared on congestion, wirelength, buffers, fails, and runtime.
"""

import pytest

from conftest import FAST, SEED, record_table
from repro.benchmarks import load_benchmark
from repro.core import RabidConfig, RabidPlanner
from repro.experiments.formatting import render_table

CIRCUIT = "hp"


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
