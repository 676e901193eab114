"""Golden comparisons: sequential runs must match pre-flat-kernel output.

The routing-kernel goldens were captured with the object-graph router
*before* the flat-array kernel landed, and the planner goldens before
Stage 4 moved to the flat buffered-path kernel. ``workers=1`` runs are
required to be byte-identical to them — routed trees, buffer placements,
and site assignments — so these tests pin the acceptance criterion
"sequential runs produce output identical to pre-change output".
"""

import json
import os

import pytest

from repro.benchmarks.routing_kernel import (
    make_routing_scenario,
    routes_as_json,
    run_routing_kernel,
)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "..", "golden")


def load_golden(name):
    with open(os.path.join(GOLDEN_DIR, name), "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestRoutingKernelGolden:
    def test_sequential_kernel_matches_golden(self):
        golden = load_golden("routing_kernel_32x32_seed0.json")
        spec = golden["scenario"]
        scenario = make_routing_scenario(
            grid=spec["grid"],
            num_nets=spec["num_nets"],
            capacity=spec["capacity"],
            seed=spec["seed"],
        )
        result = run_routing_kernel(
            scenario,
            passes=spec["passes"],
            radius_weight=spec["radius_weight"],
            window_margin=spec["window_margin"],
            workers=1,
        )
        assert result.signature == golden["signature"]
        assert result.wirelength_tiles == golden["wirelength_tiles"]
        assert result.overflow == golden["overflow"]

    def test_per_net_edges_match_golden(self):
        """Not just the hash: compare the actual edge lists, so a failure
        names the first differing net instead of two signatures."""
        golden = load_golden("routing_kernel_32x32_seed0.json")
        spec = golden["scenario"]
        scenario = make_routing_scenario(
            grid=spec["grid"],
            num_nets=spec["num_nets"],
            capacity=spec["capacity"],
            seed=spec["seed"],
        )
        result = run_routing_kernel(
            scenario,
            passes=spec["passes"],
            radius_weight=spec["radius_weight"],
            window_margin=spec["window_margin"],
        )
        got = routes_as_json(result.routes)
        want = {
            name: [[list(e[0]), list(e[1])] for e in edges]
            for name, edges in golden["routes"].items()
        }
        assert set(got) == set(want)
        for name in sorted(want):
            assert got[name] == want[name], f"net {name} routed differently"


def assert_planner_matches_golden(name):
    """Re-plan the golden's circuit under the ``repro run`` configuration
    (``window_margin=10``, rescue on) and compare routes, buffers,
    ``b(v)``, fails and overflows with the recorded plan."""
    from repro.benchmarks import load_benchmark
    from repro.core import RabidConfig, RabidPlanner

    golden = load_golden(name)
    bench = load_benchmark(golden["circuit"], seed=golden["seed"])
    config = RabidConfig(
        length_limit=bench.spec.length_limit,
        window_margin=10,
        stage4_iterations=golden["stage4_iterations"],
    )
    result = RabidPlanner(bench.graph, bench.netlist, config).run()

    routes = {
        name: sorted(
            [list(min(u, v)), list(max(u, v))] for u, v in tree.edges()
        )
        for name, tree in result.routes.items()
    }
    want_routes = {
        name: [[list(e[0]), list(e[1])] for e in edges]
        for name, edges in golden["routes"].items()
    }
    assert routes == want_routes

    buffers = {
        name: [
            [list(s.tile), list(s.drives_child) if s.drives_child else None]
            for s in tree.buffer_specs()
        ]
        for name, tree in result.routes.items()
    }
    want_buffers = {
        name: [
            [list(b[0]), list(b[1]) if b[1] is not None else None]
            for b in specs
        ]
        for name, specs in golden["buffers"].items()
    }
    assert buffers == want_buffers
    assert bench.graph.used_sites.tolist() == golden["used_sites"]
    assert sorted(result.failed_nets) == sorted(golden["failed_nets"])
    assert result.final_metrics.overflows == golden["overflows"]


@pytest.mark.slow
class TestPlannerGolden:
    def test_apte_planner_matches_golden(self):
        assert_planner_matches_golden("planner_apte_seed0.json")

    def test_ami49_planner_matches_golden(self):
        """A larger Stage-4 golden: ami49 with both Stage-4 passes and the
        rescue pass, recorded before Stage 4 moved to the flat kernel."""
        assert_planner_matches_golden("planner_ami49_seed0.json")
