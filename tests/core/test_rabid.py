"""End-to-end RabidPlanner behaviour on small synthetic designs."""

import pytest

from repro.core import RabidConfig, RabidPlanner
from repro.errors import ConfigurationError
from repro.geometry import Point, Rect
from repro.netlist import Net, Netlist, Pin
from repro.tilegraph import (
    CapacityModel,
    TileGraph,
    buffer_density_stats,
    wire_congestion_stats,
)
from repro.core.length_rule import net_meets_length_rule


def _design(capacity=6, sites_per_tile=2, n=12, size=12):
    die = Rect(0, 0, float(size), float(size))
    graph = TileGraph(die, size, size, CapacityModel.uniform(capacity))
    for tile in graph.tiles():
        graph.set_sites(tile, sites_per_tile)
    nets = []
    for i in range(n):
        y = 0.5 + (i % size)
        nets.append(
            Net(
                name=f"n{i}",
                source=Pin(f"n{i}.s", Point(0.5, y)),
                sinks=[
                    Pin(f"n{i}.a", Point(size - 0.5, y)),
                    Pin(f"n{i}.b", Point(size / 2, (y + size / 2) % size)),
                ],
            )
        )
    return graph, Netlist(nets=nets)


@pytest.fixture(scope="module")
def planned():
    graph, netlist = _design()
    planner = RabidPlanner(graph, netlist, RabidConfig(length_limit=4))
    result = planner.run()
    return graph, netlist, planner, result


class TestPlannerRun:
    def test_four_stage_metrics(self, planned):
        _, _, _, result = planned
        assert [m.stage for m in result.stage_metrics] == [1, 2, 3, 4]

    def test_all_nets_routed(self, planned):
        graph, netlist, _, result = planned
        assert set(result.routes) == {n.name for n in netlist}
        for net in netlist:
            tree = result.routes[net.name]
            tree.validate()
            assert tree.source == graph.tile_of(net.source.location)
            expected = sorted({graph.tile_of(p) for p in net.sink_locations()})
            assert tree.sink_tiles == expected

    def test_wire_congestion_satisfied(self, planned):
        graph, _, _, result = planned
        assert wire_congestion_stats(graph).overflow == 0
        assert result.final_metrics.overflows == 0

    def test_buffer_capacity_never_violated(self, planned):
        graph, _, _, _ = planned
        stats = buffer_density_stats(graph)
        assert stats.overflow == 0
        assert stats.maximum <= 1.0

    def test_usage_matches_routes(self, planned):
        graph, _, _, result = planned
        h, v = graph.h_usage.copy(), graph.v_usage.copy()
        used = graph.used_sites.copy()
        graph.h_usage[:] = 0
        graph.v_usage[:] = 0
        graph.used_sites[:] = 0
        for tree in result.routes.values():
            tree.add_usage(graph)
        assert (graph.h_usage == h).all()
        assert (graph.v_usage == v).all()
        assert (graph.used_sites == used).all()

    def test_length_rule_on_all_nonfailed_nets(self, planned):
        _, _, planner, result = planned
        for name, tree in result.routes.items():
            if name not in result.failed_nets:
                assert net_meets_length_rule(tree, 4), name

    def test_delay_improves_with_buffers(self, planned):
        _, _, _, result = planned
        stage2 = result.stage_metrics[1]
        stage3 = result.stage_metrics[2]
        assert stage3.avg_delay_ps < stage2.avg_delay_ps

    def test_fails_non_increasing_3_to_4(self, planned):
        _, _, _, result = planned
        assert result.stage_metrics[3].num_fails <= result.stage_metrics[2].num_fails


class TestPlannerConfig:
    def test_empty_netlist_rejected(self, graph10):
        with pytest.raises(ConfigurationError):
            RabidPlanner(graph10, Netlist())

    def test_per_net_length_override(self):
        cfg = RabidConfig(length_limit=5, length_limits={"special": 2})
        assert cfg.limit_for("special") == 2
        assert cfg.limit_for("other") == 5

    def test_final_metrics_requires_run(self):
        from repro.core import RabidResult

        with pytest.raises(ConfigurationError):
            RabidResult(routes={}, stage_metrics=[], failed_nets=[]).final_metrics

    def test_metrics_row_format(self, planned):
        _, _, _, result = planned
        row = result.final_metrics.as_row()
        assert len(row) == 12
        assert row[0] == "4"


class TestMeasurePlan:
    def test_final_snapshot_is_measure_plan(self, planned):
        from repro.core import measure_plan

        graph, _, planner, result = planned
        final = result.final_metrics
        assert measure_plan(
            result.routes, graph, planner.config, 4, final.cpu_seconds
        ) == final
        assert final.num_buffers == graph.total_used_sites

    def test_multi_type_tech_delays_use_the_library(self):
        from repro.benchmarks import load_benchmark
        from repro.technology import resolve_library
        from repro.timing.elmore import delay_summary

        bench = load_benchmark("apte", seed=0)
        config = RabidConfig(
            length_limit=bench.spec.length_limit,
            window_margin=10,
            buffer_library="tech",
        )
        result = RabidPlanner(bench.graph, bench.netlist, config).run()
        tech = config.technology
        max_delay, avg_delay, _ = delay_summary(
            result.routes, bench.graph, tech, resolve_library("tech", tech)
        )
        final = result.final_metrics
        assert final.max_delay_ps == max_delay * 1e12
        assert final.avg_delay_ps == avg_delay * 1e12
        assert final.num_buffers == bench.graph.total_used_sites


class TestStagesIndividually:
    def test_stage1_routes_and_usage(self):
        graph, netlist = _design(n=4)
        planner = RabidPlanner(graph, netlist, RabidConfig(length_limit=4))
        planner.stage1()
        assert len(planner.routes) == 4
        assert wire_congestion_stats(graph).average > 0

    def test_stage3_without_stage2(self):
        graph, netlist = _design(n=4)
        planner = RabidPlanner(graph, netlist, RabidConfig(length_limit=4))
        planner.stage1()
        planner.stage3()
        assert graph.total_used_sites > 0
