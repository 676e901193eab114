"""Design reports."""

import pytest

from repro.analysis import design_report
from repro.core import RabidConfig
from repro.routing.tree import BufferSpec, RouteTree


def _path_tree(tiles, name):
    parent = {b: a for a, b in zip(tiles, tiles[1:])}
    return RouteTree.from_parent_map(tiles[0], parent, [tiles[-1]], net_name=name)


@pytest.fixture
def routes(graph10_sites):
    a = _path_tree([(i, 0) for i in range(8)], "a")
    a.apply_buffers([BufferSpec((3, 0), None)])
    b = _path_tree([(0, 5), (1, 5)], "b")
    for t in (a, b):
        t.add_usage(graph10_sites)
    return {"a": a, "b": b}


@pytest.fixture
def config(tech):
    return RabidConfig(technology=tech, length_limit=4)


class TestDesignReport:
    def test_per_net_rows(self, routes, graph10_sites, config):
        report = design_report(routes, graph10_sites, config)
        assert [n.name for n in report.nets] == ["a", "b"]
        net_a = report.nets[0]
        assert net_a.wirelength_tiles == 7
        assert net_a.num_buffers == 1
        assert net_a.num_sinks == 1
        assert net_a.max_delay_ps > 0

    def test_totals(self, routes, graph10_sites, config):
        report = design_report(routes, graph10_sites, config)
        assert report.metrics.num_buffers == 1
        assert report.metrics.wirelength_mm == pytest.approx(8.0)
        assert report.metrics.overflows == 0

    def test_fails_detected(self, routes, graph10_sites, tech):
        # L=2: net "a" has a 3-then-4 split -> violations.
        report = design_report(
            routes, graph10_sites, RabidConfig(technology=tech, length_limit=2)
        )
        assert "a" in report.failed_nets
        assert "b" not in report.failed_nets

    def test_per_net_limit_applies(self, routes, graph10_sites, tech):
        config = RabidConfig(technology=tech, length_limit=4, length_limits={"a": 2})
        report = design_report(routes, graph10_sites, config)
        assert report.failed_nets == ["a"]
        assert report.metrics.num_fails == 1

    def test_worst_nets_ordering(self, routes, graph10_sites, config):
        report = design_report(routes, graph10_sites, config)
        worst = report.worst_nets(1)
        assert worst[0].name == "a"  # the long one

    def test_avg_weighted_by_sinks(self, routes, graph10_sites, config):
        report = design_report(routes, graph10_sites, config)
        per_sink = [n.max_delay_ps for n in report.nets]  # 1 sink each
        assert report.metrics.avg_delay_ps == pytest.approx(
            sum(per_sink) / 2, rel=1e-6
        )


class TestReportMatchesPlanner:
    """Report figures agree with the planner's own outcome bookkeeping."""

    @pytest.fixture(scope="class")
    def planned(self):
        from repro.service.engine import full_plan
        from repro.service.jobs import ScenarioSpec

        state = full_plan(ScenarioSpec(grid=12, num_nets=30, total_sites=300))
        report = design_report(state.routes, state.graph, state.config)
        return state, report

    def test_net_rows_cover_every_route(self, planned):
        state, report = planned
        assert sorted(n.name for n in report.nets) == sorted(state.routes)

    def test_buffer_totals_match_outcomes(self, planned):
        state, report = planned
        assert report.metrics.num_buffers == sum(
            len(o.specs) for o in state.outcomes.values()
        )
        by_name = {n.name: n for n in report.nets}
        for name, outcome in state.outcomes.items():
            assert by_name[name].num_buffers == len(outcome.specs)

    def test_failed_nets_match_planner(self, planned):
        state, report = planned
        assert sorted(report.failed_nets) == sorted(state.failed_nets)

    def test_explore_metrics_agree_with_report(self, planned):
        from repro.explore import metrics_from_state

        state, report = planned
        metrics = metrics_from_state(state)
        assert metrics["buffers"] == report.metrics.num_buffers
        assert metrics["unassigned_nets"] == len(report.failed_nets)
        assert metrics["wirelength_tiles"] == sum(
            n.wirelength_tiles for n in report.nets
        )
        assert metrics["max_delay_ps"] == pytest.approx(
            max(n.max_delay_ps for n in report.nets), abs=1e-3
        )


def test_tech_plan_delays_use_the_library():
    from repro.service.engine import full_plan
    from repro.service.jobs import ScenarioSpec
    from repro.technology import resolve_library
    from repro.timing.elmore import delay_summary

    state = full_plan(
        ScenarioSpec(grid=12, num_nets=30, total_sites=300, buffer_library="tech")
    )
    report = design_report(state.routes, state.graph, state.config)
    tech = state.config.technology
    max_delay, avg_delay, reports = delay_summary(
        state.routes, state.graph, tech, resolve_library("tech", tech)
    )
    assert report.metrics.max_delay_ps == max_delay * 1e12
    assert report.metrics.avg_delay_ps == avg_delay * 1e12
    for net in report.nets:
        assert net.max_delay_ps == reports[net.name].max_delay * 1e12
