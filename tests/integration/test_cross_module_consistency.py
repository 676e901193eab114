"""Cross-module consistency: planner metrics vs. independent measurement.

The planner's StageMetrics snapshots and the analysis package's
design_report both measure through ``measure_plan``; its figures must
agree with the per-net rows, the planner's own fail list, and the graph's
bookings.
"""

import pytest

from repro import RabidConfig, RabidPlanner, design_report, load_benchmark
from repro.tilegraph import buffer_density_stats, wire_congestion_stats


@pytest.fixture(scope="module")
def planned():
    bench = load_benchmark("hp", seed=0)
    config = RabidConfig(
        length_limit=bench.spec.length_limit,
        window_margin=10,
        stage4_iterations=1,
    )
    result = RabidPlanner(bench.graph, bench.netlist, config).run()
    report = design_report(result.routes, bench.graph, config)
    return bench, result, report


class TestConsistency:
    def test_buffer_totals_agree(self, planned):
        bench, result, report = planned
        assert report.metrics.num_buffers == result.final_metrics.num_buffers
        assert report.metrics.num_buffers == bench.graph.total_used_sites

    def test_fail_lists_agree(self, planned):
        _, result, report = planned
        assert sorted(report.failed_nets) == sorted(result.failed_nets)
        assert len(report.failed_nets) == result.final_metrics.num_fails

    def test_wirelength_agrees(self, planned):
        _, result, report = planned
        assert report.metrics.wirelength_mm == pytest.approx(
            result.final_metrics.wirelength_mm
        )
        assert sum(n.wirelength_mm for n in report.nets) == pytest.approx(
            report.metrics.wirelength_mm
        )

    def test_congestion_agrees(self, planned):
        bench, result, report = planned
        wire = wire_congestion_stats(bench.graph)
        assert report.metrics.wire_congestion_max == pytest.approx(
            result.final_metrics.wire_congestion_max
        )
        assert report.metrics.overflows == wire.overflow == result.final_metrics.overflows

    def test_buffer_density_agrees(self, planned):
        bench, result, report = planned
        stats = buffer_density_stats(bench.graph)
        assert report.metrics.buffer_density_max == pytest.approx(stats.maximum)
        assert report.metrics.buffer_density_avg == pytest.approx(
            result.final_metrics.buffer_density_avg
        )

    def test_delays_agree(self, planned):
        _, result, report = planned
        assert report.metrics.max_delay_ps == pytest.approx(
            result.final_metrics.max_delay_ps
        )
        assert report.metrics.avg_delay_ps == pytest.approx(
            result.final_metrics.avg_delay_ps
        )
        assert max(n.max_delay_ps for n in report.nets) == pytest.approx(
            report.metrics.max_delay_ps
        )

    def test_per_net_buffers_sum_to_total(self, planned):
        _, result, report = planned
        assert sum(n.num_buffers for n in report.nets) == report.metrics.num_buffers
