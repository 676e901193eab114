"""Observability regression: a traced full RABID run is well-formed.

Asserts the three contracts the obs layer documents: span nesting is
well-formed (every span closed, stage spans in 1->4 order), counter and
gauge totals reconcile with ``result.stage_metrics``, and the JSONL
export round-trips through ``json.loads``.
"""

import json

import pytest

from repro.core import RabidConfig, RabidPlanner
from repro.geometry import Point, Rect
from repro.netlist import Net, Netlist, Pin
from repro.obs import EVENT_KINDS, Tracer
from repro.tilegraph import CapacityModel, TileGraph


def _design(n=8, size=10, capacity=8, sites_per_tile=2):
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
def traced_run():
    graph, netlist = _design()
    tracer = Tracer()
    planner = RabidPlanner(graph, netlist, RabidConfig(length_limit=4))
    result = planner.run(tracer=tracer)
    return graph, netlist, tracer, result


class TestSpanWellFormedness:
    def test_every_span_closed(self, traced_run):
        _, _, tracer, _ = traced_run
        assert tracer.open_spans == []
        assert all(s.closed for s in tracer.spans)

    def test_stage_spans_in_order(self, traced_run):
        _, _, tracer, _ = traced_run
        stage_names = [
            s.name for s in tracer.spans
            if s.name in ("stage1", "stage2", "stage3", "stage4")
        ]
        assert stage_names == ["stage1", "stage2", "stage3", "stage4"]

    def test_stage_spans_nest_under_run(self, traced_run):
        _, _, tracer, _ = traced_run
        (run_span,) = tracer.spans_named("rabid.run")
        for name in ("stage1", "stage2", "stage3", "stage4"):
            (span,) = tracer.spans_named(name)
            assert span.parent == run_span.index
            assert span.depth == 1

    def test_parent_indices_precede_children(self, traced_run):
        _, _, tracer, _ = traced_run
        for span in tracer.spans:
            if span.parent is not None:
                assert span.parent < span.index
                assert tracer.spans[span.parent].depth == span.depth - 1

    def test_pass_spans_carry_pass_attr(self, traced_run):
        _, _, tracer, _ = traced_run
        passes = tracer.spans_named("stage4.pass")
        assert [s.attrs["pass"] for s in passes] == list(range(len(passes)))

    def test_timing_is_contained(self, traced_run):
        _, _, tracer, _ = traced_run
        (run_span,) = tracer.spans_named("rabid.run")
        for span in tracer.spans:
            if span.parent == run_span.index:
                assert span.start_s >= run_span.start_s
                assert span.end_s <= run_span.end_s


class TestCounterReconciliation:
    def test_gauges_match_stage_metrics(self, traced_run):
        _, _, tracer, result = traced_run
        for m in result.stage_metrics:
            assert tracer.metrics.value(f"stage{m.stage}.overflows") == m.overflows
            assert (
                tracer.metrics.value(f"stage{m.stage}.num_buffers")
                == m.num_buffers
            )
            assert tracer.metrics.value(f"stage{m.stage}.num_fails") == m.num_fails
            assert tracer.metrics.value(
                f"stage{m.stage}.wirelength_mm"
            ) == pytest.approx(m.wirelength_mm)

    def test_cpu_histogram_has_one_sample_per_stage(self, traced_run):
        _, _, tracer, result = traced_run
        hist = tracer.metrics.histogram("stage.cpu_seconds")
        assert hist.count == len(result.stage_metrics) == 4

    def test_nets_routed_counts_the_netlist(self, traced_run):
        _, netlist, tracer, _ = traced_run
        assert tracer.metrics.value("nets_routed") == len(netlist)

    def test_buffer_sites_counter_matches_stage3_metrics(self, traced_run):
        _, _, tracer, result = traced_run
        assert (
            tracer.metrics.value("buffer_sites_used")
            == result.stage_metrics[2].num_buffers
        )

    def test_overflow_gauge_matches_final_stage(self, traced_run):
        _, _, tracer, result = traced_run
        assert (
            tracer.metrics.value("overflow_total")
            == result.stage_metrics[-1].overflows
        )

    def test_stage2_events_pair_up(self, traced_run):
        _, netlist, tracer, _ = traced_run
        stage2 = [e for e in tracer.events if e.stage == "2"]
        ripped = [e for e in stage2 if e.kind == "ripped_up"]
        rerouted = [e for e in stage2 if e.kind == "rerouted"]
        assert len(ripped) == len(rerouted)
        assert len(ripped) % len(netlist) == 0

    def test_stage3_has_one_event_per_net(self, traced_run):
        _, netlist, tracer, _ = traced_run
        stage3 = [e for e in tracer.events if e.stage == "3"]
        assert len(stage3) == len(netlist)
        assert {e.net for e in stage3} == {net.name for net in netlist}


class TestJsonlExport:
    def test_round_trips_through_json_loads(self, traced_run, tmp_path):
        _, _, tracer, _ = traced_run
        path = str(tmp_path / "run.jsonl")
        lines = tracer.export_jsonl(path)
        with open(path) as fh:
            records = [json.loads(line) for line in fh]
        assert len(records) == lines
        assert records == tracer.to_records()

    def test_schema_shape(self, traced_run, tmp_path):
        _, _, tracer, _ = traced_run
        path = str(tmp_path / "run.jsonl")
        tracer.export_jsonl(path)
        with open(path) as fh:
            records = [json.loads(line) for line in fh]
        meta = records[0]
        assert meta["type"] == "meta"
        by_type = {}
        for record in records[1:]:
            by_type.setdefault(record["type"], []).append(record)
        assert len(by_type["span"]) == meta["spans"]
        assert len(by_type["event"]) == meta["events"]
        assert (
            len(by_type["counter"])
            + len(by_type["gauge"])
            + len(by_type["histogram"])
            == meta["metrics"]
        )
        for span in by_type["span"]:
            assert span["end_s"] is not None
        for event in by_type["event"]:
            assert event["kind"] in EVENT_KINDS
            assert isinstance(event["net"], str)
