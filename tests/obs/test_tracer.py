"""Tracer unit behaviour: spans, events, export, and the null tracer."""

import json

import pytest

from repro.errors import ObservabilityError
from repro.obs import (
    EVENT_KINDS,
    NULL_TRACER,
    NullTracer,
    Tracer,
    read_trace,
    render_summary,
)


class TestSpans:
    def test_nesting_and_depth(self):
        t = Tracer()
        with t.span("outer") as outer:
            with t.span("inner", k=1) as inner:
                assert inner.depth == 1
                assert inner.parent == outer.index
        assert all(s.closed for s in t.spans)
        assert t.open_spans == []

    def test_duration_is_monotone_nonnegative(self):
        t = Tracer()
        with t.span("s"):
            pass
        assert t.spans[0].duration_s >= 0.0

    def test_open_span_has_no_duration(self):
        t = Tracer()
        ctx = t.span("s")
        with pytest.raises(ObservabilityError):
            t.spans[0].duration_s
        with ctx:
            pass  # close it via the context protocol

    def test_close_twice_raises(self):
        t = Tracer()
        ctx = t.span("s")
        ctx.__exit__(None, None, None)
        with pytest.raises(ObservabilityError):
            ctx.__exit__(None, None, None)

    def test_out_of_order_close_raises(self):
        t = Tracer()
        outer = t.span("outer")
        t.span("inner")
        with pytest.raises(ObservabilityError):
            outer.__exit__(None, None, None)

    def test_span_closes_on_exception(self):
        t = Tracer()
        with pytest.raises(RuntimeError):
            with t.span("s"):
                raise RuntimeError("boom")
        assert t.spans[0].closed

    def test_spans_named(self):
        t = Tracer()
        with t.span("a"):
            pass
        with t.span("a"):
            pass
        assert len(t.spans_named("a")) == 2


class TestEvents:
    def test_kinds_are_validated(self):
        t = Tracer()
        with pytest.raises(ObservabilityError):
            t.event("exploded", "n0")

    def test_sequence_and_attrs(self):
        t = Tracer()
        t.event("ripped_up", "n0", stage="2", nodes=4)
        e = t.event("rerouted", "n0", stage="2")
        assert e.seq == 1
        assert t.events.by_kind("ripped_up")[0].attrs["nodes"] == 4
        assert t.events.counts_by_kind() == {"ripped_up": 1, "rerouted": 1}

    def test_every_documented_kind_accepted(self):
        t = Tracer()
        for kind in sorted(EVENT_KINDS):
            t.event(kind, "n")
        assert len(t.events) == len(EVENT_KINDS)


class TestExport:
    def test_jsonl_round_trip(self, tmp_path):
        t = Tracer()
        with t.span("stage1"):
            t.count("nets_routed", 3)
            t.event("buffered", "n0", stage="3", buffers=2)
        t.gauge("overflow_total", 0)
        t.observe("stage.cpu_seconds", 0.5)
        path = str(tmp_path / "trace.jsonl")
        lines = t.export_jsonl(path)
        with open(path) as fh:
            raw = [json.loads(line) for line in fh if line.strip()]
        assert len(raw) == lines
        assert raw == t.to_records()
        assert read_trace(path) == raw
        assert raw[0]["type"] == "meta" and raw[0]["version"] == 1

    def test_export_to_file_object(self, tmp_path):
        import io

        t = Tracer()
        t.count("c")
        buf = io.StringIO()
        t.export_jsonl(buf)
        assert json.loads(buf.getvalue().splitlines()[1])["name"] == "c"

    def test_summary_renders(self):
        t = Tracer()
        with t.span("stage1"):
            t.count("nets_routed", 3)
        t.event("failed", "n9", stage="4")
        text = render_summary(t)
        assert "stage1" in text and "nets_routed" in text and "failed" in text

    def test_empty_summary(self):
        assert render_summary(Tracer()) == "(empty trace)"

    def test_summary_sections_text_pinned(self):
        t = Tracer()
        t.count("dp_candidates", 7)
        t.count("explore.scenarios", 2)
        t.count("workload.checkpoints", 3)
        t.count("pool.dispatches", 4)
        t.count("service.jobs_submitted", 5)
        t.observe("service.queue_wait_seconds", 0.25)
        t.event("failed", "n9", stage="4")
        assert render_summary(t) == "\n".join([
            "== metrics ==",
            "counter   dp_candidates = 7",
            "counter   explore.scenarios = 2",
            "counter   pool.dispatches = 4",
            "counter   service.jobs_submitted = 5",
            "histogram service.queue_wait_seconds: n=1 sum=0.25 mean=0.25",
            "counter   workload.checkpoints = 3",
            "== buffering ==",
            "dp_candidates            7",
            "== explore ==",
            "explore.scenarios        2",
            "== workload ==",
            "workload.checkpoints     3",
            "== pool ==",
            "pool.dispatches          4",
            "== service ==",
            "service.jobs_submitted           5",
            "service.queue_wait_seconds       n=1 mean=250.00ms max=250.00ms",
            "== events ==",
            "failed     1",
        ])


class TestNullTracer:
    def test_is_disabled_and_inert(self):
        assert NULL_TRACER.enabled is False
        with NULL_TRACER.span("anything", x=1) as nothing:
            assert nothing is None
        NULL_TRACER.count("c", 5)
        NULL_TRACER.gauge("g", 1)
        NULL_TRACER.observe("h", 1.0)
        assert NULL_TRACER.event("bogus_kind_is_fine", "n") is None

    def test_invariant_check_is_noop(self, graph10):
        NULL_TRACER.check_site_invariants(graph10)

    def test_shared_instance(self):
        assert isinstance(NULL_TRACER, NullTracer)


class TestInvariantChecks:
    def test_detects_negative_usage(self, graph10_sites):
        t = Tracer()
        graph10_sites.used_sites[2, 2] = -1
        with pytest.raises(ObservabilityError, match="negative"):
            t.check_site_invariants(graph10_sites, "unit test")

    def test_detects_oversubscription(self, graph10_sites):
        t = Tracer()
        graph10_sites.used_sites[1, 1] = 99
        with pytest.raises(ObservabilityError, match="B\\(v\\)"):
            t.check_site_invariants(graph10_sites)

    def test_disabled_checks_skip(self, graph10_sites):
        t = Tracer(debug_checks=False)
        graph10_sites.used_sites[1, 1] = 99
        t.check_site_invariants(graph10_sites)  # no raise

    def test_clean_graph_passes(self, graph10_sites):
        Tracer().check_site_invariants(graph10_sites)
