"""Streaming ECO traces: generation determinism, replay, divergence."""

import pytest

from repro.errors import ConfigurationError
from repro.obs import Tracer
from repro.service.jobs import apply_delta
from repro.workloads import (
    EVENT_MIX,
    TraceOptions,
    get_workload,
    make_trace,
    replay_trace,
    run_workload_trace,
)

SCENARIO = get_workload("smoke-16").scenario()


class TestOptions:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TraceOptions(events=0)
        with pytest.raises(ConfigurationError):
            TraceOptions(checkpoint_every=-1)
        with pytest.raises(ConfigurationError):
            TraceOptions(workers=0)
        with pytest.raises(ConfigurationError):
            TraceOptions(job_timeout=0.0)


class TestGeneration:
    def test_deterministic_for_seed(self):
        a = make_trace(SCENARIO, TraceOptions(events=60, seed=3))
        b = make_trace(SCENARIO, TraceOptions(events=60, seed=3))
        assert [(e.kind, e.delta) for e in a] == [
            (e.kind, e.delta) for e in b
        ]

    def test_seed_changes_stream(self):
        a = make_trace(SCENARIO, TraceOptions(events=60, seed=0))
        b = make_trace(SCENARIO, TraceOptions(events=60, seed=1))
        assert [(e.kind, e.delta) for e in a] != [
            (e.kind, e.delta) for e in b
        ]

    def test_every_event_folds_cleanly(self):
        folded = SCENARIO
        for event in make_trace(SCENARIO, TraceOptions(events=80, seed=2)):
            folded = apply_delta(folded, event.delta)
        assert folded.grid == SCENARIO.grid

    def test_only_known_kinds(self):
        kinds = {k for k, _ in EVENT_MIX}
        trace = make_trace(SCENARIO, TraceOptions(events=80, seed=5))
        assert {e.kind for e in trace} <= kinds

    def test_eco_net_names_sort_after_generated(self):
        """The locality contract: ECO nets append to the walk order."""
        trace = make_trace(SCENARIO, TraceOptions(events=80, seed=0))
        for event in trace:
            for op in event.delta.ops:
                if op.kind == "add_net":
                    assert op.args["name"] > f"net{SCENARIO.num_nets}"


class TestReplay:
    def test_short_replay_report(self):
        tracer = Tracer()
        report = replay_trace(
            SCENARIO,
            make_trace(SCENARIO, TraceOptions(events=10, seed=0)),
            TraceOptions(events=10, seed=0, checkpoint_every=5),
            tracer=tracer,
            workload="smoke-16",
        )
        assert len(report.event_records) == 10
        assert all(r.signature for r in report.event_records)
        assert len(report.checkpoints) == 2
        assert report.divergences == 0
        assert tracer.metrics.counter("workload.trace_events").value == 10
        assert tracer.metrics.counter("workload.checkpoints").value == 2
        d = report.as_dict()
        for key in (
            "steady_speedup", "event_p95", "signature_digest",
            "events_by_kind", "checkpoints",
        ):
            assert key in d

    def test_by_kind_covers_every_event(self):
        report = run_workload_trace(
            "smoke-16", TraceOptions(events=12, seed=0, checkpoint_every=0)
        )
        by_kind = report.as_dict()["by_kind"]
        assert sum(row["events"] for row in by_kind.values()) == report.events
        assert set(by_kind) == set(report.events_by_kind())
        for row in by_kind.values():
            assert row["latency_p50"] <= row["latency_p95"]
            assert row["nets_searched"] is not None

    def test_signature_map_deterministic(self):
        """Same seed + worker count => byte-identical signature map."""
        options = TraceOptions(events=12, seed=4, checkpoint_every=0)
        first = run_workload_trace("smoke-16", options)
        second = run_workload_trace("smoke-16", options)
        assert first.signature_map == second.signature_map
        assert first.signature_digest() == second.signature_digest()

    @pytest.mark.slow
    def test_100_event_trace_never_diverges(self):
        """Satellite contract: checkpoint signatures match full re-plan
        across a 100-event trace."""
        report = run_workload_trace(
            "smoke-16",
            TraceOptions(events=100, seed=0, checkpoint_every=25),
        )
        assert len(report.checkpoints) == 4
        assert report.divergences == 0
        for checkpoint in report.checkpoints:
            assert checkpoint.signature_incremental == (
                checkpoint.signature_full
            )
            assert checkpoint.cost_delta == 0

    @pytest.mark.slow
    def test_fleet_replay_matches_inline(self):
        """Worker count never changes the signature map."""
        inline = run_workload_trace(
            "smoke-16", TraceOptions(events=16, seed=2, checkpoint_every=8)
        )
        fleet = run_workload_trace(
            "smoke-16",
            TraceOptions(events=16, seed=2, checkpoint_every=8, workers=2),
        )
        assert fleet.signature_map == inline.signature_map
        assert fleet.divergences == 0
