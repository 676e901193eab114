"""The explore triage gate: pruned records, resume, acceptance sweep."""

import pytest

from repro.core.rabid import RabidConfig
from repro.errors import ConfigurationError
from repro.explore import (
    Dimension,
    EvalRecord,
    ParameterSpace,
    ResultStore,
    SweepOptions,
    frontier_report,
    is_feasible,
    render_frontier_table,
    run_sweep,
    scenario_key,
)
from repro.obs import Tracer
from repro.service.jobs import ScenarioSpec

FEASIBLE = ScenarioSpec(grid=12, num_nets=40, capacity=8, total_sites=600)
STARVED = ScenarioSpec(
    grid=12, num_nets=60, capacity=6, total_sites=5, length_limit=2
)


def acceptance_space() -> ParameterSpace:
    """The 64-scenario budget sweep: two 4x4 site regions x 8 values.

    Each dimension overrides ``B(v)`` on a 4x4 tile region of the
    32x32 / 500-net scenario with 0..7 buffer sites per tile, so every
    scenario is a ``set_sites`` delta of the base.
    """
    base = ScenarioSpec(grid=32, num_nets=500, total_sites=2500)
    values = tuple(range(8))
    return ParameterSpace(
        base,
        tuple(
            Dimension(
                "region_sites",
                values,
                tiles=tuple(
                    (x, y)
                    for x in range(lo, lo + 4)
                    for y in range(lo, lo + 4)
                ),
            )
            for lo in (8, 20)
        ),
    )


class TestOptions:
    def test_triage_mode_validated(self):
        with pytest.raises(ConfigurationError):
            SweepOptions(triage="aggressive")
        for mode in ("off", "certified", "estimate"):
            assert SweepOptions(triage=mode).triage == mode


class TestGate:
    def test_certified_gate_prunes_without_planning(self):
        tracer = Tracer()
        store = ResultStore()
        records = run_sweep(
            [FEASIBLE, STARVED],
            config=RabidConfig(),
            store=store,
            options=SweepOptions(triage="certified"),
            tracer=tracer,
        )
        statuses = sorted(r.status for r in records.values())
        assert statuses == ["ok", "pruned"]
        pruned = next(
            r for r in records.values() if r.status == "pruned"
        )
        assert pruned.via == "triage"
        assert pruned.metrics is None
        assert "triage" in pruned.error
        assert pruned.finished  # resume skips it
        assert not is_feasible(pruned)
        assert tracer.metrics.counter("explore.triage_pruned").value == 1

    def test_off_mode_evaluates_everything(self):
        records = run_sweep(
            [STARVED],
            config=RabidConfig(),
            store=ResultStore(),
            options=SweepOptions(triage="off"),
        )
        (record,) = records.values()
        assert record.status == "ok"
        assert record.metrics["unassigned_nets"] > 0

    def test_resume_reuses_pruned_record(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        options = SweepOptions(triage="certified")
        run_sweep(
            [STARVED], config=RabidConfig(), store=ResultStore(path),
            options=options,
        )
        tracer = Tracer()
        reloaded = ResultStore(path)
        records = run_sweep(
            [STARVED], config=RabidConfig(), store=reloaded,
            options=options, tracer=tracer,
        )
        (record,) = records.values()
        assert record.status == "pruned"
        assert tracer.metrics.counter("explore.cache_hits").value == 1
        assert tracer.metrics.get("triage.runs") is None

    def test_pruned_record_round_trips(self):
        record = EvalRecord(
            key="k", scenario=STARVED.to_dict(), status="pruned",
            error="triage[certified] infeasible", via="triage",
        )
        assert EvalRecord.from_dict(record.to_dict()).status == "pruned"

    def test_report_counts_pruned(self):
        records = run_sweep(
            [FEASIBLE, STARVED],
            config=RabidConfig(),
            store=ResultStore(),
            options=SweepOptions(triage="certified"),
        )
        report = frontier_report(records)
        assert report["by_status"]["pruned"] == 1
        assert "1 pruned" in render_frontier_table(report)


class TestAcceptanceSweep:
    @pytest.mark.slow
    def test_gate_prunes_quarter_with_zero_false_prunes(self):
        """The issue's acceptance bar on the PR-5 explore workload: the
        estimate-mode gate prunes >= 25% of the 64-scenario budget
        sweep, and every pruned scenario independently verifies as
        infeasible when actually planned."""
        space = acceptance_space()
        config = RabidConfig()
        scenarios = [p.scenario for p in space.grid()]
        assert len(scenarios) == 64

        tracer = Tracer()
        gated = run_sweep(
            scenarios,
            base=space.base,
            config=config,
            store=ResultStore(),
            options=SweepOptions(triage="estimate"),
            tracer=tracer,
        )
        pruned_keys = [
            k for k, r in gated.items() if r.status == "pruned"
        ]
        assert len(pruned_keys) >= 0.25 * len(scenarios)
        assert (
            tracer.metrics.counter("explore.triage_pruned").value
            == len(pruned_keys)
        )

        # Zero false prunes: plan every pruned scenario for real.
        verified = run_sweep(
            scenarios,
            base=space.base,
            config=config,
            store=ResultStore(),
            options=SweepOptions(triage="off"),
        )
        for key in pruned_keys:
            record = verified[key]
            assert record.status == "ok"
            assert record.metrics["unassigned_nets"] > 0

    def test_keys_stable_under_gate(self):
        """The gate never perturbs scenario identity (hash covers
        scenario + config only)."""
        config = RabidConfig()
        assert scenario_key(STARVED, config) == scenario_key(
            STARVED, config
        )
