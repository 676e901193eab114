"""Sweep execution: reuse, resume, degradation, and determinism."""

import time

import pytest

from repro.errors import ConfigurationError
from repro.explore import (
    Dimension,
    ParameterSpace,
    ResultStore,
    SweepOptions,
    evaluate_scenario,
    explore_space,
    frontier_report,
    is_feasible,
    metrics_from_state,
    report_bytes,
    run_sweep,
    scenario_key,
)
from repro.explore import executor as executor_module
from repro.obs import Tracer
from repro.core.rabid import RabidConfig
from repro.service.engine import full_plan
from repro.service.jobs import ScenarioSpec


def small_base(**overrides) -> ScenarioSpec:
    defaults = dict(grid=12, num_nets=30, total_sites=300)
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


def region_space(values=(0, 2), base=None) -> ParameterSpace:
    base = base or small_base()
    tiles = ((4, 4), (4, 5), (5, 4), (5, 5))
    return ParameterSpace(
        base, (Dimension("region_sites", values, tiles=tiles),)
    )


def key_of(scenario):
    return scenario_key(scenario, RabidConfig())


def counting_full_plan(monkeypatch):
    calls = []

    def wrapper(scenario, config=None):
        calls.append(scenario)
        return full_plan(scenario, config)

    monkeypatch.setattr(executor_module, "full_plan", wrapper)
    return calls


class TestMetrics:
    def test_fields_and_feasibility(self):
        state = full_plan(small_base())
        metrics = metrics_from_state(state)
        for field in (
            "site_budget",
            "wire_budget",
            "unassigned_nets",
            "buffers",
            "wirelength_tiles",
            "max_delay_ps",
            "avg_delay_ps",
            "cost",
            "signature",
        ):
            assert field in metrics
        assert metrics["unassigned_nets"] == len(state.failed_nets)
        assert metrics["site_budget"] == int(state.graph.sites.sum())

    def test_matches_signature_of_state(self):
        state = full_plan(small_base())
        assert metrics_from_state(state)["signature"] == state.signature


class TestEvaluateScenario:
    def test_incremental_used_for_region_delta(self):
        base = small_base()
        scenario = region_space().grid()[1].scenario
        metrics, via = evaluate_scenario(scenario, base=base)
        assert via == "incremental"
        full_metrics, full_via = evaluate_scenario(
            scenario, base=base, reuse_baseline=False
        )
        assert full_via == "full"
        # The replay reproduces the scratch plan exactly.
        assert metrics["signature"] == full_metrics["signature"]
        assert metrics == full_metrics

    def test_fixed_field_change_goes_full(self):
        base = small_base()
        _, via = evaluate_scenario(small_base(total_sites=200), base=base)
        assert via == "full"

    def test_baseline_state_is_restored(self):
        base = small_base()
        baseline = executor_module._baseline_for(
            base, executor_module.RabidConfig()
        )
        signature = baseline.signature
        scenario = region_space().grid()[1].scenario
        evaluate_scenario(scenario, base=base)
        assert baseline.signature == signature


class TestSweepOptions:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SweepOptions(workers=0)
        with pytest.raises(ConfigurationError):
            SweepOptions(timeout_s=0)
        with pytest.raises(ConfigurationError):
            SweepOptions(retries=-1)
        with pytest.raises(ConfigurationError):
            SweepOptions(max_scenarios=-1)


class TestResume:
    def test_kill_and_resume_reevaluates_nothing_finished(
        self, monkeypatch, tmp_path
    ):
        calls = counting_full_plan(monkeypatch)
        base = small_base()
        points = region_space(values=(0, 1, 2)).grid()
        scenarios = [p.scenario for p in points]
        path = str(tmp_path / "results.jsonl")
        options = SweepOptions(reuse_baseline=False)

        first = run_sweep(scenarios, base=base, store=ResultStore(path), options=options)
        assert len(first) == 3
        evaluated_first = len(calls)
        assert evaluated_first == 3

        # Resume against the persisted store: nothing finished re-runs.
        tracer = Tracer()
        again = run_sweep(
            scenarios,
            base=base,
            store=ResultStore(path),
            options=options,
            tracer=tracer,
        )
        assert len(again) == 3
        assert len(calls) == evaluated_first  # zero new full_plan calls
        assert tracer.metrics.value("explore.cache_hits") == 3
        assert tracer.metrics.value("explore.scenarios") == 0

    def test_partial_sweep_resumes_remainder(self, monkeypatch, tmp_path):
        calls = counting_full_plan(monkeypatch)
        base = small_base()
        scenarios = [p.scenario for p in region_space(values=(0, 1, 2)).grid()]
        path = str(tmp_path / "results.jsonl")
        options = SweepOptions(reuse_baseline=False, max_scenarios=2)
        run_sweep(scenarios, base=base, store=ResultStore(path), options=options)
        assert len(calls) == 2  # truncated by max_scenarios

        rest = run_sweep(
            scenarios,
            base=base,
            store=ResultStore(path),
            options=SweepOptions(reuse_baseline=False),
        )
        assert len(rest) == 3
        assert len(calls) == 3  # only the pending scenario ran

    def test_failed_records_retry_on_resume_by_default(self, tmp_path):
        base = small_base()
        scenario = region_space().grid()[1].scenario
        key = key_of(scenario)
        store = ResultStore(str(tmp_path / "results.jsonl"))
        from repro.explore.store import EvalRecord

        store.append(
            EvalRecord(
                key=key, scenario=scenario.to_dict(), status="crashed", error="x"
            )
        )
        records = run_sweep([scenario], base=base, store=store)
        assert records[key].status == "ok"

        store.append(
            EvalRecord(
                key=key, scenario=scenario.to_dict(), status="crashed", error="x"
            )
        )
        kept = run_sweep(
            [scenario],
            base=base,
            store=store,
            options=SweepOptions(retry_failed=False),
        )
        assert kept[key].status == "crashed"


class TestDegradation:
    def test_crash_records_and_sweep_continues(self, monkeypatch):
        base = small_base()
        points = region_space(values=(0, 1, 2)).grid()
        doomed = key_of(points[1].scenario)

        def flaky(scenario, config=None):
            if key_of(scenario) == doomed:
                raise RuntimeError("boom")
            return full_plan(scenario, config)

        monkeypatch.setattr(executor_module, "full_plan", flaky)
        tracer = Tracer()
        records = run_sweep(
            [p.scenario for p in points],
            base=base,
            options=SweepOptions(reuse_baseline=False, retries=1),
            tracer=tracer,
        )
        assert len(records) == 3
        assert records[doomed].status == "crashed"
        assert "boom" in records[doomed].error
        assert records[doomed].attempts == 2
        assert tracer.metrics.value("explore.retries") == 1
        ok = [r for r in records.values() if r.status == "ok"]
        assert len(ok) == 2

    def test_retry_recovers_transient_failure(self, monkeypatch):
        base = small_base()
        scenario = region_space().grid()[1].scenario
        attempts = {"n": 0}

        def transient(spec, config=None):
            attempts["n"] += 1
            if attempts["n"] == 1:
                raise RuntimeError("transient")
            return full_plan(spec, config)

        monkeypatch.setattr(executor_module, "full_plan", transient)
        records = run_sweep(
            [scenario],
            base=base,
            options=SweepOptions(reuse_baseline=False, retries=1),
        )
        record = records[key_of(scenario)]
        assert record.status == "ok"
        assert record.attempts == 2


class TestPool:
    def test_pool_matches_inline_results(self):
        base = small_base()
        scenarios = [p.scenario for p in region_space(values=(0, 1, 2)).grid()]
        inline = run_sweep(scenarios, base=base, options=SweepOptions(workers=1))
        pooled = run_sweep(scenarios, base=base, options=SweepOptions(workers=2))
        assert set(inline) == set(pooled)
        for key in inline:
            assert inline[key].metrics == pooled[key].metrics
        # Every scenario is a delta of the base: the pool must take the
        # incremental path for each, and still match a from-scratch plan.
        for scenario in scenarios:
            record = pooled[key_of(scenario)]
            assert record.via == "incremental"
            assert record.metrics == metrics_from_state(full_plan(scenario))

    def test_pool_timeout_degrades(self, monkeypatch):
        base = small_base()
        scenario = region_space().grid()[1].scenario

        def slow(spec, config=None):
            time.sleep(30)

        monkeypatch.setattr(executor_module, "full_plan", slow)
        records = run_sweep(
            [scenario],
            base=base,
            options=SweepOptions(
                workers=2,
                timeout_s=0.5,
                retries=0,
                reuse_baseline=False,
            ),
        )
        record = records[key_of(scenario)]
        assert record.status == "timeout"
        assert "0.5" in record.error

    def test_pool_worker_crash_degrades(self, monkeypatch):
        import os

        base = small_base()
        scenario = region_space().grid()[1].scenario

        def fatal(spec, config=None):
            os._exit(3)  # simulates a segfaulting worker

        monkeypatch.setattr(executor_module, "full_plan", fatal)
        records = run_sweep(
            [scenario],
            base=base,
            options=SweepOptions(workers=2, retries=0, reuse_baseline=False),
        )
        record = records[key_of(scenario)]
        assert record.status == "crashed"
        assert "died" in record.error


class TestDeterminism:
    def test_frontier_bytes_identical_across_worker_counts(self, tmp_path):
        base = small_base()
        space = region_space(values=(0, 1, 2, 3))
        reports = []
        for workers in (1, 2):
            result = explore_space(
                space,
                sampler="grid",
                store=ResultStore(),
                options=SweepOptions(workers=workers),
            )
            assignments = {
                key: space.assignment(point)
                for point, key in zip(result.points, result.keys)
            }
            reports.append(
                report_bytes(frontier_report(result.records, assignments))
            )
        assert reports[0] == reports[1]


class TestExploreSpace:
    def test_grid_explore(self):
        result = explore_space(region_space(), sampler="grid")
        assert len(result.points) == 2
        assert all(k in result.records for k in result.keys)
        rows = result.rows()
        assert rows[0]["status"] == "ok"
        assert "site_budget" in rows[0]

    def test_unknown_sampler_rejected(self):
        with pytest.raises(ConfigurationError):
            explore_space(region_space(), sampler="annealed")

    def test_bisect_needs_dim(self):
        with pytest.raises(ConfigurationError):
            explore_space(region_space(), sampler="bisect")

    def test_feasibility_helper(self):
        result = explore_space(region_space(), sampler="grid")
        record = result.records[result.keys[0]]
        assert is_feasible(record) == (
            record.metrics["unassigned_nets"] == 0
        )
        assert not is_feasible(None)


class TestBisectionStoreSeeding:
    """Regression: a budget-capped bisect resume must surface the store's
    known-feasible point instead of burning its whole budget on endpoint
    probes and reporting zero feasible scenarios (the failure mode the
    recorded BENCH_explore sweep hit: feasible=0 across 64 scenarios with
    a feasible point already on record)."""

    def _space(self, base):
        return ParameterSpace(base, (Dimension("total_sites", (0, 600)),))

    def test_seeded_sweep_finds_known_feasible(self):
        base = small_base()
        space = self._space(base)
        store = ResultStore()
        generous = space.scenario_for((600,))
        run_sweep([generous], base=base, store=store)
        assert is_feasible(store.get(key_of(generous)))
        tracer = Tracer()
        result = explore_space(
            space,
            sampler="bisect",
            bisect_dim="total_sites",
            store=store,
            options=SweepOptions(max_scenarios=1),
            tracer=tracer,
        )
        assert tracer.metrics.get("explore.bisect_seeded").value == 1
        assert any(is_feasible(r) for r in result.records.values())
        # The stored feasible value seeds the bracket's hi, so the sweep
        # reports a feasible boundary instead of None.
        assert result.boundaries == {(): 600}

    def test_seeding_skips_reevaluation(self, monkeypatch):
        base = small_base()
        space = self._space(base)
        store = ResultStore()
        run_sweep(
            [space.scenario_for((0,)), space.scenario_for((600,))],
            base=base, store=store,
        )
        calls = counting_full_plan(monkeypatch)
        explore_space(
            space, sampler="bisect", bisect_dim="total_sites", store=store
        )
        # Both endpoints came from the store; only midpoints were planned.
        assert all(s.total_sites not in (0, 600) for s in calls)
