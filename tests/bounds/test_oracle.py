"""The Garg-Konemann lower-bound oracle: bounds, certificates, infeasibility."""

import json

import pytest

from repro.bounds import (
    BoundOptions,
    bound_scenario,
    compute_bound,
    plan_surrogate_cost,
    verify_certificate,
)
from repro.core.length_rule import length_rule_floor
from repro.core.rabid import RabidConfig
from repro.errors import ConfigurationError
from repro.explore.executor import metrics_from_state
from repro.geometry import Rect
from repro.service.engine import build_graph, full_plan
from repro.service.jobs import ScenarioSpec
from repro.tilegraph import CapacityModel, TileGraph


SCENARIO = ScenarioSpec(
    grid=12, num_nets=40, total_sites=300, seed=0, site_seed=0
)


class TestOptions:
    def test_bad_mode(self):
        with pytest.raises(ConfigurationError):
            BoundOptions(mode="simplex")

    def test_bad_epsilon(self):
        with pytest.raises(ConfigurationError):
            BoundOptions(epsilon=0.0)
        with pytest.raises(ConfigurationError):
            BoundOptions(epsilon=1.5)

    def test_bad_iterations(self):
        with pytest.raises(ConfigurationError):
            BoundOptions(iterations=0)


class TestLowerBound:
    def test_bound_below_plan_cost(self):
        """The acceptance invariant: certified LB <= full_plan cost."""
        bound = bound_scenario(SCENARIO, BoundOptions(iterations=2))
        metrics = metrics_from_state(full_plan(SCENARIO, RabidConfig()))
        assert metrics["unassigned_nets"] == 0
        plan = plan_surrogate_cost(metrics)
        assert not bound.certified_infeasible
        assert 0.0 < bound.lower_bound <= plan

    def test_duals_reach_the_length_rule_floor(self):
        bound = bound_scenario(SCENARIO, BoundOptions(iterations=2))
        nets = SCENARIO.nets()
        limits = SCENARIO.limits(sorted(nets))
        floors = {
            name: length_rule_floor([source, *sinks], limits[name])
            for name, (source, sinks) in nets.items()
        }
        assert all(
            dual >= floors[name] for name, dual in bound.net_duals.items()
        )
        assert any(
            dual == floors[name] for name, dual in bound.net_duals.items()
        )

    def test_bound_ignores_epsilon_and_iterations(self):
        """The bound prices at theta = 0, so the length rounds do not
        move it; they move lambda_lb and the columns."""
        coarse = bound_scenario(
            SCENARIO, BoundOptions(epsilon=1.0, iterations=1)
        )
        fine = bound_scenario(
            SCENARIO, BoundOptions(epsilon=0.25, iterations=3)
        )
        assert coarse.net_duals == fine.net_duals
        assert coarse.lower_bound == fine.lower_bound
        assert coarse.lambda_lb != fine.lambda_lb

    def test_dual_feasibility(self):
        """The certificate re-verifies against an independent pricing pass."""
        bound = bound_scenario(SCENARIO, BoundOptions(iterations=2))
        graph = build_graph(SCENARIO)
        nets = SCENARIO.nets()
        limits = SCENARIO.limits(sorted(nets))
        verdict = verify_certificate(bound.certificate(), graph, nets, limits)
        assert verdict["ok"]
        assert verdict["nets_checked"] == len(nets)
        assert verdict["worst_dual_violation"] <= 1e-6
        assert bound.lower_bound <= verdict["derived_bound"] + 1e-6

    def test_deterministic(self):
        summaries = [
            json.dumps(
                bound_scenario(
                    SCENARIO, BoundOptions(iterations=2)
                ).summary(),
                sort_keys=True,
            )
            for _ in range(2)
        ]
        # `seconds` is wall-clock; everything else must be identical.
        a, b = (json.loads(s) for s in summaries)
        a.pop("seconds"), b.pop("seconds")
        assert a == b

    def test_counters_populated(self):
        bound = bound_scenario(SCENARIO, BoundOptions(iterations=2))
        # Two length rounds, the theta = 0 sweep and the lambda sweep.
        assert bound.pricing_calls == (2 + 2) * 40
        assert bound.iterations == 2
        assert bound.seconds > 0


class TestAcceptanceWorkload:
    @pytest.mark.slow
    def test_32x32_bound_below_plan_with_verified_certificate(self):
        """The issue's acceptance run: 32x32 / 500 nets, certified."""
        scenario = ScenarioSpec(
            grid=32, num_nets=500, total_sites=3500, seed=0, site_seed=0
        )
        bound = bound_scenario(scenario, BoundOptions(iterations=2))
        metrics = metrics_from_state(full_plan(scenario, RabidConfig()))
        assert metrics["unassigned_nets"] == 0
        plan = plan_surrogate_cost(metrics)
        assert not bound.certified_infeasible
        assert 0.0 < bound.lower_bound <= plan
        nets = scenario.nets()
        verdict = verify_certificate(
            bound.certificate(), build_graph(scenario),
            nets, scenario.limits(sorted(nets)),
        )
        assert verdict["ok"]
        assert verdict["worst_dual_violation"] <= 1e-6


class TestInfeasibility:
    def test_structural_certificate(self):
        graph = TileGraph(
            Rect(0, 0, 4.0, 2.0), 4, 2, CapacityModel.uniform(0)
        )
        result = compute_bound(
            graph, {"n0": ((0, 0), [(3, 0)])}, {"n0": 8},
            BoundOptions(iterations=1),
        )
        assert result.certified_infeasible
        assert result.infeasible_reason == "structural"
        assert result.structural_nets == ["n0"]

    def test_capacity_certificate(self):
        # Eight identical nets through the 2-edge unit-capacity cut
        # around the source: max concurrent flow 1/4, certified by
        # lambda_lb > 1 after the lengths concentrate on the cut.
        graph = TileGraph(
            Rect(0, 0, 4.0, 2.0), 4, 2, CapacityModel.uniform(1)
        )
        nets = {f"n{i}": ((0, 0), [(3, 0)]) for i in range(8)}
        limits = {name: 8 for name in nets}
        result = compute_bound(
            graph, nets, limits, BoundOptions(epsilon=0.5, iterations=8)
        )
        assert result.lambda_lb > 1.0
        assert result.certified_infeasible
        assert result.infeasible_reason == "capacity"

    def test_feasible_instance_not_flagged(self):
        graph = TileGraph(
            Rect(0, 0, 4.0, 2.0), 4, 2, CapacityModel.uniform(8)
        )
        result = compute_bound(
            graph, {"n0": ((0, 0), [(3, 0)])}, {"n0": 8},
            BoundOptions(iterations=2),
        )
        assert not result.certified_infeasible
        assert result.lambda_lb < 1.0
        assert result.infeasible_reason == ""


class TestTriageShortCircuit:
    STARVED = ScenarioSpec(
        grid=12, num_nets=60, capacity=6, total_sites=5, length_limit=2
    )

    def test_certified_scenario_skips_pricing(self):
        from repro.obs import Tracer

        tracer = Tracer()
        result = bound_scenario(
            self.STARVED, BoundOptions(triage=True), tracer=tracer
        )
        assert result.certified_infeasible
        assert result.infeasible_reason == "triage-sites"
        assert result.pricing_calls == 0
        assert result.lower_bound is None
        assert tracer.metrics.counter("triage.skips").value == 1

    def test_feasible_scenario_falls_through(self):
        gated = bound_scenario(SCENARIO, BoundOptions(triage=True))
        plain = bound_scenario(SCENARIO)
        assert not gated.certified_infeasible
        assert gated.lower_bound == plain.lower_bound

    def test_short_circuit_result_serializes(self):
        result = bound_scenario(self.STARVED, BoundOptions(triage=True))
        summary = result.summary()
        assert summary["certified_infeasible"]
        cert = result.certificate()
        assert cert.infeasible_reason == "triage-sites"
