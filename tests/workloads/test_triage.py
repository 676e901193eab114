"""Routability triage: certificates, estimates, and prune policy."""

import numpy as np
import pytest

from repro.core.rabid import RabidConfig
from repro.errors import ConfigurationError
from repro.obs import Tracer
from repro.service.engine import full_plan
from repro.service.jobs import ScenarioSpec
from repro.workloads import (
    TRIAGE_MODES,
    RoutabilityVerdict,
    get_workload,
    smear_demand,
    triage_scenario,
)

#: A comfortably feasible control (the CI smoke tier).
FEASIBLE = get_workload("smoke-16").scenario()

#: Site-starved: 60 nets needing buffers, 5 sites on the whole die.
SITE_STARVED = ScenarioSpec(
    grid=12, num_nets=60, capacity=6, total_sites=5, length_limit=2
)


class TestCertificates:
    def test_site_certificate_fires(self):
        verdict = triage_scenario(SITE_STARVED)
        assert verdict.certified_infeasible
        assert verdict.infeasible_reason == "sites"
        assert verdict.demand_lb > verdict.total_sites
        assert verdict.verdict == "infeasible"

    def test_site_certificate_is_sound(self):
        """The certificate's claim checked against the real planner."""
        state = full_plan(SITE_STARVED, RabidConfig())
        assert len(state.failed_nets) > 0

    def test_cut_certificate_fires(self):
        # Plenty of sites, but capacity 1 across every cut: 200 nets on
        # an 8x8 die force far more crossings than 8 edges can carry.
        scenario = ScenarioSpec(
            grid=8, num_nets=200, capacity=1, total_sites=5000,
            length_limit=12,
        )
        verdict = triage_scenario(scenario)
        assert verdict.certified_infeasible
        assert verdict.infeasible_reason == "cut"
        assert verdict.cut_slack < 0
        assert verdict.worst_cut

    def test_feasible_control_not_certified(self):
        verdict = triage_scenario(FEASIBLE)
        assert not verdict.certified_infeasible
        assert verdict.verdict == "routable"
        assert not verdict.site_starved

    def test_feasible_control_really_plans(self):
        state = full_plan(FEASIBLE, RabidConfig())
        assert len(state.failed_nets) == 0


class TestPrunePolicy:
    def test_modes(self):
        certified = triage_scenario(SITE_STARVED)
        assert not certified.should_prune("off")
        assert certified.should_prune("certified")
        assert certified.should_prune("estimate")
        feasible = triage_scenario(FEASIBLE)
        assert not any(feasible.should_prune(m) for m in TRIAGE_MODES)

    def test_estimate_only_prunes_in_estimate_mode(self):
        # Site pressure above the ceiling but below 1.0: no proof.
        scenario = ScenarioSpec(
            grid=12, num_nets=80, capacity=8, total_sites=600,
            length_limit=3,
        )
        verdict = triage_scenario(scenario)
        assert not verdict.certified_infeasible
        assert verdict.site_starved
        assert not verdict.should_prune("certified")
        assert verdict.should_prune("estimate")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            triage_scenario(FEASIBLE).should_prune("aggressive")


class TestSmear:
    def test_demand_conservation(self):
        """Each net's smeared H demand sums to its x-span (V: y-span)."""
        rng = np.random.default_rng(7)
        n, nx, ny = 50, 16, 16
        x0 = rng.integers(0, nx - 1, n)
        x1 = x0 + rng.integers(0, nx - x0)
        y0 = rng.integers(0, ny - 1, n)
        y1 = y0 + rng.integers(0, ny - y0)
        h, v = smear_demand(x0, x1, y0, y1, nx, ny)
        assert h.shape == (nx - 1, ny)
        assert v.shape == (nx, ny - 1)
        assert h.sum() == pytest.approx(float((x1 - x0).sum()))
        assert v.sum() == pytest.approx(float((y1 - y0).sum()))
        assert (h >= -1e-9).all() and (v >= -1e-9).all()

    def test_single_net_smear(self):
        h, v = smear_demand(
            np.array([2]), np.array([5]), np.array([3]), np.array([6]),
            8, 8,
        )
        # 3 units of x-span spread over 4 rows; 3 y-units over 4 columns.
        assert h[2:5, 3:7].sum() == pytest.approx(3.0)
        assert v[2:6, 3:6].sum() == pytest.approx(3.0)
        assert h[:2].sum() == 0.0 and h[5:].sum() == 0.0


class TestVerdictReport:
    def test_heatmap_and_dict(self):
        verdict = triage_scenario(
            ScenarioSpec(grid=10, num_nets=150, capacity=2, total_sites=900)
        )
        assert verdict.heatmap.shape == (10, 10)
        d = verdict.as_dict()
        for key in (
            "verdict", "site_pressure", "cut_slack", "overflow_edges",
            "hotspots", "certified_infeasible",
        ):
            assert key in d
        assert isinstance(RoutabilityVerdict.verdict, property)

    def test_counters(self):
        tracer = Tracer()
        triage_scenario(SITE_STARVED, tracer=tracer)
        assert tracer.metrics.counter("triage.runs").value == 1
        assert (
            tracer.metrics.counter("triage.verdict.infeasible").value == 1
        )
