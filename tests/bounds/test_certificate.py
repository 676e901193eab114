"""Certificate serialization and independent re-verification."""

import dataclasses

import pytest

from repro.bounds import (
    BoundOptions,
    bound_scenario,
    compute_bound,
    load_certificate,
    save_certificate,
    verify_certificate,
)
from repro.errors import ConfigurationError
from repro.geometry import Rect
from repro.service.engine import build_graph
from repro.service.jobs import ScenarioSpec
from repro.tilegraph import CapacityModel, TileGraph


SCENARIO = ScenarioSpec(
    grid=8, num_nets=12, total_sites=120, seed=0, site_seed=0
)


@pytest.fixture(scope="module")
def cert():
    return bound_scenario(SCENARIO, BoundOptions(iterations=2)).certificate()


@pytest.fixture(scope="module")
def workload():
    nets = SCENARIO.nets()
    return build_graph(SCENARIO), nets, SCENARIO.limits(sorted(nets))


class TestRoundTrip:
    def test_save_load_identity(self, cert, tmp_path):
        path = str(tmp_path / "cert.json")
        save_certificate(cert, path)
        loaded = load_certificate(path)
        assert loaded == cert

    def test_unknown_version_rejected(self, cert, tmp_path):
        d = cert.to_dict()
        d["version"] = 999
        with pytest.raises(ConfigurationError):
            type(cert).from_dict(d)

    def test_version1_refused(self, cert):
        """Version 1 carried ``theta`` and ``unconstrained_bound``, and its
        verifier rejects floor-raised duals."""
        d = cert.to_dict()
        d.update(version=1, theta=0.0, unconstrained_bound=d["lower_bound"])
        with pytest.raises(ConfigurationError, match="version 1"):
            type(cert).from_dict(d)

    def test_dict_round_trip_preserves_int_keys(self, cert):
        loaded = type(cert).from_dict(cert.to_dict())
        assert loaded.edge_lengths == cert.edge_lengths
        assert all(isinstance(k, int) for k in loaded.edge_lengths)


class TestVerification:
    def test_genuine_certificate_verifies(self, cert, workload):
        graph, nets, limits = workload
        verdict = verify_certificate(cert, graph, nets, limits)
        assert verdict["ok"]
        assert verdict["worst_dual_violation"] <= 1e-6

    def test_inflated_bound_fails(self, cert, workload):
        graph, nets, limits = workload
        forged = dataclasses.replace(
            cert, lower_bound=(cert.lower_bound or 0.0) * 10 + 100.0
        )
        verdict = verify_certificate(forged, graph, nets, limits)
        assert not verdict["ok"]

    def test_inflated_net_dual_fails(self, cert, workload):
        graph, nets, limits = workload
        duals = dict(cert.net_duals)
        name = sorted(duals)[0]
        duals[name] += 50.0
        forged = dataclasses.replace(cert, net_duals=duals)
        verdict = verify_certificate(forged, graph, nets, limits)
        assert not verdict["ok"]
        assert verdict["worst_dual_violation"] > 1e-6

    def test_negative_length_fails(self, cert, workload):
        graph, nets, limits = workload
        lengths = dict(cert.edge_lengths)
        lengths[next(iter(lengths))] = -1.0
        forged = dataclasses.replace(cert, edge_lengths=lengths)
        assert not verify_certificate(forged, graph, nets, limits)["ok"]

    def test_out_of_range_index_fails(self, cert, workload):
        graph, nets, limits = workload
        lengths = dict(cert.edge_lengths)
        lengths[10**9] = 1.0
        forged = dataclasses.replace(cert, edge_lengths=lengths)
        assert not verify_certificate(forged, graph, nets, limits)["ok"]

    def test_missing_length_fails(self, cert, workload):
        """Dropping a capacity edge's length would make every path across
        it unusable in the re-pricing, so duals could be inflated."""
        graph, nets, limits = workload
        lengths = dict(cert.edge_lengths)
        del lengths[next(iter(lengths))]
        forged = dataclasses.replace(cert, edge_lengths=lengths)
        verdict = verify_certificate(forged, graph, nets, limits)
        assert not verdict["ok"]
        assert "missing" in verdict["error"]


class TestForgedInfeasibility:
    """Infeasibility claims are derived again, not taken on trust."""

    def test_forged_capacity_claim_fails(self, cert, workload):
        graph, nets, limits = workload
        forged = dataclasses.replace(
            cert,
            certified_infeasible=True,
            infeasible_reason="capacity",
            lambda_lb=50.0,
            dual_load=cert.dual_load * 7,
        )
        verdict = verify_certificate(forged, graph, nets, limits)
        assert not verdict["ok"]
        assert "dual_load" in verdict["error"]

    def test_forged_lambda_with_true_dual_load_fails(self, cert, workload):
        graph, nets, limits = workload
        forged = dataclasses.replace(
            cert,
            certified_infeasible=True,
            infeasible_reason="capacity",
            lambda_lb=50.0,
        )
        verdict = verify_certificate(forged, graph, nets, limits)
        assert not verdict["ok"]
        assert "lambda_lb" in verdict["error"]

    def test_forged_structural_nets_fail(self, cert, workload):
        graph, nets, limits = workload
        routable = sorted(cert.net_duals)[:3]
        forged = dataclasses.replace(
            cert,
            certified_infeasible=True,
            infeasible_reason="structural",
            structural_nets=routable,
        )
        verdict = verify_certificate(forged, graph, nets, limits)
        assert not verdict["ok"]
        assert routable[0] in verdict["error"]

    def test_reason_without_claim_fails(self, cert, workload):
        graph, nets, limits = workload
        forged = dataclasses.replace(cert, certified_infeasible=True)
        assert not verify_certificate(forged, graph, nets, limits)["ok"]

    def test_genuine_capacity_certificate_verifies(self):
        """The instance of ``test_oracle.py``'s capacity certificate."""
        graph = TileGraph(
            Rect(0, 0, 4.0, 2.0), 4, 2, CapacityModel.uniform(1)
        )
        nets = {f"n{i}": ((0, 0), [(3, 0)]) for i in range(8)}
        limits = {name: 8 for name in nets}
        result = compute_bound(
            graph, nets, limits, BoundOptions(epsilon=0.5, iterations=8)
        )
        assert result.infeasible_reason == "capacity"
        verdict = verify_certificate(result.certificate(), graph, nets, limits)
        assert verdict["ok"], verdict

    def test_genuine_structural_certificate_verifies(self):
        graph = TileGraph(
            Rect(0, 0, 4.0, 2.0), 4, 2, CapacityModel.uniform(0)
        )
        nets = {"n0": ((0, 0), [(3, 0)])}
        result = compute_bound(
            graph, nets, {"n0": 8}, BoundOptions(iterations=1)
        )
        assert result.structural_nets == ["n0"]
        verdict = verify_certificate(
            result.certificate(), graph, nets, {"n0": 8}
        )
        assert verdict["ok"], verdict

    def test_triage_result_is_not_rechecked(self):
        """A triage verdict carries no duals; it verifies vacuously."""
        starved = ScenarioSpec(
            grid=12, num_nets=60, capacity=6, total_sites=5, length_limit=2
        )
        result = bound_scenario(starved, BoundOptions(triage=True))
        assert result.infeasible_reason.startswith("triage-")
        nets = starved.nets()
        verdict = verify_certificate(
            result.certificate(), build_graph(starved), nets,
            starved.limits(sorted(nets)),
        )
        assert verdict["ok"]
        assert verdict["nets_checked"] == 0


class TestLengthRuleFloor:
    """A net's dual may reach the length-rule floor on its pins, no more."""

    # The two sinks sit on two sides of the source: each sink's cheapest
    # path has 3 edges, but a tree reaching both has at least hpwl = 6
    # edges and, with L = 4, ceil(6 / 4) - 1 = 1 buffer.
    NETS = {"n0": ((0, 0), [(3, 0), (0, 3)])}
    LIMITS = {"n0": 4}

    @pytest.fixture
    def floored(self):
        graph = TileGraph(
            Rect(0, 0, 4.0, 4.0), 4, 4, CapacityModel.uniform(2)
        )
        result = compute_bound(
            graph, self.NETS, self.LIMITS, BoundOptions(iterations=1)
        )
        return graph, result.certificate()

    def test_floor_raised_dual_verifies(self, floored):
        graph, cert = floored
        assert cert.net_duals == {"n0": 7.0}
        assert cert.lower_bound == 7.0
        verdict = verify_certificate(cert, graph, self.NETS, self.LIMITS)
        assert verdict["ok"], verdict
        assert verdict["derived_bound"] == 7.0

    def test_dual_above_floor_rejected(self, floored):
        graph, cert = floored
        forged = dataclasses.replace(
            cert, net_duals={"n0": 7.5}, lower_bound=7.5
        )
        verdict = verify_certificate(forged, graph, self.NETS, self.LIMITS)
        assert not verdict["ok"]
        assert verdict["worst_dual_violation"] == pytest.approx(0.5)
