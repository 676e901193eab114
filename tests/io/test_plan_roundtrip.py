"""Plan / config / ledger payload round-trips (the service's file layer).

These close the serialization gaps the planning service depends on:
the FULL RabidConfig (per-net limits, buffer library, technology) and
the SiteLedger state must survive plan -> JSON -> plan exactly, and
version fields must gate every payload kind.
"""

import json

import numpy as np
import pytest

from repro.core import RabidConfig
from repro.errors import ConfigurationError
from repro.geometry import Rect
from repro.io.serialize import (
    PLAN_SCHEMA_VERSION,
    config_from_dict,
    config_to_dict,
    ledger_state_from_dict,
    ledger_state_to_dict,
    load_plan_json,
    plan_from_dict,
    plan_to_dict,
    save_plan_json,
)
from repro.service import ScenarioSpec, full_plan
from repro.service.jobs import MacroSpec
from dataclasses import replace

from repro.technology import TECH_180NM
from repro.tilegraph import CapacityModel, TileGraph

SPEC = ScenarioSpec(
    grid=8, num_nets=12, total_sites=120, macros=(MacroSpec(1, 1, 2, 2),)
)


def non_default_config() -> RabidConfig:
    return RabidConfig(
        length_limit=7,
        length_limits={"netA": 3, "netB": 9},
        window_margin=4,
        pd_tradeoff=0.7,
        stage4_iterations=5,
        use_probability=False,
        buffer_library="tech",
        technology=replace(TECH_180NM, buffer_delay=2.5e-11, sink_cap=9e-15),
    )


class TestConfigRoundTrip:
    def test_every_field_survives(self):
        config = non_default_config()
        restored = config_from_dict(config_to_dict(config))
        assert restored.as_dict() == config.as_dict()
        assert restored.limit_for("netA") == 3
        assert restored.limit_for("other") == 7
        assert restored.buffer_library == "tech"
        assert restored.technology.buffer_delay == 2.5e-11
        assert restored.technology.sink_cap == 9e-15

    def test_version_gated(self):
        payload = config_to_dict(RabidConfig())
        payload["version"] = PLAN_SCHEMA_VERSION + 1
        with pytest.raises(ConfigurationError, match="config schema"):
            config_from_dict(payload)


class TestLedgerRoundTrip:
    def make_graph(self):
        graph = TileGraph(Rect(0, 0, 4, 4), 4, 4, CapacityModel.uniform(4))
        for i, tile in enumerate(graph.tiles()):
            graph.set_sites(tile, 3 + i % 4)
        graph.use_site((1, 1), 2)
        graph.use_site((2, 3), 1)
        return graph

    def test_state_survives(self):
        graph = self.make_graph()
        payload = ledger_state_to_dict(graph.ledger())

        fresh = TileGraph(Rect(0, 0, 4, 4), 4, 4, CapacityModel.uniform(4))
        ledger_state_from_dict(payload, fresh.ledger())
        assert np.array_equal(fresh.used_sites, graph.used_sites)
        assert np.array_equal(fresh.sites, graph.sites)

    def test_version_gated(self):
        graph = self.make_graph()
        payload = ledger_state_to_dict(graph.ledger())
        payload["version"] = 99
        with pytest.raises(ConfigurationError, match="ledger schema"):
            ledger_state_from_dict(payload, graph.ledger())

    def test_wrong_grid_rejected(self):
        graph = self.make_graph()
        payload = ledger_state_to_dict(graph.ledger())
        small = TileGraph(Rect(0, 0, 2, 2), 2, 2, CapacityModel.uniform(4))
        with pytest.raises(ConfigurationError, match="tiles"):
            ledger_state_from_dict(payload, small.ledger())

    def test_refused_inside_transaction(self):
        graph = self.make_graph()
        payload = ledger_state_to_dict(graph.ledger())
        ledger = graph.ledger()
        with pytest.raises(ConfigurationError, match="transaction"):
            with ledger.transaction():
                ledger_state_from_dict(payload, ledger)


class TestPlanRoundTrip:
    @pytest.fixture(scope="class")
    def planned(self):
        return full_plan(SPEC)

    def test_plan_json_plan_equality(self, planned, tmp_path):
        path = tmp_path / "plan.json"
        save_plan_json(path, planned.graph, planned.routes, planned.config)
        graph, routes, config = load_plan_json(path)

        assert config.as_dict() == planned.config.as_dict()
        assert set(routes) == set(planned.routes)
        for name, tree in planned.routes.items():
            restored = routes[name]
            assert restored.source == tree.source
            assert sorted(restored.edges()) == sorted(tree.edges())
            assert sorted(restored.sink_tiles) == sorted(tree.sink_tiles)
            key = lambda s: (s.tile, s.drives_child or (-1, -1))  # noqa: E731
            assert (sorted(restored.buffer_specs(), key=key)
                    == sorted(tree.buffer_specs(), key=key))
        assert np.array_equal(graph.edge_capacity, planned.graph.edge_capacity)
        assert np.array_equal(graph.edge_usage, planned.graph.edge_usage)
        assert np.array_equal(graph.used_sites, planned.graph.used_sites)
        assert np.array_equal(graph.sites, planned.graph.sites)

        # Equality in the strongest available sense: identical signature.
        from repro.core.assignment import buffering_signature

        assert (buffering_signature(routes, graph, planned.failed_nets)
                == planned.signature)

    def test_second_round_trip_is_identical(self, planned):
        payload = plan_to_dict(planned.graph, planned.routes, planned.config)
        graph, routes, config = plan_from_dict(payload)
        assert plan_to_dict(graph, routes, config) == payload

    def test_version_gated(self, planned):
        payload = plan_to_dict(planned.graph, planned.routes, planned.config)
        payload["version"] = 99
        with pytest.raises(ConfigurationError, match="plan schema"):
            plan_from_dict(payload)

    def test_plan_with_retired_worker_keys_loads(self, planned):
        """A plan saved by a version that still had the Stage-2/3 worker
        knobs loads, and re-saves without them."""
        payload = plan_to_dict(planned.graph, planned.routes, planned.config)
        legacy = json.loads(json.dumps(payload))
        legacy["config"]["config"].update(
            workers=2, stage3_workers=2, parallel_backend="threads"
        )
        graph, routes, config = plan_from_dict(legacy)
        assert config.as_dict() == planned.config.as_dict()
        assert plan_to_dict(graph, routes, config) == payload

    def test_plan_with_retired_solver_keys_loads(self, planned):
        """A plan saved while Stage 3 had a strategy registry carries
        ``stage3_solver``/``stage3_solvers``: the defaults load and re-save
        without them, and a strategy the one solver does not reproduce is
        refused."""
        payload = plan_to_dict(planned.graph, planned.routes, planned.config)
        legacy = json.loads(json.dumps(payload))
        legacy["config"]["config"].update(stage3_solver="dp", stage3_solvers={})
        graph, routes, config = plan_from_dict(legacy)
        assert plan_to_dict(graph, routes, config) == payload
        legacy["config"]["config"]["stage3_solvers"] = {"net1": "greedy"}
        with pytest.raises(ConfigurationError, match="greedy"):
            plan_from_dict(legacy)

    def test_plan_json_with_retired_router_loads(self, planned, tmp_path):
        """Every plan file written while Stage 1 had a router choice
        carries ``"router": "pd"``: it loads, and re-saves without it."""
        payload = plan_to_dict(planned.graph, planned.routes, planned.config)
        legacy = json.loads(json.dumps(payload))
        legacy["config"]["config"]["router"] = "pd"
        path = tmp_path / "legacy-plan.json"
        path.write_text(json.dumps(legacy))
        graph, routes, config = load_plan_json(path)
        assert plan_to_dict(graph, routes, config) == payload
        legacy["config"]["config"]["router"] = "mcf"
        path.write_text(json.dumps(legacy))
        with pytest.raises(ConfigurationError, match="retired router"):
            load_plan_json(path)
