"""RabidConfig validation and tracer neutrality.

The tracer must observe, never steer: a run with a live ``Tracer`` must
produce exactly the same routes, buffer assignments, failure list, and
metrics (modulo cpu time) as an untraced run on an identical design.
"""

import pytest

from repro.core import RabidConfig, RabidPlanner
from repro.errors import ConfigurationError
from repro.geometry import Point, Rect
from repro.netlist import Net, Netlist, Pin
from repro.obs import Tracer
from repro.tilegraph import CapacityModel, TileGraph


class TestRabidConfigValidation:
    def test_defaults_are_valid(self):
        RabidConfig()

    def test_retired_router_pd_dropped(self):
        """Configs written while Stage 1 had a router choice carry
        ``"router": "pd"``: they load, and re-save without the key."""
        legacy = {**RabidConfig().as_dict(), "router": "pd"}
        config = RabidConfig.from_dict(legacy)
        assert config == RabidConfig()
        assert "router" not in config.as_dict()
        assert RabidConfig.from_dict(config.as_dict()) == config

    def test_unknown_router_rejected(self):
        """Any other router would plan a different Stage 1, so it is
        refused rather than silently re-planned with Prim-Dijkstra."""
        for router in ("mcf", "astar", 5, None):
            with pytest.raises(ConfigurationError, match="retired router"):
                RabidConfig.from_dict({"router": router})

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"length_limit": 0},
            {"length_limits": {"n0": 0}},
            {"stage2_iterations": -1},
            {"stage4_iterations": -1},
            {"window_margin": -1},
            {"pd_tradeoff": -0.5},
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            RabidConfig(**kwargs)

    def test_zero_iterations_allowed(self):
        config = RabidConfig(stage2_iterations=0, stage4_iterations=0)
        assert config.stage2_iterations == 0
        assert config.stage4_iterations == 0

    def test_bound_disabled_by_default(self):
        assert RabidConfig().bound == ""

    def test_known_bound_mode_accepted(self):
        config = RabidConfig(bound="gk", bound_epsilon=0.5)
        assert config.bound == "gk"
        assert config.bound_epsilon == 0.5

    def test_unknown_bound_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            RabidConfig(bound="simplex")

    @pytest.mark.parametrize("epsilon", [0.0, -0.1, 1.5])
    def test_bad_bound_epsilon_rejected(self, epsilon):
        with pytest.raises(ConfigurationError):
            RabidConfig(bound="gk", bound_epsilon=epsilon)

    def test_bound_round_trips_through_dict(self):
        config = RabidConfig(bound="gk", bound_epsilon=0.125)
        clone = RabidConfig.from_dict(config.as_dict())
        assert clone.bound == "gk"
        assert clone.bound_epsilon == 0.125

    def test_config_saved_with_worker_knobs_loads(self):
        """A config in the ``as_dict()`` shape of versions that still had
        the Stage-2/3 worker knobs loads; the retired keys are dropped."""
        legacy = RabidConfig().as_dict()
        legacy.update(workers=2, stage3_workers=2, parallel_backend="threads")
        assert RabidConfig.from_dict(legacy) == RabidConfig()

    def test_unknown_key_still_rejected(self):
        with pytest.raises(ConfigurationError, match="bogus"):
            RabidConfig.from_dict({"bogus": 1})

    def test_limit_for_prefers_override(self):
        config = RabidConfig(length_limit=5, length_limits={"n0": 2})
        assert config.limit_for("n0") == 2
        assert config.limit_for("n1") == 5


def _design():
    size = 9
    die = Rect(0, 0, float(size), float(size))
    graph = TileGraph(die, size, size, CapacityModel.uniform(6))
    for tile in graph.tiles():
        graph.set_sites(tile, 2)
    nets = []
    for i in range(10):
        y = 0.5 + (i % size)
        nets.append(
            Net(
                name=f"n{i}",
                source=Pin(f"n{i}.s", Point(0.5, y)),
                sinks=[
                    Pin(f"n{i}.a", Point(size - 0.5, y)),
                    Pin(f"n{i}.b", Point(size / 2, (y + 3) % size)),
                ],
            )
        )
    return graph, Netlist(nets=nets)


def _fingerprint(result, graph):
    routes = {}
    for name, tree in sorted(result.routes.items()):
        routes[name] = sorted(
            (
                node.tile,
                node.parent.tile if node.parent else None,
                node.is_sink,
                node.trunk_buffer,
                tuple(sorted(node.decoupled_children)),
            )
            for node in tree.nodes.values()
        )
    metrics = [
        (m.stage, m.overflows, m.num_buffers, m.num_fails, m.wirelength_mm)
        for m in result.stage_metrics
    ]
    return {
        "routes": routes,
        "metrics": metrics,
        "failed": sorted(result.failed_nets),
        "used_sites": graph.used_sites.tolist(),
        "h_usage": graph.h_usage.tolist(),
        "v_usage": graph.v_usage.tolist(),
    }


class TestTracerNeutrality:
    def test_traced_run_is_byte_identical_to_untraced(self):
        graph_a, nets_a = _design()
        plain = RabidPlanner(graph_a, nets_a, RabidConfig(length_limit=4)).run()

        graph_b, nets_b = _design()
        tracer = Tracer()
        traced = RabidPlanner(graph_b, nets_b, RabidConfig(length_limit=4)).run(
            tracer=tracer
        )

        assert _fingerprint(plain, graph_a) == _fingerprint(traced, graph_b)
        # The traced run actually recorded something.
        assert tracer.spans and len(tracer.events) > 0
