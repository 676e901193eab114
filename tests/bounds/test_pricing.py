"""Column-generation pricing: buffered shortest paths as a layered Dijkstra."""

import pytest

from repro.bounds import PathPricer
from repro.errors import ConfigurationError
from repro.geometry import Rect
from repro.tilegraph import CapacityModel, TileGraph


def _graph(nx=8, ny=8, capacity=2):
    return TileGraph(
        Rect(0, 0, float(nx), float(ny)), nx, ny,
        CapacityModel.uniform(capacity),
    )


def _zero_lengths(graph):
    """All-zero duals: pricing degenerates to unit-cost shortest paths."""
    edges = [0.0] * len(graph.edge_capacity)
    sites = [0.0] * (graph.nx * graph.ny)
    return edges, sites


class TestBasics:
    def test_unit_cost_path_is_manhattan(self):
        graph = _graph()
        edges, sites = _zero_lengths(graph)
        priced = PathPricer(graph).price(
            (0, 0), [(3, 0)], 8, edges, sites, collect_paths=True
        )
        assert priced.reachable
        assert priced.costs[(3, 0)] == pytest.approx(3.0)
        path = priced.paths[(3, 0)]
        assert len(path.edges) == 3
        assert path.buffers == ()
        # Dual lengths on the same path: each step costs (d + 1) + l(e),
        # summed left to right. Tabulating 1 + l(e) per edge would sum to
        # 3.533333333333333; every other way to the sink is dearer.
        for eid, length in zip(path.edges, (0.1, 0.1, 1.0 / 3.0)):
            edges[eid] = length
        priced = PathPricer(graph).price((0, 0), [(3, 0)], 8, edges, sites)
        assert priced.costs[(3, 0)] == 3.5333333333333337

    def test_dual_value_is_worst_sink(self):
        graph = _graph()
        edges, sites = _zero_lengths(graph)
        priced = PathPricer(graph).price(
            (0, 0), [(1, 0), (5, 0)], 8, edges, sites
        )
        assert priced.dual_value() == pytest.approx(5.0)

    def test_bad_length_limit(self):
        graph = _graph()
        edges, sites = _zero_lengths(graph)
        with pytest.raises(ConfigurationError):
            PathPricer(graph).price((0, 0), [(1, 0)], 0, edges, sites)


class TestSpacing:
    def test_far_sink_without_buffers_unreachable(self):
        graph = _graph()  # no buffer sites anywhere
        edges, sites = _zero_lengths(graph)
        priced = PathPricer(graph).price((0, 0), [(4, 0)], 2, edges, sites)
        assert not priced.reachable
        assert priced.costs[(4, 0)] == float("inf")

    def test_buffer_site_extends_reach(self):
        graph = _graph()
        graph.set_sites((2, 0), 1)
        edges, sites = _zero_lengths(graph)
        priced = PathPricer(graph).price(
            (0, 0), [(4, 0)], 2, edges, sites,
            wire_cost=1.0, buffer_cost=1.0, collect_paths=True,
        )
        assert priced.reachable
        # 4 wire tiles + 1 mandatory buffer at (2, 0).
        assert priced.costs[(4, 0)] == pytest.approx(5.0)
        path = priced.paths[(4, 0)]
        assert path.buffers == (2 * graph.ny + 0,)

    def test_site_duals_steer_buffer_choice(self):
        graph = _graph()
        graph.set_sites((2, 0), 1)
        graph.set_sites((2, 1), 1)
        edges = [0.0] * len(graph.edge_capacity)
        sites = [0.0] * (graph.nx * graph.ny)
        sites[2 * graph.ny + 0] = 100.0  # (2, 0) priced out
        priced = PathPricer(graph).price(
            (0, 0), [(4, 0)], 3, edges, sites, collect_paths=True
        )
        assert priced.reachable
        assert priced.paths[(4, 0)].buffers == (2 * graph.ny + 1,)


class TestWindowAndStructure:
    def test_window_escalation_still_finds_detour(self):
        # Wall the straight corridor with zero-capacity edges so the
        # route must leave a tight window; escalation must recover it.
        graph = _graph(nx=16, ny=16, capacity=2)
        for x in range(15):
            graph.set_wire_capacity((x, 1), (x, 2), 0)
        pricer = PathPricer(graph, window_margin=1)
        edges = [
            0.0 if cap > 0 else float("inf")
            for cap in graph.edge_capacity.tolist()
        ]
        sites = [0.0] * (graph.nx * graph.ny)
        priced = pricer.price((0, 0), [(0, 4)], 64, edges, sites)
        assert priced.reachable
        # Detour around the wall's open end at x=15.
        assert priced.costs[(0, 4)] > 4.0

    def test_zero_capacity_graph_is_structural(self):
        graph = _graph(capacity=0)
        edges = [float("inf")] * len(graph.edge_capacity)
        sites = [0.0] * (graph.nx * graph.ny)
        priced = PathPricer(graph).price((0, 0), [(3, 0)], 8, edges, sites)
        assert not priced.reachable
