"""Approximate multicommodity-flow router."""

import pytest

from repro.errors import ConfigurationError
from repro.geometry import Point, Rect
from repro.netlist import Net, Netlist, Pin
from repro.routing.mcf import McfOptions, McfRouter, mcf_initial_routes
from repro.tilegraph import CapacityModel, TileGraph, wire_congestion_stats


def _netlist(pairs):
    nets = []
    for i, (src, dst) in enumerate(pairs):
        nets.append(
            Net(
                name=f"n{i}",
                source=Pin(f"n{i}.s", Point(*src)),
                sinks=[Pin(f"n{i}.t", Point(*dst))],
            )
        )
    return Netlist(nets=nets)


def _graph(capacity=2, size=8):
    return TileGraph(
        Rect(0, 0, float(size), float(size)), size, size,
        CapacityModel.uniform(capacity),
    )


class TestOptions:
    def test_bad_iterations(self):
        with pytest.raises(ConfigurationError):
            McfOptions(iterations=0)

    def test_bad_epsilon(self):
        with pytest.raises(ConfigurationError):
            McfOptions(epsilon=0.0)
        with pytest.raises(ConfigurationError):
            McfOptions(epsilon=1.5)


class TestRouting:
    def test_all_nets_routed(self):
        graph = _graph(capacity=10)
        netlist = _netlist([((0.5, 0.5), (7.5, 7.5)), ((0.5, 7.5), (7.5, 0.5))])
        routes = mcf_initial_routes(graph, netlist)
        assert set(routes) == {"n0", "n1"}
        for net in netlist:
            tree = routes[net.name]
            tree.validate()
            assert tree.source == graph.tile_of(net.source.location)

    def test_usage_matches_choices(self):
        graph = _graph(capacity=10)
        netlist = _netlist([((0.5, 0.5), (7.5, 0.5)), ((0.5, 2.5), (7.5, 2.5))])
        routes = mcf_initial_routes(graph, netlist)
        h, v = graph.h_usage.copy(), graph.v_usage.copy()
        graph.h_usage[:] = 0
        graph.v_usage[:] = 0
        for tree in routes.values():
            for u, w in tree.edges():
                graph.add_wire(u, w)
        assert (graph.h_usage == h).all()
        assert (graph.v_usage == v).all()

    def test_spreads_parallel_demand(self):
        # Five nets across the same rows, capacity 2: fractional rounds
        # must diversify routes enough for rounding to avoid overflow.
        graph = _graph(capacity=2)
        pairs = [((0.5, 0.5 + i * 0.0), (7.5, 0.5)) for i in range(4)]
        # All identical endpoints is the worst case: spread via detours.
        netlist = _netlist(pairs)
        routes = McfRouter(graph, McfOptions(iterations=8)).route_all(netlist)
        stats = wire_congestion_stats(graph)
        # Structural floor: 4 nets out of tile (0,0) over 2 edges of cap 2
        # is exactly feasible; the router must find it.
        assert stats.overflow == 0

    def test_multi_sink_nets(self):
        graph = _graph(capacity=10)
        netlist = Netlist(
            nets=[
                Net(
                    name="m",
                    source=Pin("m.s", Point(0.5, 0.5)),
                    sinks=[
                        Pin("m.a", Point(7.5, 0.5)),
                        Pin("m.b", Point(0.5, 7.5)),
                    ],
                )
            ]
        )
        routes = mcf_initial_routes(graph, netlist)
        assert set(routes["m"].sink_tiles) == {(7, 0), (0, 7)}

    def test_deterministic(self):
        results = []
        for _ in range(2):
            graph = _graph(capacity=3)
            netlist = _netlist(
                [((0.5, 0.5), (7.5, 6.5)), ((0.5, 6.5), (7.5, 0.5))]
            )
            routes = mcf_initial_routes(graph, netlist)
            results.append(
                {n: sorted(t.edges()) for n, t in routes.items()}
            )
        assert results[0] == results[1]


class TestLengthUpdate:
    def test_route_all_bumps_used_edge_lengths(self):
        graph = _graph(capacity=2)
        netlist = _netlist([((0.5, 0.5), (7.5, 0.5))])
        router = McfRouter(graph, McfOptions(iterations=1, epsilon=0.5))
        routes = router.route_all(netlist)
        assert set(routes) == {"n0"}
        # Used edges were bumped once: 0.5 * (1 + 0.5/2) = 0.625;
        # untouched edges still carry the initial 1/W = 0.5.
        used = {graph.edge_id(u, v) for u, v in routes["n0"].edges()}
        for eid in used:
            assert router._lengths[eid] == pytest.approx(0.625)
        unused = next(
            eid for eid in range(len(graph.edge_capacity))
            if eid not in used
        )
        assert router._lengths[unused] == pytest.approx(0.5)


class TestRounding:
    def _tree(self, tiles, name="t"):
        from repro.routing.tree import RouteTree

        return RouteTree.from_paths(
            tiles[0], [tiles], [tiles[-1]], net_name=name
        )

    def test_most_constrained_net_picks_first(self):
        # "long" has the only candidate using the contested middle edge;
        # "short" could take it too but also has a detour. Rounding must
        # let the bigger tree commit first, pushing "short" to the
        # detour — picking in the other order overflows the middle edge.
        graph = TileGraph(
            Rect(0, 0, 4.0, 2.0), 4, 2, CapacityModel.uniform(1)
        )
        router = McfRouter(graph)
        straight = [(0, 0), (1, 0), (2, 0), (3, 0)]
        middle = [(1, 0), (2, 0)]
        detour = [(1, 0), (1, 1), (2, 1), (2, 0)]
        candidates = {
            "long": [self._tree(straight, "long")],
            "short": [
                self._tree(middle, "short"),
                self._tree(detour, "short"),
            ],
        }
        netlist = Netlist(
            nets=[
                Net(
                    name="long",
                    source=Pin("long.s", Point(0.5, 0.5)),
                    sinks=[Pin("long.t", Point(3.5, 0.5))],
                ),
                Net(
                    name="short",
                    source=Pin("short.s", Point(1.5, 0.5)),
                    sinks=[Pin("short.t", Point(2.5, 0.5))],
                ),
            ]
        )
        chosen = router._round(netlist, candidates)
        assert sorted(chosen["short"].edges()) == sorted(
            self._tree(detour).edges()
        )
        stats = wire_congestion_stats(graph)
        assert stats.overflow == 0

    def test_tie_break_is_seeded_and_stable(self):
        # Two symmetric candidates with identical congestion cost: the
        # pick must be reproducible for a fixed seed.
        def run(seed):
            graph = TileGraph(
                Rect(0, 0, 3.0, 2.0), 3, 2, CapacityModel.uniform(4)
            )
            router = McfRouter(graph, McfOptions(seed=seed))
            low = [(0, 0), (1, 0), (2, 0), (2, 1)]
            high = [(0, 0), (0, 1), (1, 1), (2, 1)]
            candidates = {"n": [self._tree(low, "n"), self._tree(high, "n")]}
            netlist = Netlist(
                nets=[
                    Net(
                        name="n",
                        source=Pin("n.s", Point(0.5, 0.5)),
                        sinks=[Pin("n.t", Point(2.5, 1.5))],
                    )
                ]
            )
            return sorted(router._round(netlist, candidates)["n"].edges())

        assert run(0) == run(0)
        assert run(123) == run(123)

    def test_known_fractional_optimum_rounds_cleanly(self):
        # Hand-checkable instance: two (0,0)->(1,1) nets on a 2x2 grid
        # of unit capacity. The fractional optimum splits each net over
        # the two disjoint L-paths (congestion 1); rounding must realize
        # it exactly by giving each net its own path — zero overflow.
        graph = TileGraph(
            Rect(0, 0, 2.0, 2.0), 2, 2, CapacityModel.uniform(1)
        )
        netlist = _netlist([((0.5, 0.5), (1.5, 1.5)), ((0.5, 0.5), (1.5, 1.5))])
        routes = McfRouter(graph, McfOptions(iterations=6)).route_all(netlist)
        stats = wire_congestion_stats(graph)
        assert stats.overflow == 0
        assert sorted(routes["n0"].edges()) != sorted(routes["n1"].edges())


class TestPlannerIntegration:
    def test_rabid_with_mcf_router(self):
        from repro.core import RabidConfig, RabidPlanner

        graph = _graph(capacity=6, size=12)
        for tile in graph.tiles():
            graph.set_sites(tile, 2)
        netlist = _netlist(
            [((0.5, 0.5 + i), (11.5, 0.5 + i)) for i in range(5)]
        )
        config = RabidConfig(length_limit=4, router="mcf", stage4_iterations=1)
        result = RabidPlanner(graph, netlist, config).run()
        assert result.final_metrics.overflows == 0
        assert result.final_metrics.num_buffers > 0

    def test_unknown_router_rejected(self):
        from repro.core import RabidConfig

        with pytest.raises(ConfigurationError):
            RabidConfig(router="quantum")
