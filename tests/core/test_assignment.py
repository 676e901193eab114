"""Stage-3 assignment over a design."""

import pytest

import repro.core.assignment as assignment
from repro.core import RabidConfig, RabidPlanner, run_buffer_walk
from repro.core.assignment import assign_buffers_to_net
from repro.core.length_rule import net_meets_length_rule
from repro.geometry import Point, Rect
from repro.netlist import Net, Netlist, Pin
from repro.routing.tree import RouteTree
from repro.tilegraph import CapacityModel, TileGraph, buffer_density_stats


def _path_tree(tiles, name):
    parent = {b: a for a, b in zip(tiles, tiles[1:])}
    return RouteTree.from_parent_map(tiles[0], parent, [tiles[-1]], net_name=name)


def _routes():
    return {
        "long": _path_tree([(i, 0) for i in range(9)], "long"),
        "short": _path_tree([(0, 5), (1, 5)], "short"),
        "mid": _path_tree([(i, 9) for i in range(6)], "mid"),
    }


def _walk(graph, routes, order, limit=3, **config):
    limits = {name: limit for name in routes}
    return run_buffer_walk(graph, routes, limits, order, RabidConfig(**config))


def _failed(outcomes):
    return [name for name, o in outcomes.items() if not o.meets]


class TestAssignNet:
    def test_updates_graph_counters(self, graph10_sites):
        tree = _path_tree([(i, 0) for i in range(9)], "n")
        meets, dp_ok, cost = assign_buffers_to_net(graph10_sites, tree, 3)
        assert meets and dp_ok
        assert graph10_sites.total_used_sites == tree.buffer_count() > 0

    def test_falls_back_when_infeasible(self, graph10):
        tree = _path_tree([(i, 0) for i in range(9)], "n")
        graph10.set_sites((4, 0), 1)  # one site; gaps of 4 remain
        meets, dp_ok, cost = assign_buffers_to_net(graph10, tree, 3)
        assert not dp_ok
        assert not meets
        assert cost == float("inf")
        assert graph10.total_used_sites == tree.buffer_count() == 1


class TestStage3:
    def test_all_nets_buffered_legally(self, graph10_sites):
        routes = _routes()
        outcomes = _walk(graph10_sites, routes, ["long", "mid", "short"])
        assert _failed(outcomes) == []
        assert (
            sum(len(o.specs) for o in outcomes.values())
            == graph10_sites.total_used_sites
        )
        for name, tree in routes.items():
            assert net_meets_length_rule(tree, 3), name

    def test_never_violates_site_capacity(self, graph10):
        # Scarce sites: 1 per tile on row 0 only.
        for x in range(10):
            graph10.set_sites((x, 0), 1)
        routes = {
            f"n{k}": _path_tree([(i, 0) for i in range(10)], f"n{k}")
            for k in range(4)
        }
        _walk(graph10, routes, sorted(routes))
        stats = buffer_density_stats(graph10)
        assert stats.overflow == 0
        assert stats.maximum <= 1.0

    def test_probability_spreads_usage(self, graph10_sites):
        # With p(v), early nets avoid tiles that later nets need... at
        # minimum the toggle must not break anything and both modes are
        # legal.
        for use_p in (True, False):
            graph10_sites.reset_usage()
            routes = _routes()
            outcomes = _walk(
                graph10_sites,
                routes,
                ["long", "mid", "short"],
                use_probability=use_p,
            )
            assert _failed(outcomes) == []

    def test_failed_nets_reported(self, graph10):
        routes = {"n": _path_tree([(i, 0) for i in range(10)], "n")}
        outcomes = _walk(graph10, routes, ["n"])
        assert _failed(outcomes) == ["n"]
        assert [n for n, o in outcomes.items() if not o.dp_ok] == ["n"]


def _straight_design(nets=6, size=12, sites_per_tile=2):
    """``nets`` two-pin nets, each spanning one full row of the die."""
    die = Rect(0.0, 0.0, float(size), float(size))
    graph = TileGraph(die, size, size, CapacityModel.uniform(8))
    for tile in graph.tiles():
        graph.set_sites(tile, sites_per_tile)
    netlist = Netlist(
        nets=[
            Net(
                name=f"n{k}",
                source=Pin(f"n{k}.s", Point(0.5, k + 0.5)),
                sinks=[Pin(f"n{k}.t", Point(size - 0.5, k + 0.5))],
            )
            for k in range(nets)
        ]
    )
    return graph, netlist


class TestStage3Fault:
    def test_raising_solve_leaves_no_site_booked(self, monkeypatch):
        graph, netlist = _straight_design()
        planner = RabidPlanner(graph, netlist, RabidConfig(length_limit=3))
        planner.stage1()
        before = graph.used_sites.copy()
        real_solve = assignment.solve_net
        solves = []

        def solve_then_fail(*args, **kwargs):
            solves.append(args[1].net_name)
            if len(solves) == 4:
                raise RuntimeError("injected solve failure")
            return real_solve(*args, **kwargs)

        monkeypatch.setattr(assignment, "solve_net", solve_then_fail)
        with pytest.raises(RuntimeError, match="injected"):
            planner.stage3()
        assert len(solves) == 4
        assert graph.used_sites.tolist() == before.tolist()
