"""The unified buffering-solver interface and its strategies."""

import math

import pytest

from repro.core.assignment import assign_buffers_to_net
from repro.core.candidates import oversubscribes
from repro.core.costs import buffer_site_cost
from repro.core.probability import UsageProbability
from repro.core.solver import (
    SOLVER_NAMES,
    GreedySolver,
    MultiSinkDPSolver,
    SingleSinkDPSolver,
    SolveRequest,
    Stage3CostField,
    VanGinnekenSolver,
    _as_path,
    make_solver,
    make_solver_lookup,
)
from repro.errors import ConfigurationError
from repro.routing.tree import BufferSpec, RouteTree
from repro.technology import TECH_180NM


def _path_tree(tiles, name="n"):
    parent = {b: a for a, b in zip(tiles, tiles[1:])}
    return RouteTree.from_parent_map(tiles[0], parent, [tiles[-1]], net_name=name)


def _fork_tree():
    """Source (0,0) forking at (2,0) to sinks (4,0) and (2,2)."""
    parent = {
        (1, 0): (0, 0), (2, 0): (1, 0),
        (3, 0): (2, 0), (4, 0): (3, 0),
        (2, 1): (2, 0), (2, 2): (2, 1),
    }
    return RouteTree.from_parent_map((0, 0), parent, [(4, 0), (2, 2)], net_name="f")


class TestRegistry:
    def test_every_name_constructs(self):
        for name in SOLVER_NAMES:
            solver = make_solver(name, technology=TECH_180NM)
            assert solver.name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            make_solver("simulated_annealing")

    def test_van_ginneken_requires_technology(self):
        with pytest.raises(ConfigurationError):
            make_solver("van_ginneken")

    def test_lookup_honors_overrides_and_caches_per_strategy(self):
        from repro.core import RabidConfig

        config = RabidConfig(stage3_solvers={"a": "greedy"})
        lookup = make_solver_lookup(config)
        assert lookup("a").name == "greedy"
        assert lookup("b").name == "dp"
        assert lookup("c") is lookup("b")
        assert make_solver_lookup(config)("b") is not lookup("b")


class TestAsPath:
    def test_chain_is_a_path(self):
        tiles = [(i, 0) for i in range(5)]
        assert _as_path(_path_tree(tiles)) == tiles

    def test_fork_is_not(self):
        assert _as_path(_fork_tree()) is None

    def test_single_tile(self):
        tree = RouteTree.from_parent_map((0, 0), {}, [(0, 0)], net_name="n")
        assert _as_path(tree) == [(0, 0)]


class TestStrategies:
    def _request(self, graph, tree, limit=3):
        field = Stage3CostField(graph)
        return SolveRequest(
            graph=graph, tree=tree, length_limit=limit, cost_of=field.cost_fn(tree)
        )

    def test_dp_and_single_sink_agree_on_chains(self, graph10_sites):
        tree = _path_tree([(i, 0) for i in range(9)])
        dp = MultiSinkDPSolver().solve(self._request(graph10_sites, tree))
        ss = SingleSinkDPSolver().solve(self._request(graph10_sites, tree))
        assert dp.feasible and ss.feasible
        assert dp.cost == pytest.approx(ss.cost)
        assert len(dp.specs) == len(ss.specs)
        assert ss.solver == "single_sink"

    def test_single_sink_delegates_on_forks(self, graph10_sites):
        out = SingleSinkDPSolver().solve(
            self._request(graph10_sites, _fork_tree())
        )
        assert out.solver == "dp"
        assert out.feasible

    def test_greedy_defers_to_commit_path(self, graph10_sites):
        out = GreedySolver().solve(
            self._request(graph10_sites, _path_tree([(i, 0) for i in range(9)]))
        )
        assert not out.feasible and out.specs == []

    def test_solvers_do_not_mutate(self, graph10_sites):
        tree = _path_tree([(i, 0) for i in range(9)])
        MultiSinkDPSolver().solve(self._request(graph10_sites, tree))
        assert graph10_sites.total_used_sites == 0
        assert tree.buffer_count() == 0

    def test_greedy_via_assignment_books_sites(self, graph10_sites):
        tree = _path_tree([(i, 0) for i in range(9)])
        meets, dp_ok, cost = assign_buffers_to_net(
            graph10_sites, tree, 3, solver=GreedySolver()
        )
        assert meets and not dp_ok
        assert cost == float("inf")
        assert graph10_sites.total_used_sites == tree.buffer_count() > 0


class TestCostField:
    def test_matches_scalar_eq2(self, graph10_sites):
        graph10_sites.use_site((2, 0), 2)
        graph10_sites.set_sites((5, 0), 0)
        prob = UsageProbability(graph10_sites)
        tree = _path_tree([(i, 0) for i in range(9)])
        prob.add_net(tree, 3)
        costs = Stage3CostField(graph10_sites, prob).cost_map(tree)
        for tile in costs:
            expected = buffer_site_cost(graph10_sites, tile, prob.value(tile))
            assert costs[tile] == expected or (
                math.isinf(costs[tile]) and math.isinf(expected)
            )

    def test_without_probability(self, graph10_sites):
        tree = _path_tree([(i, 0) for i in range(4)])
        costs = Stage3CostField(graph10_sites).cost_map(tree)
        for tile in costs:
            assert costs[tile] == buffer_site_cost(graph10_sites, tile)


class TestVanGinnekenParity:
    """Satellite check: on uniform single-sink chains the delay-optimal
    van Ginneken solution and the length-based DP at L=3 (the 0.18um
    optimal repeater spacing on 1mm tiles) insert the same number of
    buffers."""

    @pytest.mark.parametrize("n", [4, 7, 10, 13, 19, 24])
    def test_buffer_counts_agree_on_chains(self, n):
        from repro.geometry import Rect
        from repro.tilegraph import CapacityModel, TileGraph

        graph = TileGraph(
            Rect(0, 0, float(n), 1.0), n, 1, CapacityModel.uniform(10)
        )
        for tile in graph.tiles():
            graph.set_sites(tile, 3)
        tiles = [(i, 0) for i in range(n)]
        tree = _path_tree(tiles)
        field = Stage3CostField(graph)
        vg = VanGinnekenSolver(TECH_180NM).solve(
            SolveRequest(
                graph=graph, tree=tree, length_limit=3,
                cost_of=field.cost_fn(tree),
            )
        )
        dp = SingleSinkDPSolver().solve(
            SolveRequest(
                graph=graph, tree=tree, length_limit=3,
                cost_of=field.cost_fn(tree),
            )
        )
        assert vg.feasible and dp.feasible
        assert len(vg.specs) == len(dp.specs)


class TestOversubscribes:
    def test_counts_demand_per_tile(self, graph10_sites):
        graph10_sites.use_site((1, 0), 3)  # full
        specs = [BufferSpec((1, 0), None)]
        assert oversubscribes(graph10_sites, specs)
        assert not oversubscribes(graph10_sites, [BufferSpec((2, 0), None)])

    def test_freed_credits_own_sites(self, graph10_sites):
        """Satellite fix: a net re-buffering itself gets credit for the
        sites it frees."""
        graph10_sites.use_site((1, 0), 3)  # full, 2 of them "ours"
        specs = [BufferSpec((1, 0), None), BufferSpec((1, 0), None)]
        assert oversubscribes(graph10_sites, specs)
        assert not oversubscribes(graph10_sites, specs, freed={(1, 0): 2})

    def test_rebuffer_releases_before_solving(self, graph10):
        # One site per tile; the net already owns the only site at (2, 0).
        for x in range(7):
            graph10.set_sites((x, 0), 1)
        tree = _path_tree([(i, 0) for i in range(7)])
        meets, dp_ok, _ = assign_buffers_to_net(graph10, tree, 3)
        assert meets and dp_ok
        before = tree.buffer_counts()
        assert before  # it placed something
        # Re-buffer the same net: without the freed-site credit the DP
        # would see its own buffers as occupancy and could only degrade.
        meets2, dp_ok2, _ = assign_buffers_to_net(
            graph10, tree, 3, rebuffer=True
        )
        assert meets2 and dp_ok2
        assert graph10.total_used_sites == tree.buffer_count()
        assert tree.buffer_counts() == before  # deterministic re-solve
