"""Stage 3's one solver (:func:`solve_net`), its Eq. (2) gather, and the
retired strategy registry's config keys."""

import math

import pytest

from repro.core import RabidConfig
from repro.core.assignment import Stage3CostField, assign_buffers_to_net, solve_net
from repro.core.candidates import oversubscribes
from repro.core.costs import buffer_site_cost
from repro.core.multi_sink import insert_buffers_multi_sink
from repro.core.multi_type import assign_buffer_kinds
from repro.core.probability import UsageProbability
from repro.core.single_sink import insert_buffers_single_sink
from repro.errors import ConfigurationError
from repro.obs import Tracer
from repro.routing.tree import BufferSpec, RouteTree
from repro.technology import TECH_180NM, resolve_library
from repro.timing.elmore import net_delay
from repro.timing.van_ginneken import timing_driven_buffering


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
    """The strategy registry is retired; ``RabidConfig.from_dict`` loads
    its names where the one solver reproduces their plans and refuses
    the rest."""

    def test_every_name_constructs(self):
        for name in ("dp", "multi_type"):
            config = RabidConfig.from_dict({"stage3_solver": name})
            assert config == RabidConfig()
        for name in ("single_sink", "greedy", "van_ginneken"):
            with pytest.raises(ConfigurationError, match=name):
                RabidConfig.from_dict({"stage3_solver": name})

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            RabidConfig.from_dict({"stage3_solver": "simulated_annealing"})

    def test_dp_refused_with_a_multi_kind_library(self):
        """Under ``tech`` the ``dp`` strategy placed unsized buffers; the
        one solver would size them, so such a config cannot load."""
        tech = {"buffer_library": "tech"}
        with pytest.raises(ConfigurationError, match="dp"):
            RabidConfig.from_dict({**tech, "stage3_solver": "dp"})
        with pytest.raises(ConfigurationError, match="dp"):
            RabidConfig.from_dict({**tech, "stage3_solvers": {"a": "dp"}})
        config = RabidConfig.from_dict({**tech, "stage3_solver": "multi_type"})
        assert config == RabidConfig(buffer_library="tech")

    def test_per_net_entries_retired(self):
        config = RabidConfig.from_dict(
            {"stage3_solvers": {"a": "dp", "b": "multi_type"}}
        )
        assert config == RabidConfig()
        for bad in ({"a": "greedy"}, {"a": "van_ginneken"}, ["dp"], {"a": 3}):
            with pytest.raises(ConfigurationError):
                RabidConfig.from_dict({"stage3_solvers": bad})

    def test_config_has_no_solver_fields(self):
        written = RabidConfig().as_dict()
        assert "stage3_solver" not in written
        assert "stage3_solvers" not in written


class TestStrategies:
    def test_dp_and_single_sink_agree_on_chains(self, graph10_sites):
        """The Fig. 6 path DP and the Fig. 9 tree DP price a chain alike."""
        tiles = [(i, 0) for i in range(9)]
        tree = _path_tree(tiles)
        cost_of = Stage3CostField(graph10_sites).cost_fn(tree)
        dp = insert_buffers_multi_sink(tree, cost_of, 3)
        ss_cost, ss_specs, ss_feasible = insert_buffers_single_sink(
            tiles, cost_of, 3
        )
        assert dp.feasible and ss_feasible
        assert dp.cost == pytest.approx(ss_cost)
        assert len(dp.buffers) == len(ss_specs)

    def test_solvers_do_not_mutate(self, graph10_sites):
        tree = _path_tree([(i, 0) for i in range(9)])
        for library in ("single", "tech"):
            out = solve_net(
                graph10_sites, tree, 3, Stage3CostField(graph10_sites),
                TECH_180NM, resolve_library(library, TECH_180NM),
            )
            assert out.feasible and out.buffers
            assert graph10_sites.total_used_sites == 0
            assert tree.buffer_count() == 0

    def test_greedy_via_assignment_books_sites(self, graph10):
        """A proposal that stacks a tile past ``B(v)`` is rolled back and
        the greedy fallback books within the free sites instead."""
        tree = _fork_tree()
        graph10.set_sites((2, 0), 1)
        proposal = solve_net(graph10, tree, 2, Stage3CostField(graph10))
        assert [s.tile for s in proposal.buffers] == [(2, 0), (2, 0)]
        tracer = Tracer()
        meets, dp_ok, cost = assign_buffers_to_net(
            graph10, tree, 2, tracer=tracer
        )
        assert dp_ok and not meets
        assert cost == float("inf")
        assert tracer.metrics.value("stage3.ledger_rollbacks") == 1
        assert graph10.total_used_sites == tree.buffer_count() == 1

    def test_greedy_fallback_sized_over_the_library(self, graph10):
        """Under ``tech`` the greedy fallback's buffers carry the kinds
        :func:`assign_buffer_kinds` picks at their positions, booked by
        kind; the worst sink delay is no worse than all-default buffers'."""
        tree = _fork_tree()
        graph10.set_sites((2, 0), 1)
        library = resolve_library("tech", TECH_180NM)
        meets, dp_ok, cost = assign_buffers_to_net(
            graph10, tree, 2, technology=TECH_180NM, library=library
        )
        assert dp_ok and not meets and cost == float("inf")
        specs = tree.buffer_specs()
        unsized = [BufferSpec(s.tile, s.drives_child) for s in specs]
        assert specs == assign_buffer_kinds(
            tree, graph10, TECH_180NM, library, unsized
        )
        assert [s.kind for s in specs] == ["BUF_X2"]
        assert graph10.kind_used == {(graph10.ny * 2, "BUF_X2"): 1}
        sized = net_delay(tree, graph10, TECH_180NM, library).max_delay
        tree.apply_buffers(unsized)
        assert sized <= net_delay(tree, graph10, TECH_180NM, library).max_delay


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
    """On uniform single-sink chains the delay-optimal van Ginneken
    solution and the length-based Fig. 6 DP at L=3 (the 0.18um optimal
    repeater spacing on 1mm tiles) insert the same number of buffers."""

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
        _, vg_specs = timing_driven_buffering(tree, graph, TECH_180NM)
        _, dp_specs, feasible = insert_buffers_single_sink(
            tiles, Stage3CostField(graph).cost_fn(tree), 3
        )
        assert feasible
        assert len(vg_specs) == len(dp_specs)


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
