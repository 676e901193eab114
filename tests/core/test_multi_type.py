"""Li–Shi kind sizing over the Fig. 9 DP's placements.

Covers the one Stage-3 solver (:func:`solve_net`) from both sides: with
a single-kind library it is the plain Fig. 9 DP (same specs, all
default kind), and with the 3-kind ``tech`` library it keeps the
placements but re-sizes buffers to cut Elmore delay, with the O(b)
candidate-list bound visible in the counters.
"""

import pytest

from repro.core import RabidConfig, run_buffer_walk
from repro.core.assignment import Stage3CostField, solve_net
from repro.core.multi_sink import insert_buffers_multi_sink
from repro.core.multi_type import assign_buffer_kinds
from repro.errors import ConfigurationError
from repro.obs import Tracer
from repro.routing.tree import BufferSpec, RouteTree
from repro.technology import TECH_180NM, resolve_library
from repro.timing.elmore import net_delay


def _path_tree(tiles, name="n"):
    parent = {b: a for a, b in zip(tiles, tiles[1:])}
    return RouteTree.from_parent_map(tiles[0], parent, [tiles[-1]], net_name=name)


def _fork_tree():
    parent = {
        (1, 0): (0, 0), (2, 0): (1, 0),
        (3, 0): (2, 0), (4, 0): (3, 0),
        (2, 1): (2, 0), (2, 2): (2, 1),
    }
    return RouteTree.from_parent_map((0, 0), parent, [(4, 0), (2, 2)], net_name="f")


def _dp(graph, tree, limit=3):
    """The plain Fig. 9 DP over the net's Eq. (2) gather."""
    cost_of = Stage3CostField(graph).cost_fn(tree)
    return insert_buffers_multi_sink(tree, cost_of, limit)


def _solve(graph, tree, library="single", limit=3, tracer=None):
    return solve_net(
        graph, tree, limit, Stage3CostField(graph), TECH_180NM,
        resolve_library(library, TECH_180NM), tracer=tracer,
    )


class TestConstruction:
    def test_unknown_library_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_library("sram", TECH_180NM)
        with pytest.raises(ConfigurationError):
            RabidConfig(buffer_library="sram")

    def test_registry_constructs_with_library(self, graph10_sites):
        """The walk sizes over the library its config names."""
        tree = _path_tree([(i, 0) for i in range(9)])
        tracer = Tracer()
        run_buffer_walk(
            graph10_sites, {"n": tree}, {"n": 3}, ["n"],
            RabidConfig(buffer_library="tech"), tracer=tracer,
        )
        assert tracer.metrics.value("dp.kinds") == 3


class TestSingleKindReduction:
    """b = 1 must reduce to the plain Fig. 9 DP exactly."""

    @pytest.mark.parametrize("tree_of", [
        lambda: _path_tree([(i, 0) for i in range(9)]),
        _fork_tree,
    ])
    def test_specs_equal_dp(self, graph10_sites, tree_of):
        dp = _dp(graph10_sites, tree_of())
        mt = _solve(graph10_sites, tree_of())
        assert dp.feasible and mt.feasible
        assert mt.buffers == dp.buffers
        assert mt.cost == dp.cost
        assert all(s.kind == "" for s in mt.buffers)

    def test_infeasible_passthrough(self, graph10):
        # No sites anywhere: the placement DP fails and the sized solve
        # must report exactly what the DP reports.
        tree = _path_tree([(i, 0) for i in range(9)])
        dp = _dp(graph10, tree)
        mt = _solve(graph10, tree, "tech")
        assert not dp.feasible and not mt.feasible
        assert mt.buffers == dp.buffers


class TestKindAssignment:
    def _solved(self, graph, tree, tracer=None):
        library = resolve_library("tech", TECH_180NM)
        return library, _solve(graph, tree, "tech", tracer=tracer)

    def test_positions_unchanged(self, graph10_sites):
        tree = _path_tree([(i, 0) for i in range(9)])
        dp = _dp(graph10_sites, tree)
        _, mt = self._solved(graph10_sites, tree)
        assert [(s.tile, s.drives_child) for s in mt.buffers] == [
            (s.tile, s.drives_child) for s in dp.buffers
        ]
        assert mt.cost == dp.cost

    def test_kinds_come_from_library(self, graph10_sites):
        library, out = self._solved(
            graph10_sites, _path_tree([(i, 0) for i in range(9)])
        )
        names = {k.name for k in library.kinds}
        for spec in out.buffers:
            assert spec.kind == "" or spec.kind in names

    def test_delay_no_worse_than_default_kinds(self, graph10_sites):
        """The all-default assignment is always a candidate, so sizing can
        only improve the worst Elmore sink delay."""
        tree = _path_tree([(i, 0) for i in range(9)])
        library, out = self._solved(graph10_sites, tree)
        tree.apply_buffers(out.buffers)
        sized = net_delay(tree, graph10_sites, TECH_180NM, library).max_delay
        tree.apply_buffers(
            [BufferSpec(s.tile, s.drives_child) for s in out.buffers]
        )
        default = net_delay(tree, graph10_sites, TECH_180NM, library).max_delay
        assert sized <= default + 1e-15

    def test_counters(self, graph10_sites):
        tracer = Tracer()
        self._solved(
            graph10_sites, _path_tree([(i, 0) for i in range(9)]), tracer
        )
        assert tracer.metrics.get("dp.kinds").value == 3
        assert tracer.metrics.get("dp.kind_candidates").value > 0
        # Li-Shi: the surviving list right above a buffer carries at most
        # one candidate per distinct input cap — b of them.
        assert 1 <= tracer.metrics.get("dp.kind_list_max").value
        assert tracer.metrics.get("dp.candidates_pruned").value >= 0


class TestAssignBufferKindsDirect:
    def test_empty_specs(self, graph10_sites):
        tree = _path_tree([(i, 0) for i in range(4)])
        library = resolve_library("tech", TECH_180NM)
        assert assign_buffer_kinds(
            tree, graph10_sites, TECH_180NM, library, []
        ) == []

    def test_default_kind_normalized_to_empty(self, graph10_sites):
        """Whenever the DP picks the library default, the spec must carry
        ``""`` — that normalization is what keeps single-kind payloads and
        signatures byte-identical."""
        tree = _path_tree([(i, 0) for i in range(9)])
        library = resolve_library("single", TECH_180NM)
        specs = [BufferSpec((3, 0), None), BufferSpec((6, 0), None)]
        out = assign_buffer_kinds(
            tree, graph10_sites, TECH_180NM, library, specs
        )
        assert out == specs
        assert all(s.kind == "" for s in out)

    def test_order_preserved(self, graph10_sites):
        tree = _fork_tree()
        library = resolve_library("tech", TECH_180NM)
        specs = [
            BufferSpec((2, 0), (2, 1)),
            BufferSpec((2, 0), None),
            BufferSpec((3, 0), None),
        ]
        out = assign_buffer_kinds(
            tree, graph10_sites, TECH_180NM, library, specs
        )
        assert [(s.tile, s.drives_child) for s in out] == [
            (s.tile, s.drives_child) for s in specs
        ]
