"""Timing-driven (van Ginneken) buffer insertion."""

import pytest

from repro.core import insert_buffers_multi_sink
from repro.routing.tree import RouteTree
from repro.technology import TECH_180NM
from repro.timing import net_delay, rebuffer_net_timing_driven, timing_driven_buffering
from repro.tilegraph import CapacityModel, TileGraph
from repro.geometry import Rect


def _graph(size=20, sites=3):
    g = TileGraph(Rect(0, 0, float(size), float(size)), size, size,
                  CapacityModel.uniform(10))
    for tile in g.tiles():
        g.set_sites(tile, sites)
    return g


def _path_tree(tiles):
    parent = {b: a for a, b in zip(tiles, tiles[1:])}
    return RouteTree.from_parent_map(tiles[0], parent, [tiles[-1]])


class TestTimingDriven:
    def test_improves_long_line(self):
        g = _graph()
        tree = _path_tree([(i, 0) for i in range(16)])
        before = net_delay(tree, g, TECH_180NM).max_delay
        delay, specs = timing_driven_buffering(tree, g, TECH_180NM)
        assert delay < before
        assert specs  # a 15mm line in 0.18um wants repeaters

    def test_reported_delay_matches_elmore(self):
        g = _graph()
        tree = _path_tree([(i, 0) for i in range(16)])
        delay, specs = timing_driven_buffering(tree, g, TECH_180NM)
        tree.apply_buffers(specs)
        measured = net_delay(tree, g, TECH_180NM).max_delay
        assert measured == pytest.approx(delay, rel=1e-9)

    def test_short_net_unbuffered(self):
        g = _graph()
        tree = _path_tree([(0, 0), (1, 0)])
        delay, specs = timing_driven_buffering(tree, g, TECH_180NM)
        assert specs == []

    def test_no_sites_means_no_buffers(self):
        g = _graph(sites=0)
        tree = _path_tree([(i, 0) for i in range(16)])
        delay, specs = timing_driven_buffering(tree, g, TECH_180NM)
        assert specs == []
        assert delay == pytest.approx(
            net_delay(tree, g, TECH_180NM).max_delay, rel=1e-9
        )

    def test_respects_site_predicate(self):
        g = _graph()
        allowed = {(5, 0), (10, 0)}
        tree = _path_tree([(i, 0) for i in range(16)])
        _, specs = timing_driven_buffering(
            tree, g, TECH_180NM, site_available=lambda t: t in allowed
        )
        assert {s.tile for s in specs} <= allowed

    def test_beats_or_matches_length_based(self):
        # Same net, same sites: the delay-optimal solution can't be worse
        # than the length-based DP's.
        g = _graph()
        tiles = [(i, 0) for i in range(16)]
        tree = _path_tree(tiles)
        result = insert_buffers_multi_sink(tree, lambda t: 1.0, 5)
        tree.apply_buffers(result.buffers)
        length_based = net_delay(tree, g, TECH_180NM).max_delay
        tree.clear_buffers()
        vg_delay, _ = timing_driven_buffering(tree, g, TECH_180NM)
        assert vg_delay <= length_based + 1e-15

    def test_multi_sink_decoupling(self):
        g = _graph()
        stem = [(i, 0) for i in range(8)]
        branch = [(4, 0)] + [(4, y) for y in range(1, 10)]
        tree = RouteTree.from_paths((0, 0), [stem, branch], [(7, 0), (4, 9)])
        before = net_delay(tree, g, TECH_180NM)
        delay, specs = timing_driven_buffering(tree, g, TECH_180NM)
        tree.apply_buffers(specs)
        after = net_delay(tree, g, TECH_180NM)
        assert after.max_delay < before.max_delay

    def test_brute_force_small_path(self):
        # All 2^k buffer subsets on a short path (trunk buffers only).
        from itertools import combinations

        from repro.routing.tree import BufferSpec

        g = _graph()
        tiles = [(i, 0) for i in range(7)]
        tree = _path_tree(tiles)
        best = net_delay(tree, g, TECH_180NM).max_delay
        interior = tiles[1:-1]
        for k in range(1, len(interior) + 1):
            for combo in combinations(interior, k):
                tree.apply_buffers([BufferSpec(t, None) for t in combo])
                best = min(best, net_delay(tree, g, TECH_180NM).max_delay)
        tree.clear_buffers()
        vg_delay, _ = timing_driven_buffering(tree, g, TECH_180NM)
        assert vg_delay == pytest.approx(best, rel=1e-9)


class TestRebuffer:
    def test_site_accounting_consistent(self):
        g = _graph()
        tree = _path_tree([(i, 0) for i in range(16)])
        result = insert_buffers_multi_sink(tree, lambda t: 1.0, 5)
        tree.apply_buffers(result.buffers)
        for s in result.buffers:
            g.use_site(s.tile, 1)
        before_used = g.total_used_sites
        rebuffer_net_timing_driven(tree, g, TECH_180NM)
        assert g.total_used_sites == tree.buffer_count()

    def test_delay_not_worse_after_rebuffer(self):
        g = _graph()
        tree = _path_tree([(i, 0) for i in range(16)])
        result = insert_buffers_multi_sink(tree, lambda t: 1.0, 5)
        tree.apply_buffers(result.buffers)
        for s in result.buffers:
            g.use_site(s.tile, 1)
        before = net_delay(tree, g, TECH_180NM).max_delay
        after = rebuffer_net_timing_driven(tree, g, TECH_180NM)
        assert after <= before + 1e-15

    def test_rebuffer_never_oversubscribes(self):
        # One free site per tile: the rebuffered net must keep b <= B.
        g = _graph(sites=1)
        tree = _path_tree([(i, 0) for i in range(16)])
        result = insert_buffers_multi_sink(tree, lambda t: 1.0, 5)
        tree.apply_buffers(result.buffers)
        for s in result.buffers:
            g.use_site(s.tile, 1)
        rebuffer_net_timing_driven(tree, g, TECH_180NM)
        assert int(g.used_sites.max()) <= 1

    def test_rebuffer_keeps_old_when_new_is_slower(self):
        # With no free sites anywhere else, the VG pass can only produce
        # the unbuffered net; the old (buffered, faster) solution must be
        # kept.
        g = _graph(sites=0)
        tree = _path_tree([(i, 0) for i in range(16)])
        from repro.routing.tree import BufferSpec

        specs = [BufferSpec((5, 0), None), BufferSpec((10, 0), None)]
        tree.apply_buffers(specs)
        for s in specs:
            g.use_site(s.tile, 1)  # legacy booking (oversubscribed B=0)
        before = net_delay(tree, g, TECH_180NM).max_delay
        after = rebuffer_net_timing_driven(tree, g, TECH_180NM)
        assert after == pytest.approx(before)
        assert tree.buffer_count() == 2


class TestMultiTypeKernel:
    """The same kernel with a buffer library: Li-Shi multi-type insertion.

    Parity contract: a single-kind library built from the technology's own
    repeater floats must be byte-identical to the classic b=1 run, and the
    3-kind ``tech`` library can only improve the optimal delay (the b=1
    solution is in its search space). Checked on single-sink paths, where
    the classic algorithm is provably delay-optimal.
    """

    @pytest.mark.parametrize("n", [4, 7, 10, 16])
    def test_single_kind_library_is_byte_identical(self, n):
        from repro.technology import resolve_library

        g = _graph()
        tree = _path_tree([(i, 0) for i in range(n)])
        classic_delay, classic_specs = timing_driven_buffering(
            tree, g, TECH_180NM
        )
        lib_delay, lib_specs = timing_driven_buffering(
            tree, g, TECH_180NM,
            library=resolve_library("single", TECH_180NM),
        )
        assert lib_delay == classic_delay
        assert lib_specs == classic_specs
        assert all(s.kind == "" for s in lib_specs)

    @pytest.mark.parametrize("n", [7, 10, 16])
    def test_tech_library_never_slower(self, n):
        from repro.technology import resolve_library

        g = _graph()
        tree = _path_tree([(i, 0) for i in range(n)])
        classic_delay, _ = timing_driven_buffering(tree, g, TECH_180NM)
        library = resolve_library("tech", TECH_180NM)
        lib_delay, lib_specs = timing_driven_buffering(
            tree, g, TECH_180NM, library=library
        )
        assert lib_delay <= classic_delay * (1 + 1e-12)
        # The reported delay is the Elmore delay of the annotated tree.
        tree.apply_buffers(lib_specs)
        measured = net_delay(tree, g, TECH_180NM, library).max_delay
        assert measured == pytest.approx(lib_delay, rel=1e-9)

    def test_multi_type_solver_parity_on_single_sink_paths(self):
        """The two multi-type implementations must order correctly on
        single-sink paths: the van Ginneken kernel optimizes positions AND
        kinds jointly, so its delay lower-bounds Stage 3's sized solve
        (whose positions are fixed by the length DP) — and both beat the
        single-kind Stage-3 assignment."""
        from repro.core.assignment import Stage3CostField, solve_net
        from repro.technology import resolve_library

        library = resolve_library("tech", TECH_180NM)
        single = resolve_library("single", TECH_180NM)
        for n in (7, 13, 19):
            g = _graph(size=max(n, 20))
            tree = _path_tree([(i, 0) for i in range(n)])
            vg_delay, _ = timing_driven_buffering(
                tree, g, TECH_180NM, library=library
            )
            field = Stage3CostField(g)
            mt = solve_net(g, tree, 3, field, TECH_180NM, library)
            assert mt.feasible
            tree.apply_buffers(mt.buffers)
            mt_delay = net_delay(tree, g, TECH_180NM, library).max_delay
            dp = solve_net(g, tree, 3, field, TECH_180NM, single)
            tree.apply_buffers(dp.buffers)
            dp_delay = net_delay(tree, g, TECH_180NM, library).max_delay
            assert vg_delay <= mt_delay * (1 + 1e-12)
            assert mt_delay <= dp_delay * (1 + 1e-12)
