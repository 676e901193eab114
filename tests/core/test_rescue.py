"""Stage-4 rescue pass: whole-net bufferable re-routing."""

import pytest

from repro.core import RabidConfig, RabidPlanner
from repro.core.length_rule import length_violations
from repro.core.rescue import rescue_failing_nets, rescue_net
from repro.geometry import Point, Rect
from repro.netlist import Net, Netlist, Pin
from repro.obs import Tracer
from repro.routing.tree import BufferSpec, RouteTree
from repro.technology import TECH_180NM, resolve_library
from repro.tilegraph import CapacityModel, TileGraph, wire_congestion_stats
from repro.timing.elmore import net_delay


def _graph_with_dead_band(size=14, band_x=(5, 9), sites=2, capacity=8):
    """Sites everywhere except a vertical band (rows of columns 5..8)...

    The band is siteless but only ``band rows y < 10``: routes can detour
    over the top (y >= 10), where sites exist in every column.
    """
    g = TileGraph(Rect(0, 0, float(size), float(size)), size, size,
                  CapacityModel.uniform(capacity))
    for tile in g.tiles():
        in_band = band_x[0] <= tile[0] < band_x[1] and tile[1] < 10
        if not in_band:
            g.set_sites(tile, sites)
    return g


def _straight_net_tree(g, y=2):
    tiles = [(i, y) for i in range(14)]
    parent = {b: a for a, b in zip(tiles, tiles[1:])}
    return RouteTree.from_parent_map(tiles[0], parent, [tiles[-1]], net_name="n")


class TestRescueNet:
    def test_detours_around_dead_band(self):
        g = _graph_with_dead_band()
        tree = _straight_net_tree(g)
        tree.add_usage(g)
        # L=3 cannot cross the 4-wide dead band on the straight route.
        from repro.core.assignment import assign_buffers_to_net

        meets, _, _ = assign_buffers_to_net(g, tree, 3, None)
        assert not meets
        new_tree, changed = rescue_net(g, tree, 3, window_margin=12)
        assert changed
        assert length_violations(new_tree, 3) == 0
        # The rescued route leaves the dead rows.
        assert any(t[1] >= 10 for t in new_tree.nodes)

    def test_usage_consistent_after_rescue(self):
        g = _graph_with_dead_band()
        tree = _straight_net_tree(g)
        tree.add_usage(g)
        from repro.core.assignment import assign_buffers_to_net

        assign_buffers_to_net(g, tree, 3, None)
        new_tree, _ = rescue_net(g, tree, 3, window_margin=12)
        h, v = g.h_usage.copy(), g.v_usage.copy()
        used = g.used_sites.copy()
        g.h_usage[:] = 0
        g.v_usage[:] = 0
        g.used_sites[:] = 0
        new_tree.add_usage(g)
        assert (g.h_usage == h).all()
        assert (g.v_usage == v).all()
        assert (g.used_sites == used).all()

    def test_searches_through_the_two_path_module(self, monkeypatch):
        # A wrapper installed on the module (as the benchmark's span
        # recorder does) must see rescue's searches, not only Stage 4's.
        from repro.core import two_path

        calls = []
        original = two_path.best_buffered_path

        def counting(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(two_path, "best_buffered_path", counting)
        g = _graph_with_dead_band()
        tree = _straight_net_tree(g)
        tree.add_usage(g)
        from repro.core.assignment import assign_buffers_to_net

        assign_buffers_to_net(g, tree, 3, None)
        _, changed = rescue_net(g, tree, 3, window_margin=12)
        assert changed
        assert calls == [(13, 2)]

    def test_rescued_net_sized_over_the_library(self):
        """A rescued net is buffered like a Stage-3 or Stage-4 net: sized
        over the plan's multi-kind library, never slower than with every
        buffer the default kind, and its kinds booked on the graph."""
        g = _graph_with_dead_band()
        tree = _straight_net_tree(g)
        tree.add_usage(g)
        from repro.core.assignment import assign_buffers_to_net

        assign_buffers_to_net(g, tree, 3, None)
        routes = {"n": tree}
        library = resolve_library("tech", TECH_180NM)
        residue = rescue_failing_nets(
            g, routes, ["n"], {"n": 3}, window_margin=12,
            technology=TECH_180NM, library=library,
        )
        assert residue == []
        rescued = routes["n"]
        assert rescued is not tree
        specs = rescued.buffer_specs()
        kinded = [s for s in specs if s.kind]
        assert kinded
        assert sum(g.kind_used.values()) == len(kinded)
        sized = net_delay(rescued, g, TECH_180NM, library).max_delay
        rescued.apply_buffers([BufferSpec(s.tile, s.drives_child) for s in specs])
        default = net_delay(rescued, g, TECH_180NM, library).max_delay
        assert sized <= default

    def test_noop_when_already_legal(self, graph10_sites):
        tiles = [(i, 0) for i in range(4)]
        parent = {b: a for a, b in zip(tiles, tiles[1:])}
        tree = RouteTree.from_parent_map((0, 0), parent, [(3, 0)], net_name="ok")
        tree.add_usage(graph10_sites)
        new_tree, changed = rescue_net(graph10_sites, tree, 5)
        assert not changed
        assert new_tree is tree

    def test_rollback_when_unfixable(self):
        # No sites anywhere: nothing to rescue toward; original restored.
        g = TileGraph(Rect(0, 0, 14, 14), 14, 14, CapacityModel.uniform(8))
        tree = _straight_net_tree(g)
        tree.add_usage(g)
        h_before = g.h_usage.copy()
        new_tree, changed = rescue_net(g, tree, 3)
        assert not changed
        assert new_tree is tree
        assert (g.h_usage == h_before).all()


class TestPlannerIntegration:
    def _design(self):
        g = _graph_with_dead_band()
        nets = [
            Net(
                name=f"n{i}",
                source=Pin(f"n{i}.s", Point(0.5, 1.5 + i)),
                sinks=[Pin(f"n{i}.t", Point(13.5, 1.5 + i))],
            )
            for i in range(3)
        ]
        return g, Netlist(nets=nets)

    def test_rescue_reduces_fails(self):
        g1, nl1 = self._design()
        off = RabidPlanner(
            g1, nl1,
            RabidConfig(length_limit=3, window_margin=12,
                        stage4_iterations=1, rescue_failing=False),
        ).run()
        g2, nl2 = self._design()
        on = RabidPlanner(
            g2, nl2,
            RabidConfig(length_limit=3, window_margin=12,
                        stage4_iterations=1, rescue_failing=True),
        ).run()
        assert len(on.failed_nets) <= len(off.failed_nets)
        assert len(on.failed_nets) == 0

    def test_rescue_preserves_capacity_guarantees(self):
        g, nl = self._design()
        result = RabidPlanner(
            g, nl,
            RabidConfig(length_limit=3, window_margin=12, stage4_iterations=1),
        ).run()
        assert wire_congestion_stats(g).overflow == 0
        from repro.tilegraph import buffer_density_stats

        assert buffer_density_stats(g).overflow == 0

    def test_planner_passes_its_library_to_rescue(self):
        """With no Stage-4 passes every failing Stage-3 net goes straight
        to rescue; under the ``tech`` library each rescued net is sized."""
        g, nl = self._design()
        tracer = Tracer()
        result = RabidPlanner(
            g, nl,
            RabidConfig(length_limit=3, window_margin=12, stage4_iterations=0,
                        buffer_library="tech"),
            tracer=tracer,
        ).run()
        rescued = [e.net for e in tracer.events if e.kind == "rescued"]
        assert rescued and result.failed_nets == []
        for name in rescued:
            assert any(s.kind for s in result.routes[name].buffer_specs())

    def test_planner_passes_its_tracer_to_rescue(self, monkeypatch):
        """Every buffering of a rescue re-route reports to the plan's tracer."""
        import repro.core.rescue as rescue_module

        seen = []
        real = rescue_module.assign_buffers_to_net

        def spy(*args, **kwargs):
            seen.append(kwargs.get("tracer"))
            return real(*args, **kwargs)

        monkeypatch.setattr(rescue_module, "assign_buffers_to_net", spy)
        g, nl = self._design()
        tracer = Tracer()
        RabidPlanner(
            g, nl,
            RabidConfig(length_limit=3, window_margin=12, stage4_iterations=0),
            tracer=tracer,
        ).run()
        assert seen and all(t is tracer for t in seen)

    def test_rescue_failing_nets_returns_residue(self):
        g = TileGraph(Rect(0, 0, 14, 14), 14, 14, CapacityModel.uniform(8))
        tree = _straight_net_tree(g)
        tree.add_usage(g)
        residue = rescue_failing_nets(g, {"n": tree}, ["n"], {"n": 3})
        assert residue == ["n"]
