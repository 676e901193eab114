"""Stage 4 exception safety: ripped-out buffers are restored on failure.

Stage 4 rips a net's buffers out of the tile graph before rerouting its
two paths. If the reroute or the reinsertion DP raises, the planner must
put the ripped-out site bookings back before propagating — otherwise the
graph's b(v) accounting is silently corrupted for every later caller.
"""

import pytest

import repro.core.rabid as rabid_module
from repro.core import RabidConfig, RabidPlanner
from repro.geometry import Point, Rect
from repro.netlist import Net, Netlist, Pin
from repro.obs import Tracer
from repro.tilegraph import CapacityModel, TileGraph


def _design(n=6, size=8):
    die = Rect(0, 0, float(size), float(size))
    graph = TileGraph(die, size, size, CapacityModel.uniform(6))
    for tile in graph.tiles():
        graph.set_sites(tile, 2)
    nets = []
    for i in range(n):
        y = 0.5 + (i % size)
        nets.append(
            Net(
                name=f"n{i}",
                source=Pin(f"n{i}.s", Point(0.5, y)),
                sinks=[Pin(f"n{i}.a", Point(size - 0.5, y))],
            )
        )
    return graph, Netlist(nets=nets)


class _Boom(Exception):
    pass


def _run_through_stage3(graph, netlist):
    planner = RabidPlanner(graph, netlist, RabidConfig(length_limit=3))
    planner.stage1()
    planner.stage2()
    planner.stage3()
    return planner


def test_stage4_restores_sites_when_reroute_raises(monkeypatch):
    graph, netlist = _design()
    planner = _run_through_stage3(graph, netlist)
    assert graph.total_used_sites > 0, "fixture must place buffers in stage 3"
    before = graph.used_sites.copy()

    # Fault on the very first net: nothing else has been reprocessed, so
    # the restore must bring the graph back to exactly the stage-3 state.
    def exploding(*args, **kwargs):
        raise _Boom("injected reroute failure")

    monkeypatch.setattr(rabid_module, "optimize_two_paths", exploding)

    with pytest.raises(_Boom):
        planner.stage4()

    assert (graph.used_sites == before).all()
    assert graph.total_used_sites == before.sum()


def test_stage4_mid_pass_fault_keeps_invariants(monkeypatch):
    """A fault after some nets completed still leaves 0 <= b(v) <= B(v)."""
    graph, netlist = _design()
    planner = _run_through_stage3(graph, netlist)

    calls = {"n": 0}
    state = {}
    real = rabid_module.assign_buffers_to_net

    def flaky_dp(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 3:
            state["at_raise"] = graph.used_sites.copy()
            raise _Boom("DP blew up mid-pass")
        return real(*args, **kwargs)

    monkeypatch.setattr(rabid_module, "assign_buffers_to_net", flaky_dp)

    with pytest.raises(_Boom):
        planner.stage4()

    # The in-flight net's ripped-out bookings came back (its buffers were
    # unbooked at rip time, so the post-fault state must be a superset of
    # the snapshot taken at the raise) ...
    restored = graph.used_sites - state["at_raise"]
    assert (restored >= 0).all()
    assert restored.sum() > 0
    # ... and earlier nets' legitimate updates kept the accounting legal.
    Tracer().check_site_invariants(graph, "post-fault")
    assert (graph.used_sites >= 0).all()
    assert (graph.used_sites <= graph.sites).all()

