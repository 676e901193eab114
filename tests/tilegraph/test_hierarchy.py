"""Hierarchical site budgeting (paper Section I-B recipe)."""

import pytest

from repro.errors import ConfigurationError
from repro.floorplan import Block, Floorplan
from repro.geometry import Point, Rect
from repro.netlist import Net, Netlist, Pin
from repro.tilegraph import CapacityModel, TileGraph
from repro.tilegraph.hierarchy import (
    CHANNELS,
    SiteDemand,
    block_budgets,
    unconstrained_site_demand,
)


def _setup():
    die = Rect(0, 0, 12, 12)
    graph = TileGraph(die, 12, 12, CapacityModel.uniform(8))
    plan = Floorplan(
        die=die,
        blocks=[
            Block(name="left", width=4, height=10, x=1, y=1),
            Block(name="right", width=4, height=10, x=7, y=1),
        ],
    )
    plan.validate()
    nets = [
        Net(
            name=f"n{i}",
            source=Pin(f"n{i}.s", Point(0.5, 1.5 + i)),
            sinks=[Pin(f"n{i}.t", Point(11.5, 1.5 + i))],
        )
        for i in range(6)
    ]
    return graph, plan, Netlist(nets=nets)


class TestDemandCensus:
    def test_counts_cover_all_buffers(self):
        graph, plan, netlist = _setup()
        demand = unconstrained_site_demand(graph, plan, netlist, length_limit=3)
        assert demand.total == graph.total_used_sites > 0
        assert sum(demand.per_block.values()) == demand.total

    def test_crossing_nets_demand_block_interiors(self):
        graph, plan, netlist = _setup()
        demand = unconstrained_site_demand(graph, plan, netlist, length_limit=3)
        # Nets cross both blocks; with L=3 over a 12-tile span, buffers
        # must land inside at least one block.
        assert demand.demand_for("left") + demand.demand_for("right") > 0

    def test_fails_come_from_the_census_run(self):
        graph, plan, netlist = _setup()
        demand = unconstrained_site_demand(
            graph, plan, netlist, length_limit=3, sites_per_tile=0
        )
        # No site anywhere: every net spans 11 tiles against L=3.
        assert demand.total == 0
        assert demand.fails == len(netlist) == 6


class TestBudgets:
    def test_headroom_scaling(self):
        demand = SiteDemand(per_block={"a": 10, CHANNELS: 4}, total=14)
        budgets = block_budgets(demand, headroom=2.0)
        assert budgets == {"a": 20, CHANNELS: 8}

    def test_minimum_floor(self):
        demand = SiteDemand(per_block={"a": 0}, total=0)
        assert block_budgets(demand, minimum=5) == {"a": 5}

    def test_bad_headroom(self):
        with pytest.raises(ConfigurationError):
            block_budgets(SiteDemand({}, 0), headroom=0.5)
