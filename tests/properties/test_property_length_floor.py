"""Property tests: the length-rule floor bounds every net that meets the rule.

:func:`repro.core.length_rule.length_rule_floor` is the per-net floor the
lower-bound oracle puts under its duals: ``hpwl`` tile edges plus
``ceil(hpwl / L) - 1`` buffers. Random nets on small grids are routed by
the maze router and buffered by the Stage-3 engine; whenever the result
meets the length rule, its cost must reach the floor. Nets that fail the
rule are outside the claim. The paper's Fig. 3 star is checked by hand.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.assignment import assign_buffers_to_net
from repro.core.length_rule import length_rule_floor, net_meets_length_rule
from repro.geometry import Rect
from repro.routing.maze import route_net_on_tiles
from repro.routing.tree import BufferSpec, RouteTree
from repro.tilegraph import CapacityModel, TileGraph


@st.composite
def buffered_nets(draw):
    nx = draw(st.integers(2, 9))
    ny = draw(st.integers(2, 9))
    length_limit = draw(st.integers(1, 5))
    sink_count = draw(st.integers(1, 6))
    wire_cost = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]))
    buffer_cost = draw(st.sampled_from([0.0, 0.5, 1.0, 3.0]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    graph = TileGraph(
        Rect(0, 0, float(nx), float(ny)), nx, ny, CapacityModel.uniform(4)
    )
    for tile in graph.tiles():
        graph.set_sites(tile, rng.choice([0, 1, 2, 3]))
    source = (rng.randrange(nx), rng.randrange(ny))
    sinks = [(rng.randrange(nx), rng.randrange(ny)) for _ in range(sink_count)]
    return graph, source, sinks, length_limit, wire_cost, buffer_cost


@settings(max_examples=300, deadline=None)
@given(buffered_nets())
def test_nets_meeting_the_rule_reach_the_floor(case):
    graph, source, sinks, length_limit, wire_cost, buffer_cost = case
    tree = route_net_on_tiles(graph, source, sinks)
    assign_buffers_to_net(graph, tree, length_limit)
    if not net_meets_length_rule(tree, length_limit):
        return
    cost = wire_cost * tree.num_edges() + buffer_cost * tree.buffer_count()
    floor = length_rule_floor(
        [source, *sinks], length_limit, wire_cost, buffer_cost
    )
    assert cost >= floor


def _fig3_star():
    """Fig. 3: a driver with seven sinks, each three tiles away.

    Four straight arms of length 3 leave the centre (3, 3); three of
    them fork one tile before their end, so the seven sinks all sit at
    distance 3 and the tree has 15 edges.
    """
    centre = (3, 3)
    paths = [
        [centre, (4, 3), (5, 3), (6, 3)],
        [centre, (4, 3), (5, 3), (5, 4)],
        [centre, (2, 3), (1, 3), (0, 3)],
        [centre, (2, 3), (1, 3), (1, 2)],
        [centre, (3, 4), (3, 5), (3, 6)],
        [centre, (3, 4), (3, 5), (4, 5)],
        [centre, (3, 2), (3, 1), (3, 0)],
    ]
    return RouteTree.from_paths(centre, paths, [p[-1] for p in paths])


def test_fig3_star_by_hand():
    tree = _fig3_star()
    pins = [tree.source, *tree.sink_tiles]
    assert len(pins) == 8 and tree.num_edges() == 15
    # The pins span x 0..6 and y 0..6: hpwl 12, so with L = 3 the floor
    # is 12 edges and ceil(12 / 3) - 1 = 3 buffers.
    assert length_rule_floor(pins, 3) == 15.0
    # Unbuffered, the star costs 15 but the driver drives all 15 edges.
    assert not net_meets_length_rule(tree, 3)
    # The driver keeps the south arm; a decoupling buffer at the centre
    # drives each other arm's trunk and one at each fork drives its spur.
    tree.apply_buffers(
        [BufferSpec((3, 3), child) for child in [(4, 3), (2, 3), (3, 4)]]
        + [
            BufferSpec((5, 3), (5, 4)),
            BufferSpec((1, 3), (1, 2)),
            BufferSpec((3, 5), (4, 5)),
        ]
    )
    assert net_meets_length_rule(tree, 3)
    assert tree.num_edges() + tree.buffer_count() == 21 >= 15.0
