"""Property-based tests: incremental re-planning on random deltas.

Extends the ledger-rollback property to service jobs: for ANY valid
delta (random op sequences over macros, sites, capacities, nets, and
limits), the incremental engine must land on the byte-identical plan a
scratch full re-plan produces, and the graph's booked usage must equal
the sum of the plan's trees — i.e. every partial commit respected the
site/wire capacity invariants.

Each property runs on two instances. On the roomy 8x8 one, four times
the default window margin covers the whole grid; the congested one
(capacity 2, window margin 1, capacities drawn from 0-3) has windowed
searches, escalations and soft routes, so a route's recorded read window
is a strict part of the grid there.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rabid import RabidConfig
from repro.service import (
    DeltaSpec,
    MacroSpec,
    ScenarioSpec,
    add_net,
    apply_delta,
    full_plan,
    incremental_replan,
    move_macro,
    remove_net,
    set_capacity,
    set_length_limit,
    set_sites,
)

GRID = 8
SPEC = ScenarioSpec(
    grid=GRID, num_nets=12, total_sites=120, macros=(MacroSpec(1, 1, 2, 2),)
)
NET_NAMES = sorted(SPEC.nets())
CONGESTED = replace(SPEC, capacity=2)
CONGESTED_CONFIG = RabidConfig(window_margin=1)

tile = st.tuples(st.integers(0, GRID - 1), st.integers(0, GRID - 1))


@st.composite
def h_edge(draw):
    x = draw(st.integers(0, GRID - 2))
    y = draw(st.integers(0, GRID - 1))
    return (x, y, x + 1, y)


@st.composite
def v_edge(draw):
    x = draw(st.integers(0, GRID - 1))
    y = draw(st.integers(0, GRID - 2))
    return (x, y, x, y + 1)


@st.composite
def delta_ops(draw, capacities=st.integers(1, 10)):
    kind = draw(
        st.sampled_from(
            [
                "move_macro",
                "set_sites",
                "set_capacity",
                "add_net",
                "remove_net",
                "set_length_limit",
            ]
        )
    )
    if kind == "move_macro":
        # Macro is 2x2; keep it inside the grid.
        return move_macro(
            0, draw(st.integers(0, GRID - 2)), draw(st.integers(0, GRID - 2))
        )
    if kind == "set_sites":
        tiles = draw(st.lists(tile, min_size=1, max_size=3, unique=True))
        return set_sites(
            [(x, y, draw(st.integers(0, 6))) for x, y in tiles]
        )
    if kind == "set_capacity":
        edge = draw(st.one_of(h_edge(), v_edge()))
        return set_capacity([(*edge, draw(capacities))])
    if kind == "add_net":
        source = draw(tile)
        sinks = draw(st.lists(tile, min_size=1, max_size=2, unique=True))
        name = f"zz_added_{draw(st.integers(0, 2))}"
        return add_net(name, source, sinks)
    if kind == "remove_net":
        return remove_net(draw(st.sampled_from(NET_NAMES)))
    return set_length_limit(
        draw(st.sampled_from(NET_NAMES)), draw(st.integers(2, 9))
    )


deltas = st.lists(delta_ops(), min_size=1, max_size=3).map(
    lambda ops: DeltaSpec(tuple(ops))
)
congested_deltas = st.lists(
    delta_ops(st.integers(0, 3)), min_size=1, max_size=3
).map(lambda ops: DeltaSpec(tuple(ops)))


def assert_usage_consistent(state):
    graph = state.graph
    edge_usage = np.zeros_like(graph.edge_usage)
    used_sites = np.zeros_like(graph.used_sites)
    for tree in state.routes.values():
        for u, v in tree.edges():
            edge_usage[graph.edge_id(u, v)] += 1
        for t, count in tree.buffer_counts().items():
            used_sites[t] += count
    assert np.array_equal(edge_usage, graph.edge_usage)
    assert np.array_equal(used_sites, graph.used_sites)
    assert not graph.ledger().active
    assert (graph.used_sites >= 0).all()


def check_random_delta(spec, config, delta):
    baseline = full_plan(spec, config)
    stats = incremental_replan(baseline, delta)
    reference = full_plan(apply_delta(spec, delta), config)
    assert stats.signature == reference.signature
    assert baseline.signature == reference.signature
    assert stats.nets_replayed + stats.nets_resolved == stats.nets_total
    assert_usage_consistent(baseline)


def check_stacked_deltas(spec, config, delta1, delta2):
    baseline = full_plan(spec, config)
    incremental_replan(baseline, delta1)
    incremental_replan(baseline, delta2)
    reference = full_plan(apply_delta(apply_delta(spec, delta1), delta2), config)
    assert baseline.signature == reference.signature
    assert_usage_consistent(baseline)


@given(delta=deltas)
@settings(max_examples=40, deadline=None)
def test_incremental_equals_full_for_random_deltas(delta):
    check_random_delta(SPEC, None, delta)


@given(delta1=deltas, delta2=deltas)
@settings(max_examples=15, deadline=None)
def test_stacked_random_deltas_converge(delta1, delta2):
    check_stacked_deltas(SPEC, None, delta1, delta2)


@given(delta=congested_deltas)
@settings(max_examples=40, deadline=None)
def test_congested_incremental_equals_full_for_random_deltas(delta):
    check_random_delta(CONGESTED, CONGESTED_CONFIG, delta)


@given(delta1=congested_deltas, delta2=congested_deltas)
@settings(max_examples=15, deadline=None)
def test_congested_stacked_random_deltas_converge(delta1, delta2):
    check_stacked_deltas(CONGESTED, CONGESTED_CONFIG, delta1, delta2)
