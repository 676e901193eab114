"""Incremental re-plan == full re-plan, for every delta kind.

The service's core guarantee: the exact-replay engine produces a plan
whose buffering-kernel signature equals a from-scratch plan of the
evolved scenario. Each test perturbs a cached baseline one way, replans
incrementally, and compares against ``full_plan(apply_delta(...))``.
"""

import numpy as np
import pytest

from repro.core.rabid import RabidConfig
from repro.errors import DeadlineError
from repro.obs import Tracer
from repro.obs.report import SERVICE_COUNTERS, render_summary
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

SPEC = ScenarioSpec(
    grid=12, num_nets=60, total_sites=400, macros=(MacroSpec(2, 2, 3, 3),)
)


@pytest.fixture
def baseline():
    return full_plan(SPEC)


def assert_usage_consistent(state):
    """Graph usage must equal the sum of the plan's trees — after every
    commit, not just at steady state (the ledger-transaction guarantee
    extended to service jobs)."""
    graph = state.graph
    edge_usage = np.zeros_like(graph.edge_usage)
    used_sites = np.zeros_like(graph.used_sites)
    for tree in state.routes.values():
        for u, v in tree.edges():
            edge_usage[graph.edge_id(u, v)] += 1
        for tile, count in tree.buffer_counts().items():
            used_sites[tile] += count
    assert np.array_equal(edge_usage, graph.edge_usage)
    assert np.array_equal(used_sites, graph.used_sites)
    assert not graph.ledger().active


DELTAS = {
    "move_macro": DeltaSpec((move_macro(0, 7, 7),)),
    "set_sites": DeltaSpec((set_sites([(6, 6, 0), (7, 7, 12)]),)),
    "set_capacity": DeltaSpec(
        (set_capacity([(5, 5, 6, 5, 1), (5, 5, 5, 6, 1)]),)
    ),
    "add_net": DeltaSpec(
        (add_net("zz_new", (1, 1), [(8, 3), (4, 9)]),)
    ),
    "remove_net": DeltaSpec((remove_net("net07"),)),
    "set_length_limit": DeltaSpec((set_length_limit("net11", 2),)),
    "combined": DeltaSpec(
        (
            move_macro(0, 6, 1),
            set_length_limit("net23", 3),
            remove_net("net40"),
            add_net("zz_more", (10, 10), [(2, 2)]),
        )
    ),
}


@pytest.mark.parametrize("kind", sorted(DELTAS))
def test_incremental_matches_full(baseline, kind):
    delta = DELTAS[kind]
    stats = incremental_replan(baseline, delta)
    reference = full_plan(apply_delta(SPEC, delta))
    assert stats.signature == reference.signature
    assert baseline.signature == reference.signature
    assert stats.nets_replayed + stats.nets_resolved == stats.nets_total
    assert_usage_consistent(baseline)


def test_stacked_deltas_match_full(baseline):
    d1 = DELTAS["move_macro"]
    d2 = DELTAS["set_length_limit"]
    incremental_replan(baseline, d1)
    incremental_replan(baseline, d2)
    reference = full_plan(apply_delta(apply_delta(SPEC, d1), d2))
    assert baseline.signature == reference.signature
    assert_usage_consistent(baseline)


def test_replay_actually_skips_work(baseline):
    # A corner-local perturbation must leave far-away nets replayed.
    stats = incremental_replan(baseline, DeltaSpec((set_sites([(11, 11, 3)]),)))
    assert stats.nets_replayed > 0


def test_outcomes_track_trees(baseline):
    incremental_replan(baseline, DELTAS["move_macro"])
    for name, tree in baseline.routes.items():
        assert tuple(tree.buffer_specs()) == baseline.outcomes[name].specs


def test_traced_replan_counts_the_stage3_walk(baseline):
    """The service walk is RABID's Stage-3 walk, under the same names:
    each replayed net counts ``stage3.nets_replayed`` and each re-solved
    net emits one stage-3 event."""
    tracer = Tracer()
    stats = incremental_replan(baseline, DELTAS["move_macro"], tracer=tracer)
    assert stats.nets_replayed > 0 and stats.nets_resolved > 0
    assert tracer.metrics.value("stage3.nets_replayed") == stats.nets_replayed
    assert tracer.metrics.value("stage3.nets_solved") == stats.nets_resolved
    stage3 = [e for e in tracer.events if e.stage == "3"]
    assert len(stage3) == stats.nets_resolved
    assert [e.net for e in stage3] == stats.resolved_nets


def test_traced_replan_counts_searches_and_reroutes(baseline):
    tracer = Tracer()
    edges = [(x, 6, x, 7, 1) for x in range(3, 9)]
    stats = incremental_replan(
        baseline, DeltaSpec((set_capacity(edges),)), tracer=tracer
    )
    assert stats.nets_rerouted > 0
    assert tracer.metrics.value("service.nets_searched") == stats.nets_searched
    assert tracer.metrics.value("service.nets_rerouted") == stats.nets_rerouted
    assert {"service.nets_searched", "service.nets_rerouted"} <= set(
        SERVICE_COUNTERS
    )
    assert "service.nets_searched" in render_summary(tracer)


def _count_route_one(monkeypatch):
    from repro.service import incremental

    calls = []
    real_route_one = incremental.route_one

    def counting_route_one(*args, **kwargs):
        calls.append(args[1])
        return real_route_one(*args, **kwargs)

    monkeypatch.setattr(incremental, "route_one", counting_route_one)
    return calls


def test_removing_the_last_net_searches_nothing(baseline):
    # No net after it in the walk read its usage.
    delta = DeltaSpec((remove_net(max(baseline.routes)),))
    stats = incremental_replan(baseline, delta)
    assert stats.nets_searched == 0
    assert stats.signature == full_plan(apply_delta(SPEC, delta)).signature


def test_removed_net_dirties_only_later_nets(baseline, monkeypatch):
    calls = _count_route_one(monkeypatch)
    stats = incremental_replan(baseline, DELTAS["remove_net"])
    assert calls and all(name > "net07" for name in calls)
    assert stats.signature == full_plan(apply_delta(SPEC, DELTAS["remove_net"])).signature


def test_full_grid_search_sees_a_far_capacity_change():
    """A wall forces the probe's search onto the whole grid; opening a
    gap far outside its windowed boxes must still re-route it."""
    wall = set_capacity([(x, 11, x, 12, 0) for x in range(2, 22)])
    spec = apply_delta(
        ScenarioSpec(grid=24, num_nets=0, total_sites=200),
        DeltaSpec((wall, add_net("probe", (12, 9), [(12, 14)]))),
    )
    config = RabidConfig(window_margin=2)
    state = full_plan(spec, config)
    assert max(x for x, _ in state.routes["probe"].nodes) == 22  # east
    gap = DeltaSpec((set_capacity([(3, 11, 3, 12, 8)]),))
    stats = incremental_replan(state, gap)
    reference = full_plan(apply_delta(spec, gap), config)
    assert stats.signature == reference.signature
    assert stats.nets_searched == 1
    probe = state.routes["probe"]
    assert min(x for x, _ in probe.nodes) == 3  # through the new gap
    assert probe.read_box == (0, 0, 23, 23)


@pytest.mark.parametrize("kind", ["remove_net", "set_capacity"])
def test_nets_searched_counts_route_one_calls(baseline, kind, monkeypatch):
    from repro.service import incremental

    calls = []
    real_route_one = incremental.route_one

    def counting_route_one(*args, **kwargs):
        calls.append(args[1])
        return real_route_one(*args, **kwargs)

    monkeypatch.setattr(incremental, "route_one", counting_route_one)
    stats = incremental_replan(baseline, DELTAS[kind])
    assert calls
    assert stats.nets_searched == len(calls)
    assert stats.as_dict()["nets_searched"] == len(calls)
    assert stats.nets_rerouted <= stats.nets_searched


def test_failed_replan_rolls_back(baseline):
    sig = baseline.signature
    usage_before = baseline.graph.snapshot_usage()
    routes_before = dict(baseline.routes)
    # An abort hook that fires mid-way through the buffer walk (the route
    # phase polls once per net, 60 nets) exercises the restore path
    # after both phases have booked usage.
    polls = []

    def abort_mid_walk():
        polls.append(None)
        return len(polls) > len(SPEC.nets()) + 20

    with pytest.raises(DeadlineError, match="buffer walk"):
        incremental_replan(
            baseline, DELTAS["move_macro"], abort_check=abort_mid_walk
        )
    assert baseline.signature == sig
    assert baseline.routes == routes_before
    h, v, b, kinds = usage_before
    assert np.array_equal(baseline.graph.h_usage, h)
    assert np.array_equal(baseline.graph.v_usage, v)
    assert np.array_equal(baseline.graph.used_sites, b)
    assert baseline.graph.kind_used == kinds
    assert_usage_consistent(baseline)
    # The baseline must still be usable after the failed attempt.
    stats = incremental_replan(baseline, DELTAS["move_macro"])
    assert stats.signature == full_plan(apply_delta(SPEC, DELTAS["move_macro"])).signature


def test_reroute_path_taken_for_capacity_choke(baseline):
    # Throttling a band of central edges to capacity 1 forces reroutes
    # (not just re-buffering) through the dirty-region machinery.
    edges = [(x, 6, x, 7, 1) for x in range(3, 9)]
    delta = DeltaSpec((set_capacity(edges),))
    stats = incremental_replan(baseline, delta)
    reference = full_plan(apply_delta(SPEC, delta))
    assert stats.signature == reference.signature
    assert stats.nets_rerouted > 0
    assert_usage_consistent(baseline)
