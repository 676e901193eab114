"""Property: Stage 3's one solver (:func:`solve_net`) with a single-kind
library IS the plain Fig. 9 DP, byte for byte, on arbitrary random nets.

This is the invariant of the typed-buffer design: threading a
``BufferKind`` through the stack must be invisible until a real
multi-kind library is selected. The two must agree on specs (including
kind fields), cost, and feasibility — not approximately, exactly —
because the plan signature hashes exactly these.

A second property pins the tech library's soundness: kind sizing never
moves a buffer and never makes the worst Elmore sink delay worse than the
all-default assignment.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.assignment import Stage3CostField, solve_net
from repro.core.multi_sink import insert_buffers_multi_sink
from repro.geometry import Rect
from repro.routing.tree import BufferSpec, RouteTree
from repro.technology import TECH_180NM, resolve_library
from repro.tilegraph import CapacityModel, TileGraph
from repro.timing.elmore import net_delay

GRID = 8


@st.composite
def random_instances(draw):
    """A random tile tree grown from (0, 0) over an 8x8 grid, plus a
    random site distribution and length limit."""
    n_nodes = draw(st.integers(min_value=2, max_value=10))
    nodes = [(0, 0)]
    parent = {}
    for _ in range(n_nodes - 1):
        base = nodes[draw(st.integers(0, len(nodes) - 1))]
        candidates = [
            (base[0] + dx, base[1] + dy)
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1))
            if 0 <= base[0] + dx < GRID
            and 0 <= base[1] + dy < GRID
            and (base[0] + dx, base[1] + dy) not in parent
            and (base[0] + dx, base[1] + dy) != (0, 0)
        ]
        if not candidates:
            continue
        child = candidates[draw(st.integers(0, len(candidates) - 1))]
        parent[child] = base
        nodes.append(child)
    assume(len(nodes) >= 2)
    leaves = [t for t in nodes if t not in set(parent.values()) and t != (0, 0)]
    assume(leaves)
    sinks = set(leaves)
    for t in nodes[1:]:
        if draw(st.booleans()) and draw(st.booleans()):
            sinks.add(t)
    tree = RouteTree.from_parent_map((0, 0), parent, sorted(sinks))
    sites = {
        t: draw(st.integers(min_value=0, max_value=3)) for t in tree.nodes
    }
    L = draw(st.integers(min_value=1, max_value=4))
    return parent, sorted(sinks), sites, L


def _build(parent, sinks, sites):
    graph = TileGraph(
        Rect(0, 0, float(GRID), float(GRID)), GRID, GRID,
        CapacityModel.uniform(8),
    )
    for tile, count in sites.items():
        graph.set_sites(tile, count)
    tree = RouteTree.from_parent_map((0, 0), parent, sinks)
    return graph, tree


def _dp(graph, tree, L):
    """The plain Fig. 9 DP over the net's Eq. (2) gather."""
    return insert_buffers_multi_sink(
        tree, Stage3CostField(graph).cost_fn(tree), L
    )


def _solve(graph, tree, L, library):
    return solve_net(graph, tree, L, Stage3CostField(graph), TECH_180NM, library)


class TestSingleKindIsDp:
    @given(random_instances())
    @settings(max_examples=120, deadline=None)
    def test_byte_identical_outcome(self, instance):
        parent, sinks, sites, L = instance
        graph, tree = _build(parent, sinks, sites)
        dp = _dp(graph, tree, L)
        graph2, tree2 = _build(parent, sinks, sites)
        mt = _solve(graph2, tree2, L, resolve_library("single", TECH_180NM))
        assert mt.feasible == dp.feasible
        assert mt.buffers == dp.buffers  # BufferSpec equality includes kind
        if dp.feasible:
            assert mt.cost == dp.cost


class TestTechLibrarySoundness:
    @given(random_instances())
    @settings(max_examples=60, deadline=None)
    def test_same_positions_never_slower_than_default(self, instance):
        parent, sinks, sites, L = instance
        graph, tree = _build(parent, sinks, sites)
        library = resolve_library("tech", TECH_180NM)
        dp = _dp(graph, tree, L)
        mt = _solve(graph, tree, L, library)
        assert mt.feasible == dp.feasible
        if not dp.feasible:
            return
        assert [(s.tile, s.drives_child) for s in mt.buffers] == [
            (s.tile, s.drives_child) for s in dp.buffers
        ]
        assert mt.cost == dp.cost
        tree.apply_buffers(mt.buffers)
        sized = net_delay(tree, graph, TECH_180NM, library).max_delay
        tree.apply_buffers(
            [BufferSpec(s.tile, s.drives_child) for s in dp.buffers]
        )
        default = net_delay(tree, graph, TECH_180NM, library).max_delay
        assert sized <= default * (1 + 1e-12) + 1e-18
