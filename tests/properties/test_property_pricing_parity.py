"""Property-based parity: the pricing search vs the search it replaced.

``PathPricer._search`` runs Stage 4's layered search
(:func:`repro.core.two_path._layered_search`): each sink tile settles at
its first pop, the window is a byte mask and dominated ``(tile, d)``
states are skipped. The reference below is the search it replaced, which
waited for all ``L + 1`` layer states of every sink to settle and then
took the cheapest, charging ``d + base + scale * length`` left to right;
it is kept here verbatim (and only here), as a function of the pricer
instead of a method. The candidate side pre-scales the dual lengths into
cost lists, as the oracle does. Random cases cover small grids with
infinite edge lengths, zero-site tiles (sink tiles included), every
length limit from 1 to 5, duplicate sinks and sinks on the source tile,
dual scales from 0 to 4, zero and unit base costs, and window margins
up to the whole grid. Costs must always agree; paths must agree
whenever every step costs more than 0.
"""

import heapq
import random
from types import SimpleNamespace
from typing import Dict, List, Sequence, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.two_path as two_path
from repro.bounds.pricing import NetPricing, PathPricer, PricedPath
from repro.geometry import Rect
from repro.tilegraph import CapacityModel, TileGraph

INF = float("inf")
Tile = Tuple[int, int]


# --------------------------------------------------------------------- #
# Reference: the search the first-pop kernel replaced                   #
# --------------------------------------------------------------------- #


def reference_search(
    pricer,
    source: Tile,
    sinks: Sequence[Tile],
    length_limit: int,
    edge_lengths: Sequence[float],
    site_lengths: Sequence[float],
    wire_cost: float,
    buffer_cost: float,
    scale: float,
    margin: int,
    collect_paths: bool,
) -> NetPricing:
    flat = pricer.flat
    ny = flat.ny
    sites = pricer._sites
    layers = length_limit + 1
    num_states = flat.num_tiles * layers

    xs = [source[0], *(s[0] for s in sinks)]
    ys = [source[1], *(s[1] for s in sinks)]
    x_lo = max(0, min(xs) - margin)
    x_hi = min(flat.nx - 1, max(xs) + margin)
    y_lo = max(0, min(ys) - margin)
    y_hi = min(flat.ny - 1, max(ys) + margin)
    tile_x = flat.tile_x
    tile_y = flat.tile_y

    dist = [INF] * num_states
    parent = [-1] * num_states if collect_paths else None
    via = [-1] * num_states if collect_paths else None

    src_idx = source[0] * ny + source[1]
    start = src_idx * layers  # (source, d=0)
    dist[start] = 0.0
    heap: List[Tuple[float, int]] = [(0.0, start)]
    adj = flat.adj
    targets = {s[0] * ny + s[1] for s in sinks}
    remaining = {t: layers for t in targets}  # states left per target

    while heap:
        d_cur, state = heapq.heappop(heap)
        if d_cur > dist[state]:
            continue
        tile = state // layers
        depth = state - tile * layers
        if tile in remaining:
            remaining[tile] -= 1
            if remaining[tile] <= 0:
                del remaining[tile]
                if not remaining:
                    break
        # Buffer insertion: reset the spacing counter on a site tile.
        if depth > 0 and sites[tile] > 0:
            s_len = site_lengths[tile]
            if s_len < INF:
                nd = d_cur + buffer_cost + scale * s_len
                nstate = tile * layers
                if nd < dist[nstate]:
                    dist[nstate] = nd
                    if collect_paths:
                        parent[nstate] = state
                        via[nstate] = -2  # buffer marker
                    heapq.heappush(heap, (nd, nstate))
        # Wire step: advance one tile, spend one unit of drive length.
        if depth + 1 >= layers:
            continue
        for nbr, eid in adj[tile]:
            if not (x_lo <= tile_x[nbr] <= x_hi and y_lo <= tile_y[nbr] <= y_hi):
                continue
            e_len = edge_lengths[eid]
            if e_len >= INF:
                continue
            nd = d_cur + wire_cost + scale * e_len
            nstate = nbr * layers + depth + 1
            if nd < dist[nstate]:
                dist[nstate] = nd
                if collect_paths:
                    parent[nstate] = state
                    via[nstate] = eid
                heapq.heappush(heap, (nd, nstate))

    costs: Dict[Tile, float] = {}
    paths: Dict[Tile, PricedPath] = {}
    for sink in sinks:
        t_idx = sink[0] * ny + sink[1]
        base = t_idx * layers
        best_state = min(
            range(base, base + layers), key=lambda s: dist[s]
        )
        best = dist[best_state]
        costs[sink] = best
        if collect_paths and best < INF:
            edges: List[int] = []
            buffers: List[int] = []
            state = best_state
            while state != start and parent is not None:
                step = via[state]
                if step == -2:
                    buffers.append(state // layers)
                else:
                    edges.append(step)
                state = parent[state]
            paths[sink] = PricedPath(
                sink=sink,
                cost=best,
                edges=tuple(reversed(edges)),
                buffers=tuple(reversed(buffers)),
            )
    return NetPricing(source=source, costs=costs, paths=paths)


def reference_view(pricer):
    """The attributes of the replaced pricer that the reference reads."""
    return SimpleNamespace(flat=pricer.flat, _sites=pricer.graph.sites_flat)


def candidate_search(
    pricer, source, sinks, length_limit, edge_lengths, site_lengths,
    wire_cost, buffer_cost, scale, margin, collect_paths,
) -> NetPricing:
    """``_search`` on the reference's arguments: the dual terms scaled
    into cost lists, INF for an infinite length and on tiles without
    sites."""
    sites = pricer.graph.sites_flat
    edge_costs = [
        scale * length if length < INF else INF for length in edge_lengths
    ]
    site_costs = [
        scale * length if length < INF and sites[tile] > 0 else INF
        for tile, length in enumerate(site_lengths)
    ]
    return pricer._search(
        source, sinks, length_limit, edge_costs, site_costs,
        wire_cost, buffer_cost, margin, collect_paths,
    )


# --------------------------------------------------------------------- #
# Random cases                                                          #
# --------------------------------------------------------------------- #

#: Scales of the dual terms: the oracle prices at 0 (base costs only,
#: the bound) and 1 (the length rounds); the others cover the range.
SCALES = [0.0, 0.015625, 0.25, 1.0, 4.0]


def _length(rng):
    """A dual length: INF (zero capacity), 0, or a positive float."""
    r = rng.random()
    if r < 0.15:
        return INF
    if r < 0.3:
        return 0.0
    return rng.uniform(1.0 / 64.0, 4.0)


def _tile(rng, nx, ny):
    return (rng.randrange(nx), rng.randrange(ny))


def _steps_positive(graph, edge_lengths, site_lengths, wire_cost,
                    buffer_cost, scale):
    """True when every usable wire and buffer step costs more than 0."""
    sites = graph.sites_flat.tolist()
    return all(
        wire_cost + scale * length > 0
        for length in edge_lengths
        if length < INF
    ) and all(
        buffer_cost + scale * length > 0
        for tile, length in enumerate(site_lengths)
        if length < INF and sites[tile] > 0
    )


@st.composite
def pricing_cases(draw):
    nx = draw(st.integers(3, 10))
    ny = draw(st.integers(3, 10))
    length_limit = draw(st.integers(1, 5))
    sink_count = draw(st.integers(1, 5))
    scale = draw(st.sampled_from(SCALES))
    wire_cost = draw(st.sampled_from([0.0, 1.0]))
    buffer_cost = draw(st.sampled_from([0.0, 1.0]))
    margin = draw(st.integers(0, max(nx, ny)))
    collect_paths = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    graph = TileGraph(
        Rect(0, 0, float(nx), float(ny)), nx, ny, CapacityModel.uniform(1)
    )
    for tile in graph.tiles():
        graph.set_sites(tile, rng.choice([0, 0, 1, 2]))
    source = _tile(rng, nx, ny)
    sinks = [_tile(rng, nx, ny) for _ in range(sink_count)]
    if rng.random() < 0.2:
        sinks[rng.randrange(sink_count)] = source
    if sink_count > 1 and rng.random() < 0.3:
        sinks[-1] = sinks[0]  # duplicate sink
    for sink in sinks:
        if rng.random() < 0.3:
            graph.set_sites(sink, 0)  # (sink, 0) unreachable
    edge_lengths = [_length(rng) for _ in range(len(graph.edge_capacity))]
    site_lengths = [_length(rng) for _ in range(nx * ny)]
    args = (
        source, sinks, length_limit, edge_lengths, site_lengths,
        wire_cost, buffer_cost, scale, margin, collect_paths,
    )
    positive = _steps_positive(
        graph, edge_lengths, site_lengths, wire_cost, buffer_cost, scale
    )
    return PathPricer(graph), args, positive


class TestPricingParity:
    @given(pricing_cases())
    @settings(max_examples=400, deadline=None)
    def test_matches_reference_search(self, case):
        pricer, args, positive = case
        want = reference_search(reference_view(pricer), *args)
        got = candidate_search(pricer, *args)
        assert got.costs == want.costs
        if positive:
            assert got.paths == want.paths


class _CountingHeapq:
    """Stands in for :mod:`heapq` and counts the pops."""

    heappush = staticmethod(heapq.heappush)
    _heappop = staticmethod(heapq.heappop)

    def __init__(self):
        self.pops = 0

    def heappop(self, heap):
        self.pops += 1
        return self._heappop(heap)


class TestEarlyStop:
    def test_sink_without_sites_settles_at_first_pop(self, monkeypatch):
        """No tile has sites, so ``(sink, 0)`` is unreachable: the replaced
        search waited for it and popped all 21 reachable ``(tile, d)``
        states (``d`` has the parity of ``x + y`` and is at most 5). The
        sink's first state pops third, after the source and ``(0, 1)``,
        and the search stops there with the same price."""
        graph = TileGraph(
            Rect(0, 0, 8.0, 2.0), 8, 2, CapacityModel.uniform(1)
        )
        pricer = PathPricer(graph)
        edges = [0.0] * len(graph.edge_capacity)
        sites = [INF] * 16
        args = ((0, 0), [(1, 0)], 5, edges, sites, 1.0, 1.0, 1.0, 10, True)

        new_heap, old_heap = _CountingHeapq(), _CountingHeapq()
        monkeypatch.setattr(two_path, "heapq", new_heap)
        got = candidate_search(pricer, *args)
        monkeypatch.setitem(globals(), "heapq", old_heap)
        want = reference_search(reference_view(pricer), *args)
        monkeypatch.undo()

        assert got.costs == want.costs == {(1, 0): 1.0}
        assert got.paths == want.paths
        assert got.paths[(1, 0)].edges == (graph.flat().adj[0][0][1],)
        assert new_heap.pops == 3
        assert old_heap.pops == 21
