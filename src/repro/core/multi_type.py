"""Multi-type buffer kind assignment (Stage 3's sizing step).

Li & Shi ("An O(bn^2) Time Algorithm for Optimal Buffer Insertion with b
Buffer Types") make van Ginneken-style insertion scale to a *library* of b
buffer kinds by keeping the per-kind candidate lists sorted by
(capacitance, slack) and dropping candidates dominated across kinds, so
the lists stay O(b) instead of O(bn).

This module applies that pruning discipline to the planner's two-phase
Stage-3 buffering (:func:`repro.core.assignment.solve_net`):

* **Phase A (placement)** is the paper's Fig. 9 length DP, unchanged: it
  chooses *where* buffers go, minimizing the Eq. (2) site cost under the
  length rule. Phase B never moves a buffer, so positions, cost,
  feasibility, and site bookings are the DP's whatever the library; a
  one-kind library skips Phase B altogether.
* **Phase B (sizing)** — :func:`assign_buffer_kinds` below — fixes those
  positions and runs a bottom-up (cap, delay) candidate DP choosing each
  buffer's *kind* from the library to minimize the worst Elmore sink
  delay. At a fixed buffer position the list branches over all b kinds;
  cross-kind dominated candidates are dropped by the shared
  :func:`repro.core.candidates.pareto_prune` (the Li–Shi rule), so the
  list right above a buffer carries at most b survivors and the whole
  phase stays O(b n^2)-bounded for a path of n positions.

The delay recurrence mirrors :mod:`repro.timing.elmore` exactly — wire
advance adds ``r * (c/2 + cap)``, a kind-k buffer presents
``k.input_cap`` and adds ``k.intrinsic_delay + k.output_res * cap`` — so
the chosen assignment's claimed delay is the one ``elmore_sink_delays``
reports for the annotated tree.

Counters (under the net's tracer): ``dp.kinds`` (library size b),
``dp.kind_candidates`` (candidates generated), ``dp.candidates_pruned``
plus ``dp.candidates_pruned.<kind>`` (dominated candidates dropped, per
kind at kind-branch points), and ``dp.kind_list_max`` (largest surviving
list — the O(b) evidence).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.candidates import pareto_prune
from repro.routing.tree import BufferSpec, RouteTree
from repro.technology.buffers import BufferKind, BufferLibrary
from repro.tilegraph.graph import Tile, TileGraph

#: A buffer position fixed by Phase A: (tile, decoupled child tile | None).
Position = Tuple[Tile, Optional[Tile]]


class _KindCandidate:
    """One (cap, delay) point with the kind choices that produced it."""

    __slots__ = ("cap", "delay", "choices", "last_kind")

    def __init__(
        self,
        cap: float,
        delay: float,
        choices: Tuple[Tuple[Position, str], ...] = (),
        last_kind: str = "",
    ) -> None:
        self.cap = cap
        self.delay = delay
        self.choices = choices
        self.last_kind = last_kind


def _prune(
    cands: List[_KindCandidate],
    max_candidates: int,
    tracer,
    per_kind: bool,
) -> List[_KindCandidate]:
    """Shared Pareto prune + per-kind drop attribution + hard cap."""
    if len(cands) <= 1:
        return cands
    kept = pareto_prune(cands)
    if len(kept) > max_candidates:
        kept = kept[:max_candidates]
    if tracer is not None and tracer.enabled:
        dropped = len(cands) - len(kept)
        if dropped:
            tracer.count("dp.candidates_pruned", dropped)
            if per_kind:
                kept_ids = {id(c) for c in kept}
                for c in cands:
                    if id(c) not in kept_ids and c.last_kind:
                        tracer.count(f"dp.candidates_pruned.{c.last_kind}", 1)
    return kept


def _branch_kinds(
    cands: List[_KindCandidate],
    kinds: Sequence[BufferKind],
    position: Position,
) -> List[_KindCandidate]:
    """Insert the fixed buffer at ``position``, branching over all kinds."""
    out: List[_KindCandidate] = []
    for cand in cands:
        for kind in kinds:
            out.append(
                _KindCandidate(
                    cap=kind.input_cap,
                    delay=cand.delay
                    + kind.intrinsic_delay
                    + kind.output_res * cand.cap,
                    choices=cand.choices + ((position, kind.name),),
                    last_kind=kind.name,
                )
            )
    return out


def assign_buffer_kinds(
    tree: RouteTree,
    graph: TileGraph,
    technology,
    library: BufferLibrary,
    specs: Sequence[BufferSpec],
    max_candidates: int = 64,
    tracer=None,
) -> List[BufferSpec]:
    """Choose a library kind for every buffer position in ``specs``.

    Positions (and therefore site bookings, cost, and feasibility) are
    exactly those of ``specs``; only the ``kind`` field changes. Kinds
    equal to the library default are normalized to ``""`` so a single-kind
    library reproduces the input specs byte for byte.

    Returns the specs in their original order with kinds filled in.
    """
    if not specs:
        return list(specs)
    kinds = library.kinds
    default = library.default_name
    if tracer is not None and tracer.enabled:
        tracer.gauge("dp.kinds", len(kinds))

    trunk_tiles = {s.tile for s in specs if s.drives_child is None}
    decoupled = {(s.tile, s.drives_child) for s in specs if s.drives_child is not None}

    tech = technology
    generated = 0
    list_max = 1
    lists: Dict[Tile, List[_KindCandidate]] = {}
    for node in tree.postorder():
        contents = [
            _KindCandidate(tech.sink_cap if node.is_sink else 0.0, 0.0)
        ]
        for child in node.children:
            length = graph.edge_length_mm(node.tile, child.tile)
            r_wire = tech.wire_resistance(length)
            c_wire = tech.wire_capacitance(length)
            branch = [
                _KindCandidate(
                    cand.cap + c_wire,
                    cand.delay + r_wire * (c_wire / 2 + cand.cap),
                    cand.choices,
                    cand.last_kind,
                )
                for cand in lists.pop(child.tile)
            ]
            if (node.tile, child.tile) in decoupled:
                branch = _branch_kinds(branch, kinds, (node.tile, child.tile))
                generated += len(branch)
                branch = _prune(branch, max_candidates, tracer, per_kind=True)
            # Merge: caps add, the worst branch delay dominates.
            merged = [
                _KindCandidate(
                    a.cap + b.cap,
                    max(a.delay, b.delay),
                    a.choices + b.choices,
                )
                for a in contents
                for b in branch
            ]
            generated += len(merged)
            contents = _prune(merged, max_candidates, tracer, per_kind=False)
        if node.tile in trunk_tiles:
            contents = _branch_kinds(contents, kinds, (node.tile, None))
            generated += len(contents)
            contents = _prune(contents, max_candidates, tracer, per_kind=True)
        if len(contents) > list_max:
            list_max = len(contents)
        lists[node.tile] = contents

    root_cands = lists[tree.root.tile]
    best = root_cands[0]
    best_total = best.delay + tech.driver_res * best.cap
    for cand in root_cands[1:]:
        total = cand.delay + tech.driver_res * cand.cap
        if total < best_total:
            best, best_total = cand, total

    if tracer is not None and tracer.enabled:
        tracer.count("dp.kind_candidates", generated)
        tracer.gauge("dp.kind_list_max", list_max)

    chosen = dict(best.choices)
    out: List[BufferSpec] = []
    for spec in specs:
        kind = chosen.get((spec.tile, spec.drives_child), default)
        out.append(
            BufferSpec(spec.tile, spec.drives_child, "" if kind == default else kind)
        )
    return out
