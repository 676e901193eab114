"""Structured per-net and design-level reports."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.length_rule import length_violations
from repro.core.rabid import RabidConfig, StageMetrics, measure_plan
from repro.routing.tree import RouteTree
from repro.technology import resolve_library
from repro.tilegraph.graph import TileGraph
from repro.timing.elmore import net_delay


@dataclass(frozen=True)
class NetReport:
    """One net's planning outcome."""

    name: str
    wirelength_mm: float
    wirelength_tiles: int
    num_sinks: int
    num_buffers: int
    max_delay_ps: float
    avg_delay_ps: float
    length_violations: int


@dataclass(frozen=True)
class DesignReport:
    """Whole-design planning outcome: per-net rows and the plan's Table II
    figures (:func:`repro.core.measure_plan`)."""

    nets: List[NetReport]
    metrics: StageMetrics

    @property
    def failed_nets(self) -> List[str]:
        """Nets with at least one gate over its length limit."""
        return [n.name for n in self.nets if n.length_violations]

    def worst_nets(self, count: int = 10) -> List[NetReport]:
        """The nets with the highest max sink delay."""
        return sorted(self.nets, key=lambda n: -n.max_delay_ps)[:count]


def design_report(
    routes: Dict[str, RouteTree], graph: TileGraph, config: RabidConfig
) -> DesignReport:
    """Measure a plan per net and overall under its config's per-net
    length limits, technology and buffer library."""
    tech = config.technology
    library = resolve_library(config.buffer_library, tech)
    nets: List[NetReport] = []
    for name in sorted(routes):
        tree = routes[name]
        report = net_delay(tree, graph, tech, library)
        nets.append(
            NetReport(
                name=name,
                wirelength_mm=tree.wirelength_mm(graph),
                wirelength_tiles=tree.wirelength_tiles(),
                num_sinks=len(tree.sink_tiles),
                num_buffers=tree.buffer_count(),
                max_delay_ps=report.max_delay * 1e12,
                avg_delay_ps=report.avg_delay * 1e12,
                length_violations=length_violations(
                    tree, config.limit_for(name)
                ),
            )
        )
    return DesignReport(nets=nets, metrics=measure_plan(routes, graph, config))
