"""Fast routability triage: FLUTE-free demand smearing over the tile grid.

A full RABID run on a big tier costs seconds to minutes; this module
answers "is it even worth launching?" in milliseconds with flat NumPy
over net bounding boxes — the congestion-assessment framing of
STAIRoute / early-routability estimation, adapted to this repo's
feasibility predicate (every net buffered within its length limit).

Three layers, from proof to estimate:

* **Certificates** (sound; never wrong):

  - *site bound*: every feasible plan needs at least
    ``ceil(HPWL/L) - 1`` buffers per net (each gate drives at most
    ``L`` tile units and every routed tree is at least HPWL long), so
    when the summed lower bound exceeds the total effective site count
    the scenario is infeasible for the planner's predicate.
  - *cut bound*: every net whose pin x-range spans a vertical grid cut
    must cross it at least once; when the forced crossings at any cut
    exceed the summed wire capacity across that cut, no
    capacity-respecting routing exists (the bound oracle's LP is
    infeasible). Same for horizontal cuts.

* **Site pressure** (estimate): ``demand_lb / total_sites``. Measured
  separation on this repo's workloads: infeasible site-contended
  scenarios sit at ~0.42+, every feasible control at <= 0.30 — the
  ceiling 0.40 prunes only well inside the infeasible band.
  This is *not* a proof; see docs/WORKLOADS.md for the caveats.

* **Wire utilization** (estimate): per-edge demand smeared uniformly
  over each net's bounding box (H demand spread over the box's rows, V
  over its columns), against ``W(e)``. Produces the per-tile overflow
  heatmap and a ``congested`` flag; informational, never prunes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.obs import NULL_TRACER

#: Triage verdict tiers, strongest first.
VERDICTS = ("infeasible", "site_starved", "congested", "routable")

#: Prune policies for gates built on a verdict.
TRIAGE_MODES = ("off", "certified", "estimate")

#: ``demand_lb / total_sites`` above which a scenario is flagged
#: ``site_starved``; calibrated with margin on this repo's workload
#: family (feasible controls measure <= 0.30).
SITE_PRESSURE_CEILING = 0.40

#: Smeared per-edge utilization above which a scenario is ``congested``.
UTILIZATION_CEILING = 1.0

#: How many worst overflow tiles ``as_dict`` reports.
HOTSPOTS = 5


@dataclass(frozen=True)
class RoutabilityVerdict:
    """Everything one triage pass concluded about a scenario.

    ``certified_infeasible`` is backed by a proof (site or cut bound)
    and is always safe to act on; ``site_starved`` / ``congested`` are
    estimates. ``heatmap`` is the per-tile estimated wire overflow
    (tile value = summed overflow of its incident edges), kept off the
    JSON form.
    """

    grid: int
    nets: int
    total_sites: int
    demand_lb: int
    site_pressure: float
    h_util_max: float
    v_util_max: float
    overflow_edges: int
    est_overflow_total: float
    cut_slack: float
    worst_cut: str
    certified_infeasible: bool
    infeasible_reason: str  # "" | "sites" | "cut"
    site_starved: bool
    congested: bool
    seconds: float
    heatmap: np.ndarray = field(repr=False, compare=False)
    hotspots: Tuple[Tuple[int, int, float], ...] = ()

    @property
    def verdict(self) -> str:
        if self.certified_infeasible:
            return "infeasible"
        if self.site_starved:
            return "site_starved"
        if self.congested:
            return "congested"
        return "routable"

    def should_prune(self, mode: str) -> bool:
        """Would a gate running at ``mode`` skip the full run?"""
        if mode not in TRIAGE_MODES:
            raise ConfigurationError(
                f"unknown triage mode {mode!r}; expected one of "
                f"{TRIAGE_MODES}"
            )
        if mode == "off":
            return False
        if self.certified_infeasible:
            return True
        return mode == "estimate" and self.site_starved

    def as_dict(self) -> Dict[str, Any]:
        return {
            "verdict": self.verdict,
            "grid": self.grid,
            "nets": self.nets,
            "total_sites": self.total_sites,
            "demand_lb": self.demand_lb,
            "site_pressure": round(self.site_pressure, 4),
            "h_util_max": round(self.h_util_max, 4),
            "v_util_max": round(self.v_util_max, 4),
            "overflow_edges": self.overflow_edges,
            "est_overflow_total": round(self.est_overflow_total, 4),
            "cut_slack": round(self.cut_slack, 4),
            "worst_cut": self.worst_cut,
            "certified_infeasible": self.certified_infeasible,
            "infeasible_reason": self.infeasible_reason,
            "site_starved": self.site_starved,
            "congested": self.congested,
            "hotspots": [list(h) for h in self.hotspots],
            "seconds": round(self.seconds, 4),
        }


def _net_boxes(
    scenario,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized pin bounding boxes + per-net length limits."""
    nets = scenario.nets()
    names = sorted(nets)
    limits = scenario.limits(names)
    n = len(names)
    x0 = np.empty(n, dtype=np.int64)
    x1 = np.empty(n, dtype=np.int64)
    y0 = np.empty(n, dtype=np.int64)
    y1 = np.empty(n, dtype=np.int64)
    lim = np.empty(n, dtype=np.float64)
    for i, name in enumerate(names):
        source, sinks = nets[name]
        xs = [source[0]] + [s[0] for s in sinks]
        ys = [source[1]] + [s[1] for s in sinks]
        x0[i] = min(xs)
        x1[i] = max(xs)
        y0[i] = min(ys)
        y1[i] = max(ys)
        lim[i] = limits[name]
    return x0, x1, y0, y1, lim


def smear_demand(
    x0: np.ndarray,
    x1: np.ndarray,
    y0: np.ndarray,
    y1: np.ndarray,
    nx: int,
    ny: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Bounding-box wire demand on the H and V edge grids.

    Each net spreads its horizontal span uniformly over the box's rows
    and its vertical span over the box's columns — the classic
    FLUTE-free probabilistic congestion map, O(nets + tiles) via 2-D
    difference arrays. Returns ``(H, V)`` with H shaped ``(nx-1, ny)``
    (demand on edge ``(x,y)->(x+1,y)``) and V shaped ``(nx, ny-1)``.
    """
    rows = (y1 - y0 + 1).astype(np.float64)
    cols = (x1 - x0 + 1).astype(np.float64)
    dh = np.zeros((nx + 1, ny + 1))
    dv = np.zeros((nx + 1, ny + 1))
    wh = 1.0 / rows
    # H: cells x in [x0, x1), y in [y0, y1] each carry wh
    np.add.at(dh, (x0, y0), wh)
    np.add.at(dh, (x1, y0), -wh)
    np.add.at(dh, (x0, y1 + 1), -wh)
    np.add.at(dh, (x1, y1 + 1), wh)
    wv = 1.0 / cols
    # V: cells x in [x0, x1], y in [y0, y1) each carry wv
    np.add.at(dv, (x0, y0), wv)
    np.add.at(dv, (x0, y1), -wv)
    np.add.at(dv, (x1 + 1, y0), -wv)
    np.add.at(dv, (x1 + 1, y1), wv)
    h = dh.cumsum(axis=0).cumsum(axis=1)[: nx - 1, :ny]
    v = dv.cumsum(axis=0).cumsum(axis=1)[:nx, : ny - 1]
    return h, v


def triage_scenario(scenario, tracer=NULL_TRACER) -> RoutabilityVerdict:
    """One triage pass over a :class:`ScenarioSpec`."""
    from repro.service.engine import build_graph  # avoid import cycle

    start = time.perf_counter()
    with tracer.span("triage.scenario", grid=scenario.grid):
        nx = ny = scenario.grid
        graph = build_graph(scenario)
        x0, x1, y0, y1, lim = _net_boxes(scenario)
        hpwl = (x1 - x0 + y1 - y0).astype(np.float64)

        # Certificate 1: summed per-net minimum-buffer lower bound.
        need = np.maximum(0.0, np.ceil(hpwl / lim) - 1.0)
        demand_lb = int(need.sum())
        total_sites = int(scenario.effective_sites().sum())
        site_pressure = demand_lb / max(1, total_sites)
        site_infeasible = demand_lb > total_sites

        # Certificate 2: forced crossings vs cut capacity, both axes.
        h_cap = np.asarray(graph.h_capacity, dtype=np.float64)
        v_cap = np.asarray(graph.v_capacity, dtype=np.float64)
        cut_slack = float("inf")
        worst_cut = ""
        if nx > 1:
            forced = np.zeros(nx, dtype=np.int64)
            np.add.at(forced, x0, 1)
            np.add.at(forced, x1, -1)
            forced = forced.cumsum()[: nx - 1]
            slack = h_cap.sum(axis=1) - forced
            c = int(slack.argmin())
            if slack[c] < cut_slack:
                cut_slack = float(slack[c])
                worst_cut = f"x={c}"
        if ny > 1:
            forced = np.zeros(ny, dtype=np.int64)
            np.add.at(forced, y0, 1)
            np.add.at(forced, y1, -1)
            forced = forced.cumsum()[: ny - 1]
            slack = v_cap.sum(axis=0) - forced
            c = int(slack.argmin())
            if slack[c] < cut_slack:
                cut_slack = float(slack[c])
                worst_cut = f"y={c}"
        cut_infeasible = cut_slack < 0

        # Estimate: smeared wire demand vs W(e), per-tile heatmap.
        h_dem, v_dem = smear_demand(x0, x1, y0, y1, nx, ny)
        with np.errstate(divide="ignore", invalid="ignore"):
            h_util = np.where(
                h_cap > 0, h_dem / h_cap, np.where(h_dem > 0, np.inf, 0.0)
            )
            v_util = np.where(
                v_cap > 0, v_dem / v_cap, np.where(v_dem > 0, np.inf, 0.0)
            )
        h_over = np.maximum(0.0, h_dem - h_cap)
        v_over = np.maximum(0.0, v_dem - v_cap)
        heatmap = np.zeros((nx, ny))
        heatmap[: nx - 1, :] += h_over
        heatmap[1:, :] += h_over
        heatmap[:, : ny - 1] += v_over
        heatmap[:, 1:] += v_over
        overflow_edges = int((h_over > 0).sum() + (v_over > 0).sum())
        est_overflow_total = float(h_over.sum() + v_over.sum())

        hotspots: List[Tuple[int, int, float]] = []
        if est_overflow_total > 0:
            flat = heatmap.ravel()
            top = np.argsort(flat)[::-1][:HOTSPOTS]
            hotspots = [
                (int(t // ny), int(t % ny), float(flat[t]))
                for t in top
                if flat[t] > 0
            ]

        infeasible_reason = ""
        if site_infeasible:
            infeasible_reason = "sites"
        elif cut_infeasible:
            infeasible_reason = "cut"
        verdict = RoutabilityVerdict(
            grid=scenario.grid,
            nets=len(x0),
            total_sites=total_sites,
            demand_lb=demand_lb,
            site_pressure=site_pressure,
            h_util_max=float(h_util.max()) if h_util.size else 0.0,
            v_util_max=float(v_util.max()) if v_util.size else 0.0,
            overflow_edges=overflow_edges,
            est_overflow_total=est_overflow_total,
            cut_slack=cut_slack,
            worst_cut=worst_cut,
            certified_infeasible=bool(infeasible_reason),
            infeasible_reason=infeasible_reason,
            site_starved=site_pressure > SITE_PRESSURE_CEILING,
            congested=bool(
                (h_util > UTILIZATION_CEILING).any()
                or (v_util > UTILIZATION_CEILING).any()
            ),
            seconds=time.perf_counter() - start,
            heatmap=heatmap,
            hotspots=tuple(hotspots),
        )
    if tracer.enabled:
        tracer.count("triage.runs")
        tracer.count(f"triage.verdict.{verdict.verdict}")
        tracer.observe("triage.seconds", verdict.seconds)
    return verdict
