"""repro — reproduction of "A Practical Methodology for Early Buffer and
Wire Resource Allocation" (Alpert, Hu, Sapatnekar, Villarrubia; DAC 2001 /
IEEE TCAD 2003).

The library implements the buffer-site methodology end to end: tile-graph
modeling of buffer sites and wire capacities, the four-stage RABID planner
(Steiner construction, congestion-driven rip-up/reroute, length-based
buffer-assignment DP, two-path post-processing), an Elmore timing model,
synthetic versions of the paper's benchmarks (blocks placed by shelf
packing), and a buffer-block-planning (BBP/FR) baseline for the Table V
comparison.

Quickstart::

    from repro import load_benchmark, RabidPlanner, RabidConfig

    bench = load_benchmark("apte")
    planner = RabidPlanner(
        bench.graph, bench.netlist, RabidConfig(length_limit=bench.spec.length_limit)
    )
    result = planner.run()
    print(result.final_metrics)
"""

from repro.errors import (
    ConfigurationError,
    FloorplanError,
    InfeasibleError,
    NetlistError,
    ObservabilityError,
    ReproError,
    RoutingError,
)
from repro.obs import NULL_TRACER, NullTracer, Tracer, read_trace, render_summary
from repro.geometry import Point, Rect
from repro.technology import TECH_180NM, BufferKind, BufferLibrary, Technology
from repro.netlist import Net, Netlist, Pin, decompose_to_two_pin
from repro.floorplan import Block, Floorplan
from repro.tilegraph import (
    CapacityModel,
    CongestionStats,
    SiteDistribution,
    TileGraph,
    buffer_density_stats,
    wire_congestion_stats,
)
from repro.routing import RouteTree, prim_dijkstra_tree, remove_overlaps, embed_tree
from repro.timing import (
    DelayReport,
    net_delay,
    delay_summary,
    timing_driven_buffering,
    rebuffer_net_timing_driven,
)
from repro.tilegraph import PlacedBuffer, SitePlacement, legalize_buffers
from repro.analysis import design_report
from repro.core import (
    RabidConfig,
    RabidPlanner,
    RabidResult,
    StageMetrics,
    insert_buffers_multi_sink,
    insert_buffers_single_sink,
)
from repro.benchmarks import BenchmarkInstance, BenchmarkSpec, BENCHMARK_SPECS, load_benchmark
from repro.bbp import BbpConfig, BbpPlanner, BbpResult

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "ConfigurationError",
    "NetlistError",
    "FloorplanError",
    "RoutingError",
    "InfeasibleError",
    "Point",
    "Rect",
    "Technology",
    "TECH_180NM",
    "BufferKind",
    "BufferLibrary",
    "Pin",
    "Net",
    "Netlist",
    "decompose_to_two_pin",
    "Block",
    "Floorplan",
    "TileGraph",
    "CapacityModel",
    "SiteDistribution",
    "CongestionStats",
    "wire_congestion_stats",
    "buffer_density_stats",
    "RouteTree",
    "prim_dijkstra_tree",
    "remove_overlaps",
    "embed_tree",
    "DelayReport",
    "net_delay",
    "delay_summary",
    "timing_driven_buffering",
    "rebuffer_net_timing_driven",
    "PlacedBuffer",
    "SitePlacement",
    "legalize_buffers",
    "design_report",
    "RabidConfig",
    "RabidPlanner",
    "RabidResult",
    "StageMetrics",
    "insert_buffers_single_sink",
    "insert_buffers_multi_sink",
    "BenchmarkSpec",
    "BenchmarkInstance",
    "BENCHMARK_SPECS",
    "load_benchmark",
    "BbpConfig",
    "BbpPlanner",
    "BbpResult",
    "ObservabilityError",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "read_trace",
    "render_summary",
    "__version__",
]
