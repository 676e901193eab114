"""Timing substrate: Elmore delay of (buffered) route trees.

The paper reports maximum and average source-to-sink delays per stage
(Tables II-V). Delays are computed with the Elmore model: each tile-graph
edge is a distributed RC segment of the tile pitch; buffers split the tree
into stages, each driven by the upstream gate's output resistance.
"""

from repro.timing.elmore import (
    DelayReport,
    elmore_sink_delays,
    net_delay,
    delay_summary,
)
from repro.timing.van_ginneken import (
    rebuffer_net_timing_driven,
    timing_driven_buffering,
)

__all__ = [
    "DelayReport",
    "elmore_sink_delays",
    "net_delay",
    "delay_summary",
    "timing_driven_buffering",
    "rebuffer_net_timing_driven",
]
