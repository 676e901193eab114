"""The paper's primary contribution: RABID buffer/wire resource allocation.

Modules:

* :mod:`repro.core.costs` — the buffer-site cost ``q(v)`` (Eq. 2).
* :mod:`repro.core.probability` — the usage-probability tracker ``p(v)``.
* :mod:`repro.core.length_rule` — driven-length accounting and violation
  checks for the length-based buffering rule (Fig. 3 interpretation).
* :mod:`repro.core.single_sink` — the single-sink DP of Fig. 6.
* :mod:`repro.core.multi_sink` — the multi-sink DP of Fig. 9.
* :mod:`repro.core.fallback` — greedy best-effort buffering when the DP is
  infeasible (e.g., routes crossing the zero-site blocked region).
* :mod:`repro.core.assignment` — Stage 3 over a whole design (the one
  buffer walk RABID and the service share).
* :mod:`repro.core.two_path` — Stage 4 two-path rip-up-and-reroute.
* :mod:`repro.core.rabid` — the four-stage planner and its metrics.
"""

from repro.core.costs import buffer_site_cost
from repro.core.probability import UsageProbability
from repro.core.length_rule import driven_lengths, length_violations, net_meets_length_rule
from repro.core.single_sink import insert_buffers_single_sink
from repro.core.multi_sink import insert_buffers_multi_sink, DPResult
from repro.core.fallback import greedy_buffering
from repro.core.assignment import NetOutcome, run_buffer_walk
from repro.core.two_path import optimize_two_paths
from repro.core.rescue import rescue_failing_nets, rescue_net
from repro.core.rabid import (
    RabidConfig,
    RabidPlanner,
    RabidResult,
    StageMetrics,
    measure_plan,
)

__all__ = [
    "buffer_site_cost",
    "UsageProbability",
    "driven_lengths",
    "length_violations",
    "net_meets_length_rule",
    "insert_buffers_single_sink",
    "insert_buffers_multi_sink",
    "DPResult",
    "greedy_buffering",
    "run_buffer_walk",
    "NetOutcome",
    "optimize_two_paths",
    "rescue_net",
    "rescue_failing_nets",
    "RabidConfig",
    "RabidPlanner",
    "RabidResult",
    "StageMetrics",
    "measure_plan",
]
