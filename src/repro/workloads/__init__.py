"""Workload subsystem: scale ladder, streaming ECO traces, triage.

Three pieces grown for the ROADMAP's "scale ladder + streaming ECO
workload" item:

* :mod:`repro.workloads.registry` — named workload tiers (the
  ``ladder-*`` synthetic scale ladder and the ten Table-I paper
  circuits as square-grid stand-ins) resolvable to scenarios.
* :mod:`repro.workloads.trace` — seeded streaming ECO traces replayed
  through the incremental planning service, with divergence
  checkpoints against scratch full plans.
* :mod:`repro.workloads.triage` — millisecond routability triage
  (certificates + demand smearing) so full RABID runs are only
  launched on scenarios worth the budget.

See docs/WORKLOADS.md for the tier table, the trace grammar, the
divergence contract, and the triage accuracy caveats.
"""

from repro.workloads.registry import (
    WORKLOAD_SOURCES,
    WORKLOADS,
    WorkloadSpec,
    get_workload,
    list_workloads,
)
from repro.workloads.trace import (
    EVENT_MIX,
    CheckpointRecord,
    EventRecord,
    TraceEvent,
    TraceOptions,
    TraceReport,
    make_trace,
    replay_trace,
    run_workload_trace,
)
from repro.workloads.triage import (
    TRIAGE_MODES,
    VERDICTS,
    RoutabilityVerdict,
    smear_demand,
    triage_scenario,
)

__all__ = [
    "WORKLOAD_SOURCES",
    "WORKLOADS",
    "WorkloadSpec",
    "get_workload",
    "list_workloads",
    "EVENT_MIX",
    "CheckpointRecord",
    "EventRecord",
    "TraceEvent",
    "TraceOptions",
    "TraceReport",
    "make_trace",
    "replay_trace",
    "run_workload_trace",
    "TRIAGE_MODES",
    "VERDICTS",
    "RoutabilityVerdict",
    "smear_demand",
    "triage_scenario",
]
