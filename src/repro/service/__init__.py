"""The incremental planning service.

A persistent layer over the RABID pipeline for the paper's intended
workflow — perturb the floorplan, re-evaluate, repeat — built from:

* :mod:`repro.service.jobs` — typed scenarios, deltas, and jobs.
* :mod:`repro.service.engine` — full plans with replayable per-net state.
* :mod:`repro.service.incremental` — exact dirty-region re-planning.
* :mod:`repro.service.scheduler` — the one scheduler: shards run
  in-process at one worker and forked above it; each job runs once,
  with timeouts and retries.
* :mod:`repro.service.tenant` — fair per-tenant FIFO queues.
* :mod:`repro.service.loadgen` — seeded open-loop load generation.
* :mod:`repro.service.verify` — sampled incremental-vs-full checks.
* :mod:`repro.service.checkpoint` — warm restarts via ``repro.io``.
* :mod:`repro.service.protocol` — the ``repro serve`` JSON-lines API.
"""

from repro.core.assignment import NetOutcome
from repro.service.engine import PlanState, full_plan
from repro.service.incremental import IncrementalStats, incremental_replan
from repro.service.jobs import (
    DeltaOp,
    DeltaSpec,
    Job,
    JobRecord,
    JobStatus,
    MacroSpec,
    ScenarioSpec,
    add_net,
    apply_delta,
    move_macro,
    remove_net,
    set_capacity,
    set_length_limit,
    set_sites,
)
from repro.service.loadgen import (
    LoadgenOptions,
    LoadReport,
    LoadTrace,
    make_load_trace,
    run_load,
)
from repro.service.scheduler import (
    BaselineRecord,
    PlanningService,
    SchedulerOptions,
)
from repro.service.tenant import QueuedItem, TenantQueues
from repro.service.verify import VerificationResult, verify_state

__all__ = [
    "BaselineRecord",
    "DeltaOp",
    "DeltaSpec",
    "IncrementalStats",
    "Job",
    "JobRecord",
    "JobStatus",
    "LoadReport",
    "LoadTrace",
    "LoadgenOptions",
    "MacroSpec",
    "NetOutcome",
    "PlanState",
    "PlanningService",
    "QueuedItem",
    "ScenarioSpec",
    "SchedulerOptions",
    "TenantQueues",
    "VerificationResult",
    "add_net",
    "apply_delta",
    "full_plan",
    "incremental_replan",
    "make_load_trace",
    "move_macro",
    "run_load",
    "remove_net",
    "set_capacity",
    "set_length_limit",
    "set_sites",
    "verify_state",
]
