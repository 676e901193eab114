"""Shared-memory worker pool: the process substrate of the planning
fleet (:mod:`repro.service.fleet`) and the sweep executor
(:mod:`repro.explore.executor`).

Layers:

* :mod:`repro.parallel.shm` — named shared-memory arrays with
  generation/version stamps (publish parent-side, view worker-side).
* :mod:`repro.parallel.pool` — a persistent forked worker pool with
  crash detection, respawn, retries and per-task timeouts.
"""

from repro.parallel.pool import PoolError, PoolWorker, TaskResult, WorkerPool
from repro.parallel.shm import (
    AttachmentCache,
    SharedArrayRegistry,
    SharedArraySpec,
    attach_segment,
)

__all__ = [
    "AttachmentCache",
    "PoolError",
    "PoolWorker",
    "SharedArrayRegistry",
    "SharedArraySpec",
    "TaskResult",
    "WorkerPool",
    "attach_segment",
]
