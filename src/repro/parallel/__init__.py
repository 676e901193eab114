"""Worker pool: the process substrate of the planning service's forked
shards (:mod:`repro.service.scheduler`) and the sweep executor
(:mod:`repro.explore.executor`).

:mod:`repro.parallel.pool` holds a persistent forked worker pool with
crash detection, respawn, retries and per-task timeouts, built from
:class:`PoolWorker` processes that the planning service also drives
directly, one per shard.
Workers share nothing with the parent but what they inherit at fork
and the frames on their pipe.
"""

from repro.parallel.pool import PoolWorker, TaskResult, WorkerPool

__all__ = [
    "PoolWorker",
    "TaskResult",
    "WorkerPool",
]
