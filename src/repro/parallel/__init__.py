"""Workers: the process substrate of the planning service's shards
(:mod:`repro.service.scheduler`) and the sweep executor
(:mod:`repro.explore.executor`).

Both run every attempt through one blocking method, ``call(handler,
payload, deadline) -> (status, value)``, on one of two workers:
:class:`InlineWorker` runs the handler in the caller's thread (one
worker), :class:`PoolWorker` in a forked process that it kills and
re-forks on a crash, a garbled reply or an overrun deadline (more than
one). Forked workers share nothing with the parent but what they
inherit at fork and the frames on their pipe. Each caller keeps its own
retry policy.
"""

from repro.parallel.pool import InlineWorker, PoolWorker

__all__ = [
    "InlineWorker",
    "PoolWorker",
]
