"""The asyncio job scheduler: bounded queue, worker pool, retries.

The planning work itself is CPU-bound synchronous code, so workers hand
each job to a thread (``asyncio.to_thread``) and await it under a
per-job timeout. Three safety properties:

* **Backpressure** — the queue is bounded; a submit against a full
  queue sheds immediately with :class:`repro.errors.QueueFullError`
  (typed, so the protocol layer reports it distinctly).
* **Serialization per baseline** — every job against a given baseline
  takes that baseline's ``threading.Lock`` *inside its worker thread*,
  so a timed-out job's zombie thread can never interleave with the next
  job on the same plan.
* **Timeout rollback** — a timeout cancels the awaiting coroutine but
  cannot stop the thread; thread and timeout path race to claim the
  job's fate through a lock-guarded :class:`_JobFate`, so exactly one
  of them wins. If the timeout claims first, the thread rolls back the
  pre-job backup (and never installs/rebinds a baseline); if the thread
  already claimed completion, the record still reports ``TIMEOUT`` but
  its error says the result was committed, so clients know not to
  resubmit the delta.

Sampled verification (``verify_fraction``) re-plans a deterministic
subset of incremental jobs from scratch and, on a signature mismatch,
adopts the full plan (escalation) while counting the event in ``obs``.
"""

from __future__ import annotations

import asyncio
import contextlib
import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional

from repro.core.rabid import RabidConfig
from repro.errors import (
    JobFailedError,
    JobTimeoutError,
    QueueFullError,
    ServiceError,
    ShuttingDownError,
    UnknownJobError,
)
from repro.obs import NULL_TRACER
from repro.service.engine import PlanState, full_plan
from repro.service.incremental import incremental_replan
from repro.service.jobs import Job, JobRecord, JobStatus

_TERMINAL = (JobStatus.DONE, JobStatus.FAILED, JobStatus.TIMEOUT, JobStatus.SHED)


class _JobFate:
    """Atomic arbiter between a job thread and the timeout path.

    The event loop cannot stop a running thread, so when ``wait_for``
    raises both sides may believe they own the outcome. Exactly one
    claim wins: the thread calls :meth:`try_commit` *before* publishing
    any mutation (installing a baseline, rebinding the dict entry), and
    the timeout path calls :meth:`try_cancel` before reporting "rolled
    back". Whoever claims second learns the truth and acts on it — the
    thread rolls back, or the timeout path reports the commit.
    """

    _COMMITTED = "committed"
    _CANCELLED = "cancelled"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._state: Optional[str] = None

    def try_commit(self) -> bool:
        """Claim completion; False means the timeout already won."""
        with self._lock:
            if self._state is None:
                self._state = self._COMMITTED
            return self._state == self._COMMITTED

    def try_cancel(self) -> bool:
        """Claim cancellation; False means the thread already committed."""
        with self._lock:
            if self._state is None:
                self._state = self._CANCELLED
            return self._state == self._CANCELLED


@dataclass
class SchedulerOptions:
    """Knobs for :class:`PlanningService`.

    Attributes:
        workers: concurrent worker tasks (each runs one job thread).
        max_queue: queued-job cap; submits beyond it shed.
        job_timeout: per-attempt wall-clock budget in seconds.
        retries: re-runs after a failed attempt (timeouts don't retry).
        backoff: base delay before retry ``k`` (``backoff * 2**k``).
        verify_fraction: fraction of incremental jobs re-checked against
            a scratch full plan (0 disables, 1 checks every job).
        verify_seed: seed of the sampling stream, so a service replays
            the same verification schedule across restarts.
    """

    workers: int = 2
    max_queue: int = 64
    job_timeout: float = 300.0
    retries: int = 1
    backoff: float = 0.25
    verify_fraction: float = 0.0
    verify_seed: int = 0

    def __post_init__(self) -> None:
        from repro.errors import ConfigurationError

        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if self.max_queue < 1:
            raise ConfigurationError("max_queue must be >= 1")
        if self.job_timeout <= 0:
            raise ConfigurationError("job_timeout must be > 0")
        if self.retries < 0:
            raise ConfigurationError("retries must be >= 0")
        if self.backoff < 0:
            raise ConfigurationError("backoff must be >= 0")
        if not 0.0 <= self.verify_fraction <= 1.0:
            raise ConfigurationError("verify_fraction must be in [0, 1]")


class PlanningService:
    """Owns the baselines, the queue, and the worker pool."""

    def __init__(
        self,
        config: "RabidConfig | None" = None,
        options: "SchedulerOptions | None" = None,
        tracer=None,
        full_plan_fn=full_plan,
        replan_fn=incremental_replan,
    ):
        self.config = config or RabidConfig()
        self.options = options or SchedulerOptions()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._full_plan = full_plan_fn
        self._replan = replan_fn
        self._queue: "asyncio.Queue[str]" = asyncio.Queue(
            maxsize=self.options.max_queue
        )
        self._records: Dict[str, JobRecord] = {}
        self._baselines: Dict[str, PlanState] = {}
        self._baseline_locks: Dict[str, threading.Lock] = {}
        self._workers: List[asyncio.Task] = []
        self._verify_rng = random.Random(self.options.verify_seed)
        self._shutting_down = False
        self._dirty: "set[str]" = set()
        self._stats = {
            "submitted": 0,
            "shed": 0,
            "done": 0,
            "failed": 0,
            "timeout": 0,
            "verified": 0,
            "mismatches": 0,
        }

    # -- lifecycle ------------------------------------------------------- #

    async def start(self) -> None:
        if self._workers:
            return
        self._workers = [
            asyncio.create_task(self._worker_loop(i))
            for i in range(self.options.workers)
        ]

    async def stop(self) -> None:
        for task in self._workers:
            task.cancel()
        for task in self._workers:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._workers = []

    async def drain(self) -> None:
        """Wait until every queued job has finished."""
        await self._queue.join()

    @property
    def shutting_down(self) -> bool:
        return self._shutting_down

    def begin_shutdown(self) -> None:
        """Reject all further submissions; in-flight jobs keep running."""
        self._shutting_down = True

    async def drain_until(self, deadline_s: "float | None") -> Dict[str, Any]:
        """Drain with a wall-clock bound.

        Returns ``{"drained": bool, "pending": n}`` — ``pending`` counts
        queued plus running jobs left when the deadline cut the wait
        short (they are abandoned by shutdown; their baselines were
        either committed or rolled back per the usual fate rules).
        """
        limit = (
            time.monotonic() + deadline_s if deadline_s is not None else None
        )
        while True:
            pending = self._queue.qsize() + sum(
                1
                for r in self._records.values()
                if r.status is JobStatus.RUNNING
            )
            if not pending:
                return {"drained": True, "pending": 0}
            if limit is not None and time.monotonic() > limit:
                return {"drained": False, "pending": pending}
            await asyncio.sleep(0.01)

    # -- submission / inspection ----------------------------------------- #

    def submit(self, job: Job) -> JobRecord:
        """Enqueue a job; raises :class:`QueueFullError` when saturated.

        A job id whose only record is ``SHED`` may be resubmitted:
        backpressure is exactly the condition that invites a retry, so
        shedding must not burn the id.
        """
        if self._shutting_down:
            raise ShuttingDownError(
                "service is shutting down; submission rejected"
            )
        existing = self._records.get(job.job_id)
        if existing is not None and existing.status is not JobStatus.SHED:
            raise ServiceError(f"duplicate job id {job.job_id!r}")
        if job.kind == "baseline" and job.job_id in self._baselines:
            # A restored baseline has no job record; replanning over it
            # would silently discard the restored plan.
            raise ServiceError(f"baseline {job.job_id!r} already exists")
        record = JobRecord(job=job, submitted_at=time.monotonic())
        self._stats["submitted"] += 1
        try:
            self._queue.put_nowait(job.job_id)
        except asyncio.QueueFull:
            record.status = JobStatus.SHED
            record.error = (
                f"queue full ({self.options.max_queue} jobs); shed"
            )
            self._stats["shed"] += 1
            self._records[job.job_id] = record
            if self.tracer.enabled:
                self.tracer.count("service.jobs_shed")
            raise QueueFullError(record.error)
        self._records[job.job_id] = record
        if self.tracer.enabled:
            self.tracer.count("service.jobs_submitted")
            self.tracer.gauge("service.queue_depth", self._queue.qsize())
        return record

    def record(self, job_id: str) -> JobRecord:
        try:
            return self._records[job_id]
        except KeyError:
            raise UnknownJobError(f"unknown job {job_id!r}") from None

    def baseline(self, baseline_id: str) -> PlanState:
        try:
            return self._baselines[baseline_id]
        except KeyError:
            raise UnknownJobError(f"unknown baseline {baseline_id!r}") from None

    @contextlib.contextmanager
    def locked_baseline(self, baseline_id: str) -> Iterator[PlanState]:
        """The baseline under its job lock — a quiescent plan.

        Delta jobs and checkpointing both read the plan through here;
        without the lock a worker (or a timed-out job's zombie thread)
        could mutate it mid-read. Re-reads the dict entry after acquiring
        the lock so a concurrent full-mode rebind yields the new plan,
        not the orphaned one.
        """
        try:
            lock = self._baseline_locks[baseline_id]
        except KeyError:
            raise UnknownJobError(f"unknown baseline {baseline_id!r}") from None
        with lock:
            yield self.baseline(baseline_id)

    def install_baseline(self, baseline_id: str, state: PlanState) -> None:
        """Adopt a pre-built plan (checkpoint restore / warm restart)."""
        if baseline_id in self._baselines:
            raise ServiceError(f"baseline {baseline_id!r} already exists")
        self._baselines[baseline_id] = state
        self._baseline_locks[baseline_id] = threading.Lock()

    @property
    def baseline_ids(self) -> List[str]:
        return sorted(self._baselines)

    @property
    def dirty_baseline_ids(self) -> List[str]:
        """Baselines mutated since their last checkpoint (or install)."""
        return sorted(self._dirty)

    def mark_baseline_clean(self, baseline_id: str) -> None:
        self._dirty.discard(baseline_id)

    def checkpoint_to(self, directory, only_dirty: bool = False) -> List[str]:
        """Persist baselines to ``directory``; returns written paths."""
        from repro.service.checkpoint import save_service_checkpoints

        return save_service_checkpoints(
            directory, self, only_dirty=only_dirty
        )

    def stats(self) -> Dict[str, Any]:
        return {
            **self._stats,
            "queue_depth": self._queue.qsize(),
            "baselines": len(self._baselines),
        }

    async def wait(self, job_id: str, poll: float = 0.01) -> JobRecord:
        """Block until a job reaches a terminal status."""
        record = self.record(job_id)
        while record.status not in _TERMINAL:
            await asyncio.sleep(poll)
        return record

    # -- workers ---------------------------------------------------------- #

    async def _worker_loop(self, index: int) -> None:
        while True:
            job_id = await self._queue.get()
            try:
                await self._run_with_retries(self._records[job_id])
            finally:
                self._queue.task_done()
                if self.tracer.enabled:
                    self.tracer.gauge("service.queue_depth", self._queue.qsize())

    async def _run_with_retries(self, record: JobRecord) -> None:
        record.status = JobStatus.RUNNING
        record.started_at = time.monotonic()
        if self.tracer.enabled:
            self.tracer.observe(
                "service.queue_wait_seconds", record.queue_wait
            )
        options = self.options
        for attempt in range(options.retries + 1):
            record.attempts += 1
            fate = _JobFate()
            try:
                result = await asyncio.wait_for(
                    asyncio.to_thread(self._run_job_sync, record.job, fate),
                    timeout=options.job_timeout,
                )
            except asyncio.TimeoutError:
                record.status = JobStatus.TIMEOUT
                if fate.try_cancel():
                    outcome = "rolled back"
                else:
                    # The thread claimed completion inside the race
                    # window: its mutation is committed and must not be
                    # reported as undone (a client would re-apply it).
                    outcome = "completed before cancellation; committed"
                record.error = (
                    f"job exceeded {options.job_timeout}s "
                    f"(attempt {attempt + 1}); {outcome}"
                )
                self._stats["timeout"] += 1
                if self.tracer.enabled:
                    self.tracer.count("service.jobs_timeout")
                break
            except Exception as exc:  # noqa: BLE001 - report, don't crash pool
                record.error = f"{type(exc).__name__}: {exc}"
                if attempt < options.retries:
                    await asyncio.sleep(options.backoff * (2 ** attempt))
                    if self.tracer.enabled:
                        self.tracer.count("service.jobs_retried")
                    continue
                record.status = JobStatus.FAILED
                self._stats["failed"] += 1
                if self.tracer.enabled:
                    self.tracer.count("service.jobs_failed")
                break
            else:
                record.result = result
                record.status = JobStatus.DONE
                self._stats["done"] += 1
                break
        record.finished_at = time.monotonic()
        if self.tracer.enabled and record.status is JobStatus.DONE:
            self.tracer.observe(
                "service.job_seconds", record.finished_at - record.submitted_at
            )
            mode = (
                "baseline"
                if record.job.kind == "baseline"
                else record.job.mode
            )
            elapsed = record.finished_at - record.started_at
            self.tracer.observe("service.exec_seconds", elapsed)
            self.tracer.observe(f"service.exec_seconds.{mode}", elapsed)

    # -- the job body (runs in a worker thread) --------------------------- #

    def _run_job_sync(self, job: Job, fate: _JobFate) -> Dict[str, Any]:
        if job.kind == "baseline":
            return self._run_baseline(job, fate)
        return self._run_delta(job, fate)

    def _run_baseline(self, job: Job, fate: _JobFate) -> Dict[str, Any]:
        config = self.config
        if job.config is not None:
            config = RabidConfig.from_dict(job.config)
        state = self._full_plan(job.scenario, config, tracer=self.tracer)
        if not fate.try_commit():
            # The scheduler already reported TIMEOUT; installing now
            # would silently adopt a baseline it said failed.
            raise JobTimeoutError(
                f"job {job.job_id!r} cancelled; baseline not installed"
            )
        self.install_baseline(job.job_id, state)
        self._dirty.add(job.job_id)
        return {"baseline_id": job.job_id, **state.summary()}

    def _run_delta(self, job: Job, fate: _JobFate) -> Dict[str, Any]:
        # The plan is read under the lock: a full-mode delta or a verify
        # escalation that commits while this job waits rebinds the entry.
        with self.locked_baseline(job.baseline_id) as state:
            backup = state.backup()
            try:
                result, new_state = self._apply_delta_locked(job, state)
            except ServiceError:
                raise
            except Exception as exc:
                raise JobFailedError(
                    f"delta job {job.job_id!r} failed: {exc}"
                ) from exc
            if not fate.try_commit():
                # The awaiting side already reported a timeout; undo the
                # in-place mutation and drop any replacement plan so the
                # reported state matches reality.
                state.restore(backup)
                raise JobTimeoutError(f"job {job.job_id!r} cancelled")
            if new_state is not None:
                self._baselines[job.baseline_id] = new_state
            self._dirty.add(job.baseline_id)
            return result

    def _apply_delta_locked(
        self, job: Job, state: PlanState
    ) -> "tuple[Dict[str, Any], Optional[PlanState]]":
        """Run the delta; returns (result, replacement plan or None).

        Never rebinds ``self._baselines`` itself — full-mode and
        escalation plans are handed back so :meth:`_run_delta` installs
        them only after the job wins the commit/cancel race.
        """
        seconds_full_estimate = state.seconds_full
        if job.mode == "full":
            from repro.service.jobs import apply_delta

            new_state = self._full_plan(
                apply_delta(state.scenario, job.delta),
                state.config,
                tracer=self.tracer,
            )
            result = {
                "baseline_id": job.baseline_id,
                "mode": "full",
                **new_state.summary(),
            }
            return result, new_state
        stats = self._replan(state, job.delta, tracer=self.tracer)
        result = {
            "baseline_id": job.baseline_id,
            "mode": "incremental",
            **stats.as_dict(),
        }
        if seconds_full_estimate and stats.seconds > 0:
            speedup = seconds_full_estimate / stats.seconds
            result["speedup_vs_full"] = round(speedup, 2)
            if self.tracer.enabled:
                self.tracer.observe("service.incremental_speedup", speedup)
        new_state = None
        if self._verify_rng.random() < self.options.verify_fraction:
            out, new_state = self._verify(job, state)
            result.update(out)
        return result, new_state

    def _verify(
        self, job: Job, state: PlanState
    ) -> "tuple[Dict[str, Any], Optional[PlanState]]":
        from repro.service.verify import verify_state

        self._stats["verified"] += 1
        if self.tracer.enabled:
            self.tracer.count("service.jobs_verified")
        check = verify_state(state, tracer=self.tracer)
        out: Dict[str, Any] = {
            "verified": True,
            "verify_matched": check.matched,
        }
        escalated: Optional[PlanState] = None
        if not check.matched:
            # Escalate: the scratch full plan is the truth; adopt it.
            self._stats["mismatches"] += 1
            escalated = check.reference
            out["escalated"] = True
            out["signature"] = check.reference.signature
            if self.tracer.enabled:
                self.tracer.count("service.verify_mismatches")
                self.tracer.event(
                    "verify_mismatch",
                    job.job_id,
                    incremental=check.incremental_signature,
                    full=check.full_signature,
                )
        return out, escalated
