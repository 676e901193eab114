"""The planning service's one scheduler: tenant queues, shards, one job body.

:class:`PlanningService` owns every baseline's replayable record, the
per-tenant queues and the shards. Each baseline lives on one shard
(assigned round-robin when it is submitted or installed); every job for
it runs there, one attempt at a time, in submission order. One
dispatcher thread per shard pops the shard's work from
:class:`repro.service.tenant.TenantQueues` (a bounded FIFO per tenant,
stride fair selection across tenants, and at most one queued job per
baseline eligible at a time). A job runs once: it starts a second
attempt only when the first errored or crashed.

Every attempt runs the same job body, :func:`run_job`: the shard keeps
each baseline's materialized :class:`~repro.service.engine.PlanState` in
its plan cache, tagged with the baseline's committed version, and the
parent sends, with the job, that version and the committed signature.
A shard whose cache cannot serve them (a respawned worker, a shard
forked before an install) replies ``miss``; the parent resends the
attempt with the committed scenario, the chain root and the incremental
deltas committed since it, and the shard rebuilds the plan (see
:func:`_materialize`) and must reproduce the signature. So a job's
payload does not grow with the baseline's history. The parent commits a
reply by extending the chain, and re-roots it at every full-mode or
verified job.

A shard runs each attempt through its worker's ``call``
(:mod:`repro.parallel.pool`):

* ``workers == 1``: an :class:`~repro.parallel.pool.InlineWorker` runs
  the job body in the service's own process, on the shard's dispatcher
  thread, calling ``full_plan_fn`` and ``replan_fn`` there.
* ``workers > 1``: each shard is a forked
  :class:`~repro.parallel.pool.PoolWorker` that inherits those functions
  and the plan cache at fork; payloads and replies cross a pipe.

How an attempt ends. The engine polls an ``abort_check`` hook between
nets; the hook fires once the attempt's deadline (``job_timeout``) has
passed. A forked worker's ``call`` also kills and re-forks a worker
that overruns the deadline. An attempt past its deadline ends the job
``TIMEOUT`` without retry. A handler error or a crashed worker
(respawned first) retries at once, up to ``retries`` times, then the
job ends ``FAILED``. No thread is ever abandoned.

Nothing a failed attempt did survives it: a baseline or full plan is
built on a fresh graph, :func:`~repro.service.incremental.incremental_replan`
restores its backup when it raises, and a failed verification restores
the backup taken before the replay. A cache entry moves to the next
version only when the attempt succeeds.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import random
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.rabid import RabidConfig
from repro.errors import (
    CheckpointError,
    ConfigurationError,
    DeadlineError,
    QueueFullError,
    ServiceError,
    ShuttingDownError,
    UnknownJobError,
)
from repro.obs import NULL_TRACER
from repro.parallel.pool import InlineWorker, PoolWorker, WorkerContext
from repro.service.engine import PlanState, full_plan
from repro.service.incremental import incremental_replan
from repro.service.jobs import (
    DeltaSpec,
    Job,
    JobRecord,
    JobStatus,
    ScenarioSpec,
    apply_delta,
)
from repro.service.tenant import QueuedItem, TenantQueues
from repro.service.verify import verify_state

_TERMINAL = (JobStatus.DONE, JobStatus.FAILED, JobStatus.TIMEOUT, JobStatus.SHED)

#: Handler spec every shard's worker resolves (worker protocol).
JOB_HANDLER = "repro.service.scheduler:run_job"

#: Seed of the verification sampling stream, so a service replays the
#: same verification schedule across restarts.
VERIFY_SEED = 0

#: Tracer counter behind each scheduler event.
_TRACE_COUNTERS = {
    "submitted": "service.jobs_submitted",
    "shed": "service.jobs_shed",
    "failed": "service.jobs_failed",
    "timeout": "service.jobs_timeout",
    "retried": "service.jobs_retried",
    "verified": "service.jobs_verified",
    "mismatches": "service.verify_mismatches",
    "dispatches": "fleet.dispatches",
    "rebuilds": "fleet.rebuilds",
    "respawns": "fleet.respawns",
}


@dataclass
class SchedulerOptions:
    """Knobs for :class:`PlanningService`.

    Attributes:
        workers: shards. 1 runs the job body in the service's process;
            more fork one planner process per shard.
        max_queue: queued-job cap per tenant; submits beyond it shed.
        job_timeout: per-attempt wall-clock budget in seconds.
        retries: extra attempts after a handler error or a crash
            (timeouts are not retried).
        verify_fraction: fraction of incremental jobs re-checked against
            a scratch full plan (0 disables, 1 checks every job).
    """

    workers: int = 1
    max_queue: int = 64
    job_timeout: float = 300.0
    retries: int = 1
    verify_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if self.max_queue < 1:
            raise ConfigurationError("max_queue must be >= 1")
        if self.job_timeout <= 0:
            raise ConfigurationError("job_timeout must be > 0")
        if self.retries < 0:
            raise ConfigurationError("retries must be >= 0")
        if not 0.0 <= self.verify_fraction <= 1.0:
            raise ConfigurationError("verify_fraction must be in [0, 1]")


@dataclass
class BaselineRecord:
    """The parent's authoritative record of one baseline.

    ``root`` is the scenario of the last commit known to equal a
    from-scratch plan (a baseline, full-mode or verified job) and
    ``chain`` the incremental deltas committed since; any process can
    rebuild the exact plan by full-planning the root and replaying the
    chain. ``version`` counts commits (an install counts as one) and
    tags the plan a shard caches. ``signature`` is ``None`` until the
    baseline job commits, and ``summary`` is the committed plan's
    :meth:`PlanState.summary`.
    """

    baseline_id: str
    shard: int
    root: ScenarioSpec
    scenario: ScenarioSpec
    config: Dict[str, Any]
    chain: Tuple[DeltaSpec, ...] = ()
    signature: Optional[str] = None
    version: int = 0
    dirty: bool = False
    summary: Optional[Dict[str, Any]] = None


def _wake(future: asyncio.Future) -> None:
    """Resolve a ``wait`` future on its loop, unless it was cancelled."""
    if not future.done():
        future.set_result(None)


def _baseline_of(job: Job) -> str:
    return job.job_id if job.kind == "baseline" else job.baseline_id


# --------------------------------------------------------------------- #
# The job body (the shard's process)                                    #
# --------------------------------------------------------------------- #


def _abort_check(payload: Dict[str, Any]) -> Callable[[], bool]:
    """The engine's hook for this attempt: has its deadline passed?"""
    deadline = payload["deadline"]
    return lambda: time.monotonic() > deadline


def _materialize(entry: Dict[str, Any], context: Dict[str, Any], abort):
    """The committed plan of ``entry``'s baseline, from the cache or rebuilt.

    Returns ``(state, rebuilt)``, or ``None`` when the cache does not
    hold the committed version and ``entry`` carries no ``chain`` to
    rebuild it from. Incremental replay is exact, so a rebuild is one
    full plan of the committed scenario; only if that misses the
    committed signature does it full-plan the chain root and replay
    every committed delta. It must reproduce the committed signature or
    the attempt errors.
    """
    plans = context["plans"]
    baseline_id = entry["baseline_id"]
    version, expected = entry["version"], entry["expected_signature"]
    cached = plans.get(baseline_id)
    if cached is not None and cached[0] == version and cached[1].signature == expected:
        return cached[1], False
    if "chain" not in entry:
        return None
    plans.pop(baseline_id, None)
    config = RabidConfig.from_dict(entry["config"])
    state = context["full_plan"](
        ScenarioSpec.from_dict(entry["scenario"]), config, abort_check=abort
    )
    if state.signature != expected:
        state = context["full_plan"](
            ScenarioSpec.from_dict(entry["root"]), config, abort_check=abort
        )
        for delta in entry["chain"]:
            context["replan"](state, DeltaSpec.from_dict(delta), abort_check=abort)
    if state.signature != expected:
        raise ServiceError(
            f"rebuild of baseline {baseline_id!r} diverged: expected "
            f"{expected[:12]}..., got {state.signature[:12]}..."
        )
    plans[baseline_id] = (version, state)
    return state, True


def _plan(payload: Dict[str, Any], context: Dict[str, Any], abort) -> Dict[str, Any]:
    tracer = context["tracer"]
    baseline_id = payload["baseline_id"]
    result: Dict[str, Any] = {"baseline_id": baseline_id}
    if payload["kind"] == "baseline" or payload["mode"] == "full":
        # The committed scenario with the job's own delta.
        scenario = ScenarioSpec.from_dict(payload["scenario"])
        if payload["delta"]:
            scenario = apply_delta(scenario, DeltaSpec.from_dict(payload["delta"]))
        state = context["full_plan"](
            scenario,
            RabidConfig.from_dict(payload["config"]),
            tracer=tracer,
            abort_check=abort,
        )
        if payload["kind"] == "delta":
            result["mode"] = "full"
        result.update(state.summary())
        rebuilt = False
    else:
        materialized = _materialize(payload, context, abort)
        if materialized is None:
            return {"status": "miss"}
        state, rebuilt = materialized
        seconds_full = state.seconds_full
        # The replay restores its own backup when it raises; this one
        # undoes a replay whose verification then fails to finish.
        backup = state.backup() if payload["verify"] else None
        stats = context["replan"](
            state,
            DeltaSpec.from_dict(payload["delta"]),
            tracer=tracer,
            abort_check=abort,
        )
        result.update(mode="incremental", **stats.as_dict())
        if seconds_full and stats.seconds > 0:
            speedup = seconds_full / stats.seconds
            result["speedup_vs_full"] = round(speedup, 2)
            if tracer.enabled:
                tracer.observe("service.incremental_speedup", speedup)
        if backup is not None:
            try:
                check = verify_state(state, tracer=tracer, abort_check=abort)
            except BaseException:
                state.restore(backup)
                raise
            result.update(verified=True, verify_matched=check.matched)
            if not check.matched:
                # The scratch plan is the truth: adopt it, and the parent
                # makes its scenario the new chain root.
                state = check.reference
                result.update(escalated=True, signature=state.signature)
    # The version the parent's commit of this reply makes current.
    context["plans"][baseline_id] = (payload["version"] + 1, state)
    return {
        "status": "ok",
        "signature": state.signature,
        "summary": state.summary(),
        "result": result,
        "rebuilt": rebuilt,
    }


def run_job(payload: Dict[str, Any], ctx: WorkerContext) -> Dict[str, Any]:
    """The job body: one attempt of one job, on the baseline's shard.

    ``ctx.context`` is the shard's: ``plans`` (baseline id -> committed
    version and :class:`PlanState`), ``full_plan`` and ``replan`` (the
    service's functions) and ``tracer``. Ops:

    * ``plan`` — run a baseline, incremental or full-mode job. Replies
      ``{"status": "ok", "signature", "summary", "result", "rebuilt"}``,
      or ``{"status": "timeout"}`` when the attempt's deadline passed;
      nothing was committed then.
    * ``checkpoint`` — serialize the named baselines' committed plans.

    Either op replies ``{"status": "miss"}`` when a plan it needs is not
    in the cache at its committed version and the payload carries no
    chain to rebuild it from.
    """
    context = ctx.context
    if payload["op"] == "checkpoint":
        from repro.service.checkpoint import checkpoint_to_dict

        checkpoints = {}
        for entry in payload["baselines"]:
            materialized = _materialize(entry, context, None)
            if materialized is None:
                return {"status": "miss"}
            checkpoints[entry["baseline_id"]] = checkpoint_to_dict(
                entry["baseline_id"], materialized[0]
            )
        return {"status": "ok", "checkpoints": checkpoints}
    try:
        return _plan(payload, context, _abort_check(payload))
    except DeadlineError:
        return {"status": "timeout"}


# --------------------------------------------------------------------- #
# Shards (the service's process)                                        #
# --------------------------------------------------------------------- #


class _Shard:
    """One shard: its dispatcher thread and its worker.

    The thread pops the shard's work from the tenant queues and runs one
    attempt at a time through its worker's ``call``: an
    :class:`~repro.parallel.pool.InlineWorker` runs :func:`run_job` on
    this thread, a forked :class:`~repro.parallel.pool.PoolWorker` ships
    the payload over the pipe and waits for the reply under the
    attempt's deadline.
    """

    def __init__(self, service: "PlanningService", index: int) -> None:
        self.service = service
        self.index = index
        forked = service.options.workers > 1
        context = {
            "plans": service._plans,
            "full_plan": service._full_plan,
            "replan": service._replan,
            "tracer": NULL_TRACER if forked else service.tracer,
        }
        self.worker = PoolWorker(context) if forked else InlineWorker(context)
        self.thread = threading.Thread(
            target=self._loop, name=f"planning-shard-{index}", daemon=True
        )
        # The running job, guarded by the service condition.
        self.running: Optional[JobRecord] = None

    def close(self) -> None:
        self.worker.shutdown()

    def _loop(self) -> None:
        svc = self.service
        while True:
            with svc._cond:
                while not svc._stopping:
                    item = svc._queues.pop_for_shard(self.index)
                    if item is not None:
                        break
                    svc._cond.wait(timeout=0.05)
                else:
                    return
                # Running from the pop on, so a drain never sees neither.
                self.running = item.payload.get("record")
            if item.payload["type"] == "checkpoint":
                self._checkpoint(item.payload["sink"])
            else:
                self._run(item)

    def _attempt(self, payload: Dict[str, Any]) -> Tuple[str, Any]:
        """One attempt: ``("ok", reply)`` or ``(status, message)`` with
        status ``"error"``, ``"crashed"`` or ``"timeout"``."""
        self.service._count("dispatches")
        status, value = self._send(payload)
        if status == "ok" and value["status"] == "miss":
            # The shard lost the committed plan: resend with its history.
            self.service._add_history(payload)
            status, value = self._send(payload)
        return status, value

    def _send(self, payload: Dict[str, Any]) -> Tuple[str, Any]:
        status, value = self.worker.call(JOB_HANDLER, payload, payload["deadline"])
        if status in ("crashed", "timeout"):  # the worker was re-forked
            self.service._count("respawns")
        return status, value

    def _run(self, item: QueuedItem) -> None:
        svc = self.service
        record: JobRecord = item.payload["record"]
        try:
            with svc._cond:
                record.started_at = time.monotonic()
                record.status = JobStatus.RUNNING
                try:
                    payload = svc._job_payload(item)
                except ServiceError as exc:
                    svc._finish(record, JobStatus.FAILED, error=str(exc))
                    return
            if svc.tracer.enabled:
                svc.tracer.observe("service.queue_wait_seconds", record.queue_wait)
            self._attempts(record, payload)
        finally:
            with svc._cond:
                self.running = None
                svc._cond.notify_all()

    def _attempts(self, record: JobRecord, payload) -> None:
        svc = self.service
        options = svc.options
        for attempt in range(options.retries + 1):
            with svc._cond:
                record.attempts += 1
            payload["deadline"] = time.monotonic() + options.job_timeout
            status, reply = self._attempt(payload)
            if status == "ok":
                status = reply["status"]
            if status == "ok":
                svc._commit(record, reply)
                return
            if status == "timeout":
                svc._finish(
                    record,
                    JobStatus.TIMEOUT,
                    error=f"attempt {record.attempts} exceeded the "
                    f"{options.job_timeout}s job timeout",
                )
                return
            if attempt == options.retries or svc._stopping:
                svc._finish(
                    record,
                    JobStatus.FAILED,
                    error=f"{status} after {record.attempts} attempt(s): {reply}",
                )
                return
            svc._count("retried")

    def _checkpoint(self, sink: Dict[str, Any]) -> None:
        svc = self.service
        with svc._cond:
            entries = [svc._entry(svc._baselines[bid]) for bid in sink["bids"]]
        status, reply = self._attempt(
            {
                "op": "checkpoint",
                "baselines": entries,
                "deadline": time.monotonic() + svc.options.job_timeout,
            }
        )
        if status == "ok":
            sink["checkpoints"] = reply["checkpoints"]
            sink["versions"] = {e["baseline_id"]: e["version"] for e in entries}
        else:
            sink["error"] = f"{status}: {reply}"
        sink["event"].set()


# --------------------------------------------------------------------- #
# The service                                                           #
# --------------------------------------------------------------------- #


class PlanningService:
    """Owns the baselines, the tenant queues and the shards.

    Thread model: ``submit``/``record``/``stats`` run on the caller's
    thread (the event loop); one dispatcher thread per shard runs jobs;
    every shared structure is guarded by one condition variable.
    :class:`repro.service.protocol.ProtocolServer` serves the asyncio
    surface (``start``/``stop``/``wait``/``drain``) directly. ``wait``
    sleeps until the job's finish wakes it; ``stop`` and ``drain_until``
    poll every 10 ms.
    """

    def __init__(
        self,
        config: "RabidConfig | None" = None,
        options: "SchedulerOptions | None" = None,
        tracer=None,
        full_plan_fn=full_plan,
        replan_fn=incremental_replan,
    ) -> None:
        self.config = config or RabidConfig()
        self.options = options or SchedulerOptions()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._full_plan = full_plan_fn
        self._replan = replan_fn
        self._cond = threading.Condition()
        self._queues = TenantQueues(max_per_tenant=self.options.max_queue)
        self._records: Dict[str, JobRecord] = {}
        self._baselines: Dict[str, BaselineRecord] = {}
        # job id -> the (loop, future) pairs of the ``wait`` calls on it.
        self._waiters: Dict[
            str, List[Tuple[asyncio.AbstractEventLoop, asyncio.Future]]
        ] = {}
        # The plan cache the job body reads (baseline id -> committed
        # version and plan): the in-process shard's own; a forked shard
        # inherits a copy at fork.
        self._plans: Dict[str, Tuple[int, PlanState]] = {}
        self._shards: List[_Shard] = []
        self._verify_rng = random.Random(VERIFY_SEED)
        self._next_shard = 0
        self._started = False
        self._stopping = False
        self._shutting_down = False
        self._counters = dict.fromkeys(
            (
                "submitted", "shed", "done", "failed", "timeout", "verified",
                "mismatches", "rebuilds", "respawns",
            ),
            0,
        )

    def _count(self, key: str) -> None:
        with self._cond:
            if key in self._counters:
                self._counters[key] += 1
        if self.tracer.enabled and key in _TRACE_COUNTERS:
            self.tracer.count(_TRACE_COUNTERS[key])

    # -- lifecycle -------------------------------------------------------- #

    def start_sync(self) -> None:
        if self._started:
            return
        self._started = True
        self._shards = [_Shard(self, i) for i in range(self.options.workers)]
        for shard in self._shards:
            shard.thread.start()

    async def start(self) -> None:
        self.start_sync()

    def _request_stop(self) -> None:
        with self._cond:
            self._stopping = True
            self._cond.notify_all()

    def stop_sync(self) -> None:
        """Stop every dispatcher once its running attempt has ended, then
        shut the shard workers down. Queued jobs stay queued."""
        if not self._started:
            return
        self._request_stop()
        for shard in self._shards:
            shard.thread.join()
            shard.close()
        self._shards = []
        self._started = self._stopping = False

    async def stop(self) -> None:
        """:meth:`stop_sync`, waiting for running attempts off the loop."""
        if self._started:
            self._request_stop()
        while any(s.thread.is_alive() for s in self._shards):
            await asyncio.sleep(0.01)
        self.stop_sync()

    def __enter__(self) -> "PlanningService":
        self.start_sync()
        return self

    def __exit__(self, *exc) -> None:
        self.stop_sync()

    @property
    def shutting_down(self) -> bool:
        return self._shutting_down

    def begin_shutdown(self) -> None:
        """Reject all further submissions; queued and running jobs go on."""
        self._shutting_down = True

    async def drain(self) -> None:
        """Wait until no job is queued or running."""
        await self.drain_until(None)

    async def drain_until(self, deadline_s: "float | None") -> Dict[str, Any]:
        """Drain with a wall-clock bound.

        Returns ``{"drained": bool, "pending": n}``; ``pending`` counts the
        queued and running jobs left when the deadline cut the wait short.
        """
        limit = None if deadline_s is None else time.monotonic() + deadline_s
        while True:
            with self._cond:
                pending = len(self._queues) + sum(
                    1 for s in self._shards if s.running is not None
                )
            if not pending:
                return {"drained": True, "pending": 0}
            if limit is not None and time.monotonic() > limit:
                return {"drained": False, "pending": pending}
            await asyncio.sleep(0.01)

    # -- submission / inspection ----------------------------------------- #

    def submit(self, job: Job) -> JobRecord:
        """Queue a job on its baseline's shard.

        Raises :class:`QueueFullError` when the tenant's queue is full
        (the ``SHED`` record keeps the id free for a resubmit),
        :class:`UnknownJobError` for a delta against an unknown baseline,
        :class:`ShuttingDownError` once shutdown has begun, and
        :class:`ConfigurationError` for a baseline's bad config, which is
        parsed before anything is registered or queued.
        """
        config = self.config
        if job.kind == "baseline" and job.config is not None:
            config = RabidConfig.from_dict(job.config)
        with self._cond:
            if self._shutting_down:
                raise ShuttingDownError(
                    "service is shutting down; submission rejected"
                )
            if not self._started:
                raise ServiceError("service not started")
            existing = self._records.get(job.job_id)
            if existing is not None and existing.status is not JobStatus.SHED:
                raise ServiceError(f"duplicate job id {job.job_id!r}")
            baseline_id = _baseline_of(job)
            if job.kind == "baseline":
                if baseline_id in self._baselines:
                    raise ServiceError(f"baseline {baseline_id!r} already exists")
                shard = self._next_shard % self.options.workers
            elif baseline_id in self._baselines:
                shard = self._baselines[baseline_id].shard
            else:
                raise UnknownJobError(f"unknown baseline {baseline_id!r}")
            record = JobRecord(job=job, submitted_at=time.monotonic(), shard=shard)
            self._records[job.job_id] = record
            self._count("submitted")
            try:
                item = self._queues.push(job.tenant, shard, None, baseline=baseline_id)
            except QueueFullError as exc:
                record.status = JobStatus.SHED
                record.error = str(exc)
                self._count("shed")
                raise
            cheap = job.kind == "delta" and job.mode == "incremental"
            item.payload = {
                "type": "job",
                "record": record,
                "verify": cheap
                and self._verify_rng.random() < self.options.verify_fraction,
            }
            if job.kind == "baseline":
                self._next_shard += 1
                self._baselines[baseline_id] = BaselineRecord(
                    baseline_id=baseline_id,
                    shard=shard,
                    root=job.scenario,
                    scenario=job.scenario,
                    config=config.as_dict(),
                )
            if self.tracer.enabled:
                self.tracer.gauge("service.queue_depth", len(self._queues))
            self._cond.notify_all()
            return record

    def record(self, job_id: str) -> JobRecord:
        try:
            return self._records[job_id]
        except KeyError:
            raise UnknownJobError(f"unknown job {job_id!r}") from None

    def baseline(self, baseline_id: str) -> BaselineRecord:
        try:
            return self._baselines[baseline_id]
        except KeyError:
            raise UnknownJobError(f"unknown baseline {baseline_id!r}") from None

    def install_baseline(self, baseline_id: str, state: PlanState) -> None:
        """Adopt a restored plan (checkpoint restore, warm restart).

        The plan goes into the plan cache the job body reads, at the
        baseline's first version, with its scenario as the chain root. A
        shard forked before the install cannot see it; it rebuilds the
        plan on first use and refuses it unless it reproduces
        ``state.signature``. Once a job commits, the installed entry is
        an old version and no shard forked later uses it.
        """
        with self._cond:
            if baseline_id in self._baselines:
                raise ServiceError(f"baseline {baseline_id!r} already exists")
            shard = self._next_shard % self.options.workers
            self._next_shard += 1
            self._baselines[baseline_id] = BaselineRecord(
                baseline_id=baseline_id,
                shard=shard,
                root=state.scenario,
                scenario=state.scenario,
                config=state.config.as_dict(),
                signature=state.signature,
                version=1,
                summary=state.summary(),
            )
            self._plans[baseline_id] = (1, state)

    @property
    def baseline_ids(self) -> List[str]:
        """Baselines with a committed plan."""
        with self._cond:
            return sorted(
                bid for bid, b in self._baselines.items() if b.signature is not None
            )

    @property
    def dirty_baseline_ids(self) -> List[str]:
        """Baselines changed since their last checkpoint (or install)."""
        with self._cond:
            return sorted(bid for bid, b in self._baselines.items() if b.dirty)

    def stats(self) -> Dict[str, Any]:
        with self._cond:
            return {
                **self._counters,
                "queue_depth": len(self._queues),
                "queue_depths": self._queues.depths(),
                "baselines": len(self._baselines),
                "workers": self.options.workers,
            }

    async def wait(self, job_id: str) -> JobRecord:
        """Block until a job reaches a terminal status.

        The status is checked and the waiter registered under the
        condition, so a finish cannot slip in between; ``_finish`` then
        wakes the waiter on its own loop.
        """
        record = self.record(job_id)
        loop = asyncio.get_running_loop()
        with self._cond:
            if record.status in _TERMINAL:
                return record
            future = loop.create_future()
            self._waiters.setdefault(job_id, []).append((loop, future))
        await future
        return record

    # -- dispatch internals (shard threads, under the condition) ---------- #

    def _entry(self, baseline: BaselineRecord) -> Dict[str, Any]:
        """What a shard needs to find the committed plan in its cache."""
        return {
            "baseline_id": baseline.baseline_id,
            "version": baseline.version,
            "expected_signature": baseline.signature,
            "config": baseline.config,
        }

    def _add_history(self, payload: Dict[str, Any]) -> None:
        """Add to each baseline entry of ``payload`` the committed
        scenario, the chain root and the committed deltas, for a shard
        that has to rebuild the plan. No commit to those baselines can
        intervene: only the shard's own dispatcher, which is sending
        ``payload``, commits them."""
        entries = payload["baselines"] if payload["op"] == "checkpoint" else [payload]
        with self._cond:
            for entry in entries:
                baseline = self._baselines[entry["baseline_id"]]
                entry["scenario"] = baseline.scenario.to_dict()
                entry["root"] = baseline.root.to_dict()
                entry["chain"] = [d.to_dict() for d in baseline.chain]

    def _job_payload(self, item: QueuedItem) -> Dict[str, Any]:
        record: JobRecord = item.payload["record"]
        job = record.job
        baseline = self._baselines[_baseline_of(job)]
        if job.kind == "delta" and baseline.signature is None:
            raise ServiceError(f"baseline {job.baseline_id!r} has no committed plan")
        payload = self._entry(baseline)
        heavy = job.kind == "baseline" or job.mode == "full"
        payload.update(
            op="plan",
            kind=job.kind,
            mode=job.mode,
            scenario=baseline.scenario.to_dict() if heavy else None,
            delta=job.delta.to_dict() if job.delta is not None else None,
            verify=item.payload["verify"],
        )
        return payload

    def _finish(
        self,
        record: JobRecord,
        status: JobStatus,
        result: "Dict[str, Any] | None" = None,
        error: "str | None" = None,
    ) -> None:
        with self._cond:
            record.result = result
            record.error = error
            record.finished_at = time.monotonic()
            # Last: ``wait`` returns as soon as the status is terminal.
            record.status = status
            self._count(status.value)
            self._cond.notify_all()
            waiters = self._waiters.pop(record.job.job_id, [])
        if self.tracer.enabled and status is JobStatus.DONE:
            job = record.job
            mode = "baseline" if job.kind == "baseline" else job.mode
            elapsed = record.finished_at - record.started_at
            self.tracer.observe(
                "service.job_seconds", record.finished_at - record.submitted_at
            )
            self.tracer.observe("service.exec_seconds", elapsed)
            self.tracer.observe(f"service.exec_seconds.{mode}", elapsed)
        for loop, future in waiters:
            # A closed loop has no waiter left to wake.
            with contextlib.suppress(RuntimeError):
                loop.call_soon_threadsafe(_wake, future)

    def _commit(self, record: JobRecord, reply: Dict[str, Any]) -> None:
        job = record.job
        result = reply["result"]
        with self._cond:
            baseline = self._baselines[_baseline_of(job)]
            if job.kind == "delta":
                evolved = apply_delta(baseline.scenario, job.delta)
                if job.mode == "full" or result.get("verified"):
                    # A full plan of ``evolved`` has the committed signature.
                    baseline.root, baseline.chain = evolved, ()
                else:
                    baseline.chain += (job.delta,)
                baseline.scenario = evolved
            baseline.signature = reply["signature"]
            baseline.summary = reply["summary"]
            baseline.version += 1
            baseline.dirty = True
            record.rebuilt = reply["rebuilt"]
            if record.rebuilt:
                self._count("rebuilds")
            if result.get("verified"):
                self._count("verified")
                if not result["verify_matched"]:
                    self._count("mismatches")
            self._finish(record, JobStatus.DONE, result=result)

    # -- checkpoints ------------------------------------------------------- #

    def checkpoint_to(self, directory, only_dirty: bool = False) -> List[str]:
        """Write one ``<baseline_id>.ckpt.json`` per baseline; returns paths.

        Each shard serializes its own baselines between jobs (rebuilding
        any it lost), so a file holds exactly the committed plan.
        ``only_dirty`` restricts to baselines changed since their last
        checkpoint (the graceful-shutdown path); written baselines that
        did not change meanwhile are marked clean.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        sinks = []
        with self._cond:
            if not self._started:
                raise ServiceError("service not started")
            by_shard: Dict[int, List[str]] = {}
            for bid, baseline in sorted(self._baselines.items()):
                if baseline.signature is None or (only_dirty and not baseline.dirty):
                    continue
                by_shard.setdefault(baseline.shard, []).append(bid)
            for shard, bids in sorted(by_shard.items()):
                sink = {"event": threading.Event(), "bids": bids, "error": None}
                item = self._queues.push("__checkpoint__", shard, None)
                item.payload = {"type": "checkpoint", "sink": sink}
                sinks.append(sink)
            self._cond.notify_all()
        written: List[str] = []
        budget = self.options.job_timeout * 2 + 30.0
        for sink in sinks:
            if not sink["event"].wait(timeout=budget):
                raise CheckpointError(f"checkpoint of baselines {sink['bids']} timed out")
            if sink["error"]:
                raise CheckpointError(
                    f"checkpoint of baselines {sink['bids']} failed: {sink['error']}"
                )
            for bid, payload in sorted(sink["checkpoints"].items()):
                path = directory / f"{bid}.ckpt.json"
                path.write_text(json.dumps(payload))
                written.append(str(path))
        with self._cond:
            for sink in sinks:
                for bid, version in sink["versions"].items():
                    if self._baselines[bid].version == version:
                        self._baselines[bid].dirty = False
        return written
